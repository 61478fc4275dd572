from __future__ import annotations

import hashlib

import pytest

from hfpq import kernels, search
from hfpq.analysis import (
    IndexingInconsistency,
    analyze,
    kernel_from_iota,
    kernel_ints,
    structured_iota,
)
from hfpq.core import BinaryWord, GroupElement, all_elements, element_index, group_mul
from hfpq.gf2poly import reverse_bits, rotl
from hfpq.search import (
    ItoScanRow,
    _expand,
    _general,
    _JoinTable,
    _necklaces,
    _quotient,
    _row_hits,
    _settled,
    _sorted_unique,
    _stop,
    _structured,
    ito_scan,
    search_general,
    search_k2,
)
from hfpq.transforms import transpose_code
from hfpq.typeq import TypeQCode, codeword_set, verify_hfp

from .oracles import (
    canonical_perm,
    kernel_iota,
    least_in_class,
    orbit,
    profile_class_by_words,
    profile_table,
    prop_mul,
)
from .test_kernels import _brute_scan, _powers_4n

EXPECTED_GENERAL = {1: 1, 2: 4, 3: 72, 4: 384}
EXPECTED_K2 = {1: 0, 2: 0, 3: 0, 4: 128, 5: 0, 6: 864}


def _naive_realization(a: BinaryWord, b: BinaryWord, n: int):
    """Independent route: words by explicit permutation objects.

    Returns the 8n words in element order, or None when the pair fails a
    direct check of the defining relations, distances, or distinctness.
    """
    length = 4 * n
    e = BinaryWord.zero(length)
    u = BinaryWord.all_ones(length)
    words: dict[GroupElement, BinaryWord] = {GroupElement(0, False): e}
    for i in range(1, 4 * n):
        prev = words[GroupElement(i - 1, False)]
        words[GroupElement(i, False)] = prop_mul(
            a, canonical_perm(GroupElement(1, False), n), prev
        )
    for i in range(4 * n):
        words[GroupElement(i, True)] = prop_mul(
            words[GroupElement(i, False)],
            canonical_perm(GroupElement(i, False), n),
            b,
        )
    # defining relations as words
    if words[GroupElement(2 * n, False)] != u:
        return None
    pa = prop_mul(a, canonical_perm(GroupElement(1, False), n),
                  words[GroupElement(4 * n - 1, False)])
    if pa != e:
        return None
    bb = prop_mul(b, canonical_perm(GroupElement(0, True), n), b)
    if bb != u:
        return None
    ba = prop_mul(b, canonical_perm(GroupElement(0, True), n), a)
    if ba != words[GroupElement(4 * n - 1, True)]:
        return None
    vals = list(words.values())
    if len({w.bits for w in vals}) != 8 * n:
        return None
    # Hadamard property checked directly through pairwise distances
    for i, x in enumerate(vals):
        for y in vals[i + 1 :]:
            if (x ^ y).weight not in (2 * n, 4 * n):
                return None
            if (x ^ y).weight == 4 * n and y != x.complement():
                return None
    return words


def _naive_search_all_pairs(n: int) -> set[frozenset[int]]:
    """Exhaustive (a, b) enumeration with the naive realization check."""
    length = 4 * n
    found = set()
    for a_bits in range(1 << length):
        a = BinaryWord(a_bits, length)
        for b_bits in range(1 << length):
            words = _naive_realization(a, BinaryWord(b_bits, length), n)
            if words is not None:
                found.add(frozenset(w.bits for w in words.values()))
    return found


def test_search_general_matches_naive_all_pairs_n1():
    hits = search_general(1)
    assert {frozenset(codeword_set(h)) for h in hits} == _naive_search_all_pairs(1)


def test_search_general_counts_and_validity(general_hits):
    for n, hits in general_hits.items():
        assert len(hits) == EXPECTED_GENERAL[n]
        for code in hits:
            assert verify_hfp(code).ok
        sets = [codeword_set(h) for h in hits]
        assert len(set(sets)) == len(sets)


def test_search_general_naive_cross_check_n2(general_hits):
    # independent re-check of every hit through the Perm-object route
    for code in general_hits[2]:
        assert _naive_realization(code.a_vec, code.b_vec, 2) is not None


def test_search_k2_counts(k2_hits):
    for n, hits in k2_hits.items():
        assert len(hits) == EXPECTED_K2[n]


def test_search_k2_avoids_length12_and_20(k2_hits):
    # s=2 lengths admit no nonlinear kernel-dimension-2 code
    assert k2_hits[3] == []
    assert k2_hits[5] == []


def test_search_k2_n2_candidates_are_linear():
    # the 32 images of the structured candidates at n = 2 are linear codes
    # with kernel dimension 4, so none is a k = 2 code for search_k2 to list
    images = [
        (image, b_image)
        for _, a, b in _structured(2)
        for _, image, b_image, _, _ in _expand(a, b, None, 2)
    ]
    assert len(images) == 32
    for a, b in images:
        rep = analyze(TypeQCode(2, BinaryWord(a, 8), BinaryWord(b, 8)))
        assert rep.is_linear and rep.kernel_dim == 4
    assert search_k2(2) == []


def test_search_k2_subset_of_general(general_hits, k2_hits):
    general_sets = {frozenset(codeword_set(h)) for h in general_hits[4]}
    for code in k2_hits[4]:
        assert frozenset(codeword_set(code)) in general_sets


def test_search_k2_contains_reference_code(golden, k2_hits):
    gs = codeword_set(golden)
    assert any(codeword_set(h) == gs for h in k2_hits[6])


def test_search_k2_kernel_structure(k2_hits):
    from hfpq.analysis import compute_kernel
    from hfpq.typeq import all_codewords, kappa_vector

    for code in k2_hits[4]:
        dim, basis = compute_kernel(all_codewords(code))
        assert dim == 2
        assert basis[1] == kappa_vector(code.iota, code.n)


def _reference_unique(hits):
    """Reference dedup of raw (n, a, b, iota) hits, by codeword set.

    Keeps the smallest a string per codeword set and sorts by it; the
    search's own dedup keys by kernel coset instead.
    """
    best = {}
    for n, a, b, iota in hits:
        code = TypeQCode(n, BinaryWord(a, 4 * n), BinaryWord(b, 4 * n), iota)
        key = frozenset(kernels.codeword_table(a, b, n))
        old = best.get(key)
        if old is None or code.a_vec.to_string() < old.a_vec.to_string():
            best[key] = code
    return sorted(best.values(), key=lambda c: c.a_vec.to_string())


def _codes_from(hits, n):
    """The search output built directly from raw (a, b) hits."""
    return _reference_unique(
        (n, a, b, kernel_iota(kernels.codeword_table(a, b, n), n)[1]) for a, b in hits
    )


def _summary(codes):
    return [(c.a_vec.bits, c.b_vec.bits, c.iota) for c in codes]


# Limits inside rows and on row bounds.  Rows are 4, 16, 64 and 256 words
# for n = 1, 2, 3, 4.  At n = 1 row 1 is fixed by complement-and-rotate; at
# n = 3 rows 7 and 21 are quotient rows with nontrivial stabilizers (21 =
# 010101 is periodic), and rows 11 and 42 are not in the quotient.  At
# n = 4 the limits split the four-word kernel cosets of k = 2 codes:
# A = {0x0b79, 0x5e2c, 0xa1d3, 0xf486} (smallest a string 0x5e2c) and
# B = {0x0b2f, 0x5e85, 0xa17a, 0xf4d0} (smallest a string 0xf4d0).  0x5e2c
# splits A 1 | 3, 0xa17a splits both 2 | 2 and 0xf4d0 splits B 3 | 1, and
# each cuts off the smallest a string of A or B.
LIMIT_CASES = [
    (1, 1), (1, 5), (1, 6), (1, 8), (1, 11),
    (2, 17), (2, 20), (2, 40), (2, 100), (2, 200),
    (3, 7 * 64), (3, 7 * 64 + 30), (3, 11 * 64 + 5), (3, 21 * 64 + 17),
    (3, 22 * 64), (3, 42 * 64 + 40), (3, 3001),
    (4, 0x5E2C), (4, 0xA17A), (4, 0xF4D0),
]


def test_search_general_limit_cap():
    # the capped search keeps exactly the hits below the limit, with
    # their own b and iota, however the limit splits a row
    for n, limit in LIMIT_CASES:
        assert _summary(search_general(n, limit)) == _summary(
            _codes_from(_brute_scan(n, 0, limit), n)
        ), (n, limit)


def test_search_general_results_sorted(general_hits):
    for hits in general_hits.values():
        keys = [h.a_vec.to_string() for h in hits]
        assert keys == sorted(keys)


def test_search_general_n5_full_space(general_hits_5):
    # largest length with s=2 at desk scale: every code is full rank, k=1
    hits = general_hits_5
    assert len(hits) == 1400
    for code in hits[::40]:
        rep = analyze(code)
        assert rep.bound_violations == ()
        assert (rep.rank, rep.kernel_dim) == (19, 1)


def test_ito_scan_reference():
    rows = ito_scan(6)
    assert [r.n for r in rows] == [1, 2, 3, 4, 5, 6]
    for row in rows:
        assert row.exists is True
        assert row.witness is not None
        assert verify_hfp(row.witness).ok


def test_ito_scan_witnesses_are_first_hits():
    # the first verified structured candidate (n = 1, 2, 4, 6, 8), else the
    # general hit of smallest a (n = 3, 5, 7)
    rows = ito_scan(8)
    assert [r.witness.a_vec.to_string() for r in rows] == [
        "1001",
        "10000111",
        "110100111000",
        "1101000001111010",
        "11110111001010100000",
        "101001000000011111101101",
        "1110101111010011100101000000",
        "11010100010000000111111011101010",
    ]
    assert [r.witness.iota for r in rows] == [None, None, None, 0, None, 0, None, 0]


def _assert_iota_matches_kernel(words, n):
    kernel, iota = kernel_iota(words, n)
    if len(kernel) != 4:
        assert iota is None
        return
    u = (1 << (4 * n)) - 1
    kappa = next(z for z in kernel if z not in (0, u))
    assert kappa in (words[4 * n + iota], words[6 * n + iota])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernel_iota_never_finds_a_power_of_a(n):
    # exhaustive over raw hits: the kernel generator of every k=2 code is
    # some a^i b, so kernel_iota's IndexingInconsistency branch is unreached
    for a_bits, b_bits in kernels.scan_general(n, 0, 1 << (4 * n)):
        words = kernels.codeword_table(a_bits, b_bits, n)
        _assert_iota_matches_kernel(words, n)
    for _, _, _, words in _structured_b_first(n):
        _assert_iota_matches_kernel(words, n)


def test_ito_scan_capped_is_unknown_never_false():
    rows = ito_scan(3, limit=4)
    for row in rows:
        assert row.exists is not False
        if row.witness is None:
            assert row.exists is None


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_limit_path_equals_join(n, general_hits, general_hits_5):
    # a limit one below the space takes the word scan, no limit the join
    joined = general_hits_5 if n == 5 else general_hits[n]
    assert _summary(search_general(n, (1 << (4 * n)) - 1)) == _summary(joined)


def test_progress_callback_invoked():
    calls = []
    search_general(2, progress=lambda scanned, hits: calls.append((scanned, hits)))
    assert calls
    assert calls[-1][0] == 1 << 8


def _structured_b_first(n):
    """The structured loop in its b-first order, a2 by rotl and reverse_bits."""
    half = 2 * n
    mask = (1 << half) - 1
    for iota in range(half):
        for a1 in range(1 << half):
            if a1.bit_count() % 2 == 0:
                continue
            a2 = rotl(reverse_bits(a1, half), iota + 1, half) ^ mask
            a_bits = a1 | (a2 << half)
            b_bits = kernels.derive_b_bits(a_bits, n)
            if b_bits is None:
                continue
            words = kernels.check_candidate(a_bits, b_bits, n)
            if words is not None:
                yield iota, a_bits, b_bits, words


def _expand_structured(n):
    """Every (iota, a, b, words) reached from _structured by its orbits."""
    for iota, a_bits, _ in _structured(n):
        for image in orbit(a_bits, n):
            b_bits = kernels.derive_b_bits(image, n)
            yield iota, image, b_bits, kernels.codeword_table(image, b_bits, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_structured_a_first_matches_b_first(n):
    # the quotient candidates are verified candidates, and their orbits
    # give back every verified candidate of the full b-first enumeration
    everything = list(_structured_b_first(n))
    assert set(_structured(n)) <= {found[:3] for found in everything}
    assert sorted(_expand_structured(n)) == sorted(everything)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_settled_is_the_power_test_of_every_iota(n):
    # F2: the structured candidate of a1 verifies for every iota or for
    # none, as _settled says; the full power loop is the oracle
    half = 2 * n
    settled = {a1 for a1 in range(1 << half) if _settled(a1, n)}
    assert len(settled) == {1: 2, 2: 8, 3: 0, 4: 64, 5: 0, 6: 288}[n]
    for a1 in range(1 << half):
        for iota in range(half):
            a = a1 | kernels.derive_a2_bits(a1, iota, n) << half
            assert _powers_4n(a, n) == (a1 in settled), (a1, iota)


def test_settled_n1_is_vacuous():
    # no even k <= 1: both odd a1 pass, and the quotient a1 = 1 is yielded
    # for each iota
    assert [a1 for a1 in range(4) if _settled(a1, 1)] == [1, 2]
    assert [(iota, a & 3) for iota, a, _ in _structured(1)] == [(0, 1), (1, 1)]


@pytest.mark.parametrize("n", [7, 8])
def test_settled_is_the_even_columns_of_the_profile(n):
    # the k = 2 pre-test decides no a1 differently: _settled is "a1 odd
    # and every even column of P(a1) is n", over every half-word
    settled = [_settled(a1, n) for a1 in range(1 << (2 * n))]
    assert settled == [
        bool(a1.bit_count() & 1)
        and all(w == n for w in kernels.half_profile(a1, n)[1::2])
        for a1 in range(1 << (2 * n))
    ]


@pytest.mark.parametrize("n", [3, 5, 7])
def test_structured_odd_n_is_empty_at_once(monkeypatch, n):
    def unreachable(*args):
        raise AssertionError("an odd-n structured family was walked")

    monkeypatch.setattr(kernels, "half_profile", unreachable)
    assert list(_structured(n)) == []
    assert search_k2(n) == []


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_join_equals_word_scan(n):
    # the join yields exactly the odd rows least in their class, each with
    # the word scan's hits of that row, and last the whole space; up to
    # n = 5 every odd row's join equals its word scan, quotient or not
    half = 2 * n
    space = 1 << (4 * n)
    *rows, last = _general(n, space)
    assert last == (space, [])
    quotient = [
        a2 for a2 in range(1 << half) if a2.bit_count() & 1 and least_in_class(a2, half)
    ]
    assert [end for end, _ in rows] == [(a2 + 1) << half for a2 in quotient]
    for a2, (end, found) in zip(quotient, rows):
        assert found == kernels.scan_general(n, a2 << half, end)
    if n <= 5:
        table = _JoinTable(n)
        for a2 in range(1, 1 << half):
            if a2.bit_count() & 1:
                row = kernels.scan_general(n, a2 << half, (a2 + 1) << half)
                assert _row_hits(a2, n, table) == row


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_join_table_classes_are_the_eager_table(n):
    # each class, once profiled, holds exactly the eager table's entries
    # whose profile starts with the class key, and is kept; a key with no
    # necklace gives an empty class
    eager = profile_table(n)
    table = _JoinTable(n)
    classes = list(table.unprofiled)
    assert sorted(classes) == sorted({key[:2] for key in eager})
    for c in classes:
        profiled = table[c]
        assert profiled == {key: reps for key, reps in eager.items() if key[:2] == c}
        assert table[c] is profiled
    assert table.unprofiled == {}
    # weight 0: no odd necklace
    assert table[(0,) * min(n, 2)] == {}


def test_first_general_hit_profiles_only_the_classes_it_needs(monkeypatch):
    # up to the first hit at n = 7 the join profiles its rows and the
    # classes they name: 118 half_profile calls for 586 odd necklaces,
    # where a table profiled at once would make 628
    n = 7
    profile = kernels.half_profile
    calls = []

    def counted(h, n):
        calls.append(h)
        return profile(h, n)

    monkeypatch.setattr(kernels, "half_profile", counted)
    first = next(hit for _, found in _general(n, 1 << (4 * n)) for hit in found)
    assert len(calls) == 118
    monkeypatch.undo()
    assert first[0] == ito_scan(n)[-1].witness.a_vec.bits


def _raw_hits(monkeypatch, run):
    """Run a search and return the raw hits (n, a, b, iota, key) it dedups.

    The search returns _reference_unique of its raw hits in place of its
    own dedup.
    """
    raw = []

    def capture(hits):
        hits = list(hits)
        raw.extend(hits)
        return _reference_unique(hit[:4] for hit in hits)

    monkeypatch.setattr(search, "_sorted_unique", capture)
    run()
    return raw


def _assert_images_match_fresh(raw, n):
    # every image carries its own b, its kernel's iota and its own key: in
    # the coset a + K(C) of a kernel computed afresh, the one member with
    # bit 0 clear, and bit 1 clear too when K(C) has 4 words; at n <= 2 the
    # coset is the linear code C itself
    for hit_n, a_bits, b_bits, iota, key in raw:
        assert hit_n == n
        assert b_bits == kernels.derive_b_bits(a_bits, n)
        kernel, fresh_iota = kernel_iota(kernels.codeword_table(a_bits, b_bits, n), n)
        coset = {a_bits ^ z for z in kernel}
        if n <= 2:
            assert key == frozenset(coset)
        else:
            low = 3 if len(kernel) == 4 else 1
            assert [z for z in coset if not z & low] == [key]
        assert iota == fresh_iota


def _sigma_ref(w, s, n):
    """sigma_s through gf2poly.rotl: half 1 rotated by +s, half 2 by -s."""
    half = 2 * n
    mask = (1 << half) - 1
    return rotl(w & mask, s, half) | rotl(w >> half, -s, half) << half


# sigma_s is sigma_1 applied s times, sigma_1 commutes with the complement,
# and the even-weight words and the raw hits are each closed under sigma_1.
# So L2 and the table map of S of search._expand for s = 1 on
# every word of such a set give them for every s by induction: the
# complements picked up at each step add up.


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_derive_b_under_complement_and_sigma(n):
    # L1 and L2 of search._expand, for every even-weight a: b of a + u is
    # b of a, and b of sigma_1 a is sigma_1 b with bit 0 cleared by the
    # complement
    u = (1 << (4 * n)) - 1
    for a in range(1 << (4 * n)):
        if a.bit_count() & 1:
            continue
        b = kernels.derive_b_bits(a, n)
        assert kernels.derive_b_bits(a ^ u, n) == b
        moved = _sigma_ref(b, 1, n)
        if moved & 1:
            moved ^= u
        assert kernels.derive_b_bits(_sigma_ref(a, 1, n), n) == moved


def _assert_tables_follow_sigma(a, b, n, shifts):
    # S of search._expand, index by index, for the hit (a, b): sigma maps the
    # table of (a, b) onto that of (sigma a, sigma b), so the code of
    # sigma a is sigma C, and the key of search._expand rests on it.  With
    # sigma b + u in place of sigma b the a^i b half is rotated by 2n
    # indices, since the word of a^i (b + u) is that of a^(i+2n) b; with
    # a + u the words at odd indices are complemented, since a + u =
    # a^(2n+1).
    half, length = 2 * n, 4 * n
    u = (1 << length) - 1
    table = kernels.codeword_table(a, b, n)
    assert kernels.codeword_table(a ^ u, b, n) == tuple(
        w ^ u if i & 1 else w for i, w in enumerate(table)
    )
    for s in shifts:
        image = _sigma_ref(a, s, n)
        b_image = kernels.derive_b_bits(image, n)
        moved = [_sigma_ref(w, s, n) for w in table]
        if b_image != _sigma_ref(b, s, n):
            moved[length:] = moved[length + half :] + moved[length : length + half]
        assert kernels.codeword_table(image, b_image, n) == tuple(moved)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tables_follow_sigma_on_raw_hits(n):
    for a, b in kernels.scan_general(n, 0, 1 << (4 * n)):
        _assert_tables_follow_sigma(a, b, n, [1])


def _quotient_hits(n):
    """(a, b, iota) of every hit of both quotient scans, iota from its kernel."""
    for _, found in _general(n, 1 << (4 * n)):
        for a, b in found:
            yield a, b, kernel_iota(kernels.codeword_table(a, b, n), n)[1]
    for _, a, b in _structured(n):
        yield a, b, kernel_iota(kernels.codeword_table(a, b, n), n)[1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_expand_yields_the_orbit(n):
    # each image of the orbit exactly once, with one b and one key per pair
    u = (1 << (4 * n)) - 1
    for a, b, iota in _quotient_hits(n):
        out = _expand(a, b, iota, n)
        images = [image for _, image, _, _, _ in out]
        assert len(images) == len(set(images))
        assert set(images) == orbit(a, n)
        assert all(hit[0] == n and hit[3] == iota for hit in out)
        for (_, x, bx, _, kx), (_, y, by, _, ky) in zip(out[::2], out[1::2]):
            assert y == x ^ u and by == bx and ky == kx


def _generators(n):
    """{codeword set C: the raw hits a whose code is C}, over every raw hit.

    The raw hits are the profile join over every odd row, the word scan's
    equal (n <= 5).
    """
    table = _JoinTable(n)
    generators = {}
    for a2 in range(1 << (2 * n)):
        if a2.bit_count() & 1:
            for a, b in _row_hits(a2, n, table):
                words = frozenset(kernels.codeword_table(a, b, n))
                generators.setdefault(words, []).append((a, b))
    return generators


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_kernel_coset_is_the_set_of_generators(n):
    # F3 of search._expand, over every raw hit: from n = 3 on the raw hits
    # with a's codeword set C are exactly a + K(C), and K(C) is {0, u} or
    # {0, u, kappa, kappa + u} with kappa alternating on each half; at
    # n <= 2 the codes are linear and a + K(C) = C.
    half = 2 * n
    mask = (1 << half) - 1
    u = (1 << (2 * half)) - 1
    alternating = {mask // 3, mask // 3 << 1}
    for words, pairs in _generators(n).items():
        gens = [a for a, _ in pairs]
        kernel = kernel_ints(words)
        for a in gens:
            coset = {a ^ z for z in kernel}
            assert coset == (words if n <= 2 else set(gens))
        if n <= 2:
            continue
        kappa = kernel[1]
        assert kernel in ([0, u], sorted({0, u, kappa, kappa ^ u}))
        if len(kernel) == 4:
            assert kappa & mask in alternating and kappa >> half in alternating


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_rank_orders_each_coset_by_a_string(n):
    # the 2-bit rank (bit 0, bit 1) of search._sorted_unique orders the
    # hits of every code, the coset a + K(C), as their a strings sort, and
    # gives each its own rank; fed a coset in either order, the dedup keeps
    # the hit of least a string
    for pairs in _generators(n).values():
        # the first hit of _expand is (n, a, b, iota, key) for a itself
        hits = [_expand(a, b, structured_iota(a, n), n)[0] for a, b in pairs]
        assert len({key for *_, key in hits}) == 1
        ranks = {(a & 1) << 1 | (a >> 1) & 1: a for _, a, _, _, _ in hits}
        assert len(ranks) == len(hits) in (2, 4)
        by_string = sorted(ranks.values(), key=lambda a: BinaryWord(a, 4 * n).to_string())
        assert [ranks[r] for r in sorted(ranks)] == by_string
        for order in (hits, hits[::-1]):
            (code,) = _sorted_unique(order)
            assert code.a_vec.bits == by_string[0]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_free_rows_hold_only_orbit_least_hits(n):
    # the free-row lemma of search._expand's Orbit paragraph, over every
    # quotient row: in a free row (a class of 4n half-words under rotation
    # and complement) every hit is the least of its orbit, and its orbit has
    # 4n words; the other rows are few, and the least of the images decides
    # there
    half = 2 * n
    mask = (1 << half) - 1
    off_free = 0
    *rows, _ = _general(n, 1 << (4 * n))
    for end, found in rows:
        a2 = (end - 1) >> half
        klass = {rotl(x, s, half) for x in (a2, a2 ^ mask) for s in range(half)}
        if len(klass) < 4 * n:
            off_free += len(found)
            continue
        for a, _ in found:
            images = orbit(a, n)
            assert len(images) == 4 * n and min(images) == a
    assert off_free == {3: 12, 4: 0, 5: 20, 6: 0, 7: 84}[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_general_orbit_closure_is_brute_scan(monkeypatch, general_hits, n):
    codes = []
    raw = _raw_hits(monkeypatch, lambda: codes.extend(search_general(n)))
    assert sorted((a, b) for _, a, b, _, _ in raw) == _brute_scan(n, 0, 1 << (4 * n))
    _assert_images_match_fresh(raw, n)
    # the kernel-coset dedup gives what the codeword-set dedup gives
    assert _summary(general_hits[n]) == _summary(codes)


def test_search_general_n7(monkeypatch):
    codes = []
    raw = _raw_hits(monkeypatch, lambda: codes.extend(search_general(7)))
    assert len(raw) == 22736
    assert len(codes) == 11368
    monkeypatch.undo()
    assert _summary(search_general(7)) == _summary(codes)


# sha256 of the sorted a strings of search_general(5) before the quotient
GENERAL_5_DIGEST = "f0422d701965415282d3044e28c3b6360ceb0b68875b4e7118c8a60c6b787a25"


def test_general_orbit_closure_is_full_scan_n5(monkeypatch, general_hits_5):
    codes = []
    raw = _raw_hits(monkeypatch, lambda: codes.extend(search_general(5)))
    full_scan = kernels.scan_general(5, 0, 1 << 20)
    assert sorted((a, b) for _, a, b, _, _ in raw) == full_scan
    _assert_images_match_fresh(raw, 5)
    assert _summary(general_hits_5) == _summary(codes)
    for a, b in full_scan:
        _assert_tables_follow_sigma(a, b, 5, [1])
    a_strings = "\n".join(c.a_vec.to_string() for c in general_hits_5)
    assert hashlib.sha256(a_strings.encode("ascii")).hexdigest() == GENERAL_5_DIGEST


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_structured_images_carry_kernel_iota(monkeypatch, k2_hits, n):
    codes = []
    raw = _raw_hits(monkeypatch, lambda: codes.extend(search_k2(n)))
    assert len(raw) == {4: 512, 6: 3456}.get(n, 0)
    _assert_images_match_fresh(raw, n)
    assert _summary(k2_hits[n]) == _summary(codes)
    # the quotient hits alone are not closed under sigma_1: every s
    for _, a, b in _structured(n):
        _assert_tables_follow_sigma(a, b, n, range(2 * n))


def test_quotient_sizes():
    # odd-weight rows (or a1) least in their class, of the 2^(2n-1) odd ones
    counts = [
        sum(1 for x in range(1 << h) if x.bit_count() & 1 and least_in_class(x, h))
        for h in range(2, 13, 2)
    ]
    assert counts == [1, 1, 4, 8, 28, 86]


@pytest.mark.parametrize("width", range(1, 15))
def test_necklaces_are_the_least_rotations(width):
    rotations = range(width)
    assert list(_necklaces(width)) == [
        x for x in range(1 << width) if all(rotl(x, k, width) >= x for k in rotations)
    ]


@pytest.mark.parametrize("half", range(2, 15))
def test_quotient_is_the_class_filter(half):
    assert list(_quotient(half)) == [
        x for x in range(1 << half) if x.bit_count() & 1 and least_in_class(x, half)
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_profile_table_expands_to_the_word_tables(n):
    # one necklace per odd rotation class, expanded into its distinct
    # rotations, gives the profile tables of every odd half-word
    half = 2 * n
    table = _JoinTable(n)
    expanded = {
        key: sorted({rotl(h, s, half) for h in reps for s in range(half)})
        for c in list(table.unprofiled)
        for key, reps in table[c].items()
    }
    words: dict[tuple[int, ...], list[int]] = {}
    for w in range(1, half, 2):
        words.update(profile_class_by_words(w, n))
    assert expanded == words


# sha256 of the ito_scan(10) witnesses, recorded before the quotient was
# generated: "n a-string b-string iota" per line
ITO_SCAN_10_DIGEST = "5a713d63ee7ac3249355bd7bac4ba790b28b4baba9e5378d13e987b2b62a4b59"


def test_ito_scan_10_witnesses():
    rows = ito_scan(10)
    assert all(row.exists for row in rows)
    lines = "\n".join(
        f"{r.n} {r.witness.a_vec.to_string()} {r.witness.b_vec.to_string()} "
        f"{r.witness.iota}"
        for r in rows
    )
    assert hashlib.sha256(lines.encode("ascii")).hexdigest() == ITO_SCAN_10_DIGEST


# sha256 of the sorted a strings, newline-joined, and of the lines
# "a-string b-string iota", recorded before the int keys and free rows
LISTING_DIGESTS = {
    ("general", 6): (
        "363ebae059d322d615ff962673344dbe8dac50b7ad8a17e91c64bbc4f7683905",
        "b0b96fae128f44867f0c9f76bd5a0ff60e459b0ffbd8e4864126d9d59f873a87",
    ),
    ("general", 7): (
        "8468468a4088d2d49e6c2d4cd55f504342cf0fea2b7fa0393b4ac25b738253fc",
        "f251a17bf6b8be66de7891f869ea2e2b7bf7137c7cb68bec04db6a7ad8eddf4b",
    ),
    ("general", 8): (
        "699eb8fcddd8bf2b5b9951ead407c0a355bdf8ccf20d0625472f9b3b0f198bd0",
        "2535d5c1bd186a840ee260aac61d271f7815ee3fa1be2fc10117c38f0fb9d85c",
    ),
    ("k2", 8): (
        "5edf21279c28b2ecaa5d7c43016724a34aaeb95a4754ff7488b4d42205c6cfce",
        "18fa1814a7303e9ac84d2f5cb42377139ea6a69b3503a56f5c6a5b6ce2f48968",
    ),
}


@pytest.mark.parametrize("search, n", sorted(LISTING_DIGESTS))
def test_listing_digests(search, n, general_hits_6, k2_hits_8):
    if (search, n) == ("general", 6):
        codes = general_hits_6
    elif search == "k2":
        codes = k2_hits_8
    else:
        codes = search_general(n)
    a_strings = [c.a_vec.to_string() for c in codes]
    assert a_strings == sorted(a_strings)
    lines = [f"{c.a_vec.to_string()} {c.b_vec.to_string()} {c.iota}" for c in codes]
    digests = tuple(
        hashlib.sha256("\n".join(rows).encode("ascii")).hexdigest()
        for rows in (a_strings, lines)
    )
    assert digests == LISTING_DIGESTS[search, n]


@pytest.mark.parametrize("n", [0, -1, -2])
def test_nonpositive_n_rejected(n):
    for search in (search_general, search_k2):
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
            search(n)


@pytest.mark.parametrize("limit", [0, -5])
def test_nonpositive_limit_rejected(limit):
    with pytest.raises(ValueError):
        _stop(2, limit)
    with pytest.raises(ValueError):
        search_general(2, limit)


# F5 (analysis.structured_iota): the kernel is read off a by one rotation
# match; kernel_ints over the word table is the oracle.


def _assert_f5(a, b, n):
    """structured_iota and kernel_from_iota agree with kernel_ints on (a, b)."""
    kernel, iota = kernel_iota(kernels.codeword_table(a, b, n), n)
    assert structured_iota(a, n) == iota, (a, n)
    if n >= 3:
        assert sorted(kernel_from_iota(iota, n)) == kernel, (a, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_f5_on_every_raw_hit(monkeypatch, n):
    # every raw hit of both searches, with the iota each search attached; at
    # n <= 2 the codes are linear and structured_iota gives None
    raw = _raw_hits(monkeypatch, lambda: search_general(n))
    raw += _raw_hits(monkeypatch, lambda: search_k2(n))
    assert len(raw) == {1: 4, 2: 32, 3: 144, 4: 1536, 5: 2800, 6: 18432}[n]
    for _, a, b, iota, _ in raw:
        _assert_f5(a, b, n)
        assert iota == structured_iota(a, n)


@pytest.mark.parametrize("n", [7, 8])
def test_f5_on_every_quotient_hit(n):
    hits = [h for _, found in _general(n, 1 << (4 * n)) for h in found]
    hits += [(a, b) for _, a, b in _structured(n)]
    assert len(hits) == {7: 854, 8: 5376}[n]
    for a, b in hits:
        _assert_f5(a, b, n)


def test_f5_two_matches_raise():
    # rev(a1) = 101010 has period 2, so a2 + u matches it at two rotations;
    # no verified code does (the kernel would have 8 words)
    n, half = 3, 6
    a1 = 0b010101
    a2 = rotl(0b101010, 1, half) ^ 0b111111
    with pytest.raises(IndexingInconsistency):
        structured_iota(a1 | a2 << half, n)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_transpose_of_structured_is_not_structured(n):
    # the paper's "k = 2 gives a transpose with k = 1", through F5
    codes = search_k2(n)
    assert len(codes) == {4: 128, 6: 864, 8: 8192}[n]
    for code in codes:
        assert structured_iota(code.a_vec.bits, n) == code.iota is not None
        t = transpose_code(code)
        assert t.iota is None
        assert structured_iota(t.a_vec.bits, n) is None
