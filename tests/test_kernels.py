from __future__ import annotations

import functools
import random

import pytest

from hfpq import kernels, kernels_py
from hfpq.core import BinaryWord, GroupElement
from hfpq.gf2poly import modulus_poly, poly_mul, reverse_bits, rotl
from hfpq.transforms import double_code
from hfpq.typeq import PASS, TypeQCode, Verdict, verify_hfp

from .oracles import (
    canonical_perm,
    derive_b_by_two_quotients,
    poly_mod,
    powers_ok,
    prop_mul,
    random_odd_halves,
    rot_halves,
    verify_hfp_on_table,
)


def test_codeword_table_matches_perm_objects(golden):
    words = kernels_py.codeword_table(golden.a_vec.bits, golden.b_vec.bits, 6)
    acc = BinaryWord.zero(24)
    pa = canonical_perm(GroupElement(1, False), 6)
    for i in range(24):
        assert words[i] == acc.bits
        acc = prop_mul(golden.a_vec, pa, acc)
    for i in range(24):
        expect = prop_mul(
            BinaryWord(words[i], 24), canonical_perm(GroupElement(i, False), 6),
            golden.b_vec,
        )
        assert words[24 + i] == expect.bits


def test_check_candidate_accepts_reference(golden):
    out = kernels_py.check_candidate(golden.a_vec.bits, golden.b_vec.bits, 6)
    assert out == kernels_py.codeword_table(golden.a_vec.bits, golden.b_vec.bits, 6)


def test_check_candidate_rejects_tampering(golden):
    assert kernels_py.check_candidate(golden.a_vec.bits ^ 1, golden.b_vec.bits, 6) is None
    assert kernels_py.check_candidate(golden.a_vec.bits, golden.b_vec.bits ^ 3, 6) is None


def test_derive_b_bits_matches_reference(golden):
    assert kernels_py.derive_b_bits(golden.a_vec.bits, 6) == golden.b_vec.bits


def test_check_candidate_accepts_valid_64bit_code():
    from hfpq.search import search_k2
    from hfpq.transforms import double_code

    code = double_code(double_code(search_k2(4)[0]))
    assert code.length == 64
    a, b = code.a_vec.bits, code.b_vec.bits
    words = kernels_py.check_candidate(a, b, 16)
    assert words is not None
    assert words == kernels_py.codeword_table(a, b, 16)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_derive_b_bits_matches_two_quotients(n):
    # every a at n <= 4, then random a up to length 6144: the second half
    # read off the first's quotient equals the second half's own quotient
    for a in range(1 << (4 * n)):
        assert kernels_py.derive_b_bits(a, n) == derive_b_by_two_quotients(a, n)
    rng = random.Random(n)
    for big in (8, 15, 16, 96, 1536):
        for _ in range(10):
            a = rng.getrandbits(4 * big)
            assert kernels_py.derive_b_bits(a, big) == derive_b_by_two_quotients(a, big)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_derive_b_bits_exists_iff_even_weight(n):
    # every a: None exactly for odd weight, otherwise b^2 = u as words
    length = 4 * n
    u = (1 << length) - 1
    for a in range(1 << length):
        b = kernels_py.derive_b_bits(a, n)
        if a.bit_count() & 1:
            assert b is None
        else:
            assert b is not None
            assert b ^ reverse_bits(b, length) == u


def _brute_scan(n, start, stop):
    """Reference scan: every a, weight check, derive_b_bits, check_candidate."""
    hits = []
    for a in range(start, stop):
        if a.bit_count() != 2 * n:
            continue
        b = kernels_py.derive_b_bits(a, n)
        if b is not None and kernels_py.check_candidate(a, b, n) is not None:
            hits.append((a, b))
    return hits


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_parity_lemma_power_2n(n):
    # a^(2n) = wt(a1) u1 + wt(a2) u2 for every word a, by direct iteration
    half = 2 * n
    mask = (1 << half) - 1
    for a in range(1 << (4 * n)):
        v = 0
        for _ in range(half):
            v = a ^ rot_halves(v, half)
        expect = (mask if (a & mask).bit_count() & 1 else 0) | (
            (mask << half) if (a >> half).bit_count() & 1 else 0
        )
        assert v == expect


@pytest.mark.parametrize("n", [5, 6, 7])
def test_parity_lemma_per_half(n):
    # S_(2n) h = wt(h) u_h in GF(2)[x]/(x^(2n) + 1) for every half-word h,
    # with S_(2n) = 1 + x + ... + x^(2n-1) = u_h, as a polynomial product
    half = 2 * n
    u_h = (1 << half) - 1
    m = modulus_poly(half)
    for h in range(1 << half):
        expect = u_h if h.bit_count() & 1 else 0
        assert poly_mod(poly_mul(u_h, h), m) == expect


def test_first_of_weight_exhaustive():
    for w in range(1, 9):
        of_weight = [x for x in range(1 << 9) if x.bit_count() == w]
        for lo in range(1 << 8):
            assert kernels_py.first_of_weight(lo, w) == min(
                x for x in of_weight if x >= lo
            )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_scan_general_matches_brute_force(n):
    space = 1 << (4 * n)
    row = 1 << (2 * n)
    assert kernels_py.scan_general(n, 0, space) == _brute_scan(n, 0, space)
    rng = random.Random(100 + n)
    for _ in range(60):
        # windows of up to three rows, starting and stopping mid-row
        start = rng.randrange(space)
        stop = min(space, start + rng.randrange(3 * row + 1))
        assert kernels_py.scan_general(n, start, stop) == _brute_scan(n, start, stop)
    for a2 in (1, row - 2):
        lo, hi = a2 * row + 3, a2 * row + row - 5
        assert kernels_py.scan_general(n, lo, hi) == _brute_scan(n, lo, hi)
    assert kernels_py.scan_general(n, 5, 5) == []


def test_scan_general_matches_brute_force_n5_window():
    # from mid-row (a2 = 522, weight 3) across a hit at a = 534767 and on
    # through the next four rows
    start = (522 << 10) + 100
    stop = start + 5000
    hits = kernels_py.scan_general(5, start, stop)
    assert hits == _brute_scan(5, start, stop)
    assert hits


def test_scan_general_n16_window_bounded_memory():
    import tracemalloc

    a2 = (1 << 17) - 1  # odd weight: the row holds words of weight 32
    start = (a2 << 32) | 0x5555_4000
    tracemalloc.start()
    try:
        hits = kernels_py.scan_general(16, start, start + 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert hits == _brute_scan(16, start, start + 4096)


def test_check_candidate_is_powers_then_b_star(golden):
    a, b = golden.a_vec.bits, golden.b_vec.bits
    u = (1 << 24) - 1
    assert powers_ok(a, 6)
    b_star = kernels_py.derive_b_bits(a, 6)
    assert b in (b_star, b_star ^ u)
    for b_bits in (b_star, b_star ^ u):
        table = kernels_py.check_candidate(a, b_bits, 6)
        assert table == kernels_py.codeword_table(a, b_bits, 6)
    assert kernels_py.check_candidate(a, b_star ^ 1, 6) is None
    assert not powers_ok(a ^ 1, 6)


def _powers_4n(a, n):
    """The full power loop: wt(a^i) = 2n for 0 < i < 4n, i != 2n, and a^(2n) = u."""
    half = 2 * n
    u = (1 << (2 * half)) - 1
    v = 0
    for i in range(1, 2 * half):
        v = a ^ rot_halves(v, half)
        if i == half:
            if v != u:
                return False
        elif v.bit_count() != half:
            return False
    return True


@functools.cache
def _passing(n):
    """Every a of length 4n that passes the full power loop."""
    return [a for a in range(1 << (4 * n)) if _powers_4n(a, n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_powers_ok_equals_full_power_loop(n):
    # the powers past a^(2n) are u + the powers below it, and given
    # a^(2n) = u the weights of a^(n+1), ..., a^(2n-1) follow from those of
    # a, ..., a^n, and wt(a^n) = 2n from the parity; verify_hfp, which
    # stops at a^(n-1) too, agrees on every a with both halves odd,
    # completed with b*
    length = 4 * n
    mask = (1 << (2 * n)) - 1
    passing = set(_passing(n))
    for a in range(1 << length):
        assert powers_ok(a, n) == (a in passing)
        if (a & mask).bit_count() & (a >> (2 * n)).bit_count() & 1:
            b = kernels_py.derive_b_bits(a, n)
            code = TypeQCode(n, BinaryWord(a, length), BinaryWord(b, length))
            assert verify_hfp(code).ok == (a in passing)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_half_profile_lemma(n):
    # half 1 of the word of a^k is S_k h for a = h; for odd h, wt(S_(2n-i) h)
    # = 2n - wt(S_i h)
    half = 2 * n
    mask = (1 << half) - 1
    for h in range(1 << half):
        table = kernels_py.codeword_table(h, 0, n)
        weights = [(w & mask).bit_count() for w in table[:half]]
        assert kernels_py.half_profile(h, n) == tuple(weights[1 : n + 1])
        if h.bit_count() & 1:
            for i in range(1, half):
                assert weights[half - i] == half - weights[i]


def test_odd_half_has_weight_n_at_s_n():
    # S_(2n) = (1 + x^n) S_n, so for odd h, S_n h is the complement of its
    # rotation by n and wt(S_n h) = n: the weight of a^n never decides
    for n in range(1, 8):
        half = 2 * n
        for h in range(1 << half):
            if h.bit_count() & 1:
                s_n = 0
                for j in range(n):
                    s_n ^= rotl(h, j, half)
                assert s_n.bit_count() == n, (n, h)


def _b_squared_u(n):
    """Every b of length 4n with b^2 = u: b2 = rev(b1) + u."""
    half = 2 * n
    mask = (1 << half) - 1
    return [b1 | ((reverse_bits(b1, half) ^ mask) << half) for b1 in range(1 << half)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_only_b_star_and_complement_pass(n):
    # for each a passing the powers, of all b with b^2 = u exactly b* and
    # b* + u are accepted, by check_candidate and by verify_hfp alike
    length = 4 * n
    u = (1 << length) - 1
    bs = _b_squared_u(n)
    assert all(b ^ reverse_bits(b, length) == u for b in bs)
    for a in _passing(n):
        b_star = kernels_py.derive_b_bits(a, n)
        for b in bs:
            accepted = b in (b_star, b_star ^ u)
            assert (kernels_py.check_candidate(a, b, n) is not None) == accepted
            code = TypeQCode(n, BinaryWord(a, length), BinaryWord(b, length))
            assert verify_hfp(code).ok == accepted


@pytest.mark.parametrize("n", [1, 2])
def test_naive_realization_accepts_only_b_star_and_complement(n):
    # the permutation-object route of test_search, over every b
    from .test_search import _naive_realization

    length = 4 * n
    u = (1 << length) - 1
    for a in _passing(n):
        b_star = kernels_py.derive_b_bits(a, n)
        accepted = {
            b
            for b in range(1 << length)
            if _naive_realization(BinaryWord(a, length), BinaryWord(b, length), n)
            is not None
        }
        assert accepted == {b_star, b_star ^ u}


def _assert_hadamard_table(a, b, n):
    half = 2 * n
    table = kernels_py.codeword_table(a, b, n)
    assert len(set(table)) == 8 * n
    assert table[half] == (1 << (2 * half)) - 1
    for i, w in enumerate(table):
        if i not in (0, half):
            assert w.bit_count() == half


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_b_star_table_is_hadamard(n):
    # distinctness and the weights of the a^i b words, checked on the words
    for a in _passing(n):
        _assert_hadamard_table(a, kernels_py.derive_b_bits(a, n), n)


def test_b_star_table_is_hadamard_n5():
    hits = kernels.scan_general(5, 0, 1 << 20)
    assert len(hits) == 2800
    for a, b in hits:
        assert b == kernels_py.derive_b_bits(a, 5)
        _assert_hadamard_table(a, b, 5)


def _reverse_by_bit(x: int, width: int) -> int:
    out = 0
    for _ in range(width):
        out = (out << 1) | (x & 1)
        x >>= 1
    return out


def test_reverse_bits_matches_bitwise_reference():
    # only the low width bits count: exhaustive over width + 1 bits up to
    # width 12, then random words with junk above bit width up to 768
    for width in range(1, 13):
        for x in range(1 << (width + 1)):
            assert reverse_bits(x, width) == _reverse_by_bit(x, width)
    rng = random.Random(11)
    for width in (13, 31, 63, 64, 65, 96, 192, 384, 768):
        for _ in range(20):
            x = rng.getrandbits(width + rng.randrange(8))
            assert reverse_bits(x, width) == _reverse_by_bit(x, width)


def _table_by_rot_halves(a, b, n):
    # w(a^i) = a + pi_a w(a^(i-1)), w(a^i b) = w(a^i) + pi_a^i b, with
    # pi_a the per-half rotation of the oracle
    half = 2 * n
    words = [0]
    for _ in range(1, 2 * half):
        words.append(a ^ rot_halves(words[-1], half))
    return tuple(words) + tuple(
        w ^ rot_halves(b, half, i) for i, w in enumerate(words)
    )


@pytest.mark.parametrize("n", [8, 15, 16, 31])
def test_whole_word_pi_a_at_multi_digit_widths(n, k2_hits_8):
    # halves of 16, 30, 32 and 62 bits put each half and the whole word on
    # both sides of CPython's 30-bit digits; the table against the per-half
    # oracle, first_violation's verdict against the verdict read off the
    # table, on seeded random pairs that reach every branch
    rng = random.Random(n)
    length = 4 * n
    u = (1 << length) - 1
    pairs = []
    for _ in range(30):
        a = random_odd_halves(rng, n)
        b_star = kernels_py.derive_b_bits(a, n)
        mirrored = 1 << rng.randrange(length) | 1
        mirrored |= reverse_bits(mirrored, length)  # keeps b^2 = u
        pairs += [
            (rng.getrandbits(length), rng.getrandbits(length)),
            (a, rng.getrandbits(length)),
            (a, b_star),
            (a, b_star ^ u),
            (a, b_star ^ mirrored),
        ]
    codes = k2_hits_8[:4] + [double_code(c) for c in k2_hits_8[:4]]
    pairs += [(c.a_vec.bits, c.b_vec.bits) for c in codes if c.n == n]
    seen = set()
    for a, b in pairs:
        assert kernels_py.codeword_table(a, b, n) == _table_by_rot_halves(a, b, n)
        code = TypeQCode(n, BinaryWord(a, length), BinaryWord(b, length))
        found = kernels_py.first_violation(a, b, n)
        verdict = PASS if found is None else Verdict(False, *found)
        assert verdict == verify_hfp_on_table(code)
        seen.add(verdict.witness if verdict.failure == "RelationViolation"
                 else verdict.failure)
    # None is a pass: there are codes at n = 8 and 16, none at 15 and 31
    branches = {"a^{2n} != u", "b^2 != u", "b a != a^{-1} b", "WeightViolation"}
    assert seen == branches | ({None} if n in (8, 16) else set())
