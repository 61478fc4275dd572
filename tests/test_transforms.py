from __future__ import annotations

import random
import re

import pytest

from hfpq import kernels, transforms, typeq
from hfpq.analysis import (
    IndexingInconsistency,
    analyze,
    code_iota,
    compute_kernel,
    kernel_from_iota,
    span_rank,
    structured_iota,
)
from hfpq.core import BinaryWord
from hfpq.gf2poly import (
    X_PLUS_1,
    modulus_poly,
    poly_divmod,
    poly_gcd,
    poly_mul,
    reverse_bits,
    rotl,
)
from hfpq.search import _structured
from hfpq.transforms import (
    double_code,
    double_gcd_check,
    doubled_criterion_operand,
    rank_criterion_operand,
    rank_gcd_criterion,
    transpose_code,
)
from hfpq.typeq import (
    TypeQCode,
    VerificationError,
    all_codewords,
    build_matrix,
    codeword_ints,
    codeword_set,
    kappa_vector,
    make_code,
    verify_hfp,
)

from .oracles import (
    column,
    column_code,
    flip_rows,
    flipped_columns,
    kernel_iota,
    random_odd_halves,
    squared_factorization,
    table_rows,
    transpose_relabel,
    transposed_rows,
)


def _kappa1(code: TypeQCode) -> int:
    return kappa_vector(code.iota, code.n).bits & ((1 << (2 * code.n)) - 1)


def _a1(code: TypeQCode) -> int:
    return code.a_vec.bits & ((1 << (2 * code.n)) - 1)


def test_transpose_reference(golden):
    t = transpose_code(golden)
    rep = analyze(t)
    assert rep.rank == 12
    assert rep.kernel_dim == 1
    assert t.iota is None


def test_transpose_involution(golden, general_hits, k2_hits):
    # the golden code, every general hit of length <= 16 and every k2 hit at 16
    codes = [golden] + [c for n in (1, 2, 3, 4) for c in general_hits[n]]
    for code in codes + k2_hits[4]:
        t = transpose_code(code)
        assert codeword_set(transpose_code(t)) == codeword_set(code)


def _relabel_by_bit(word: int, n: int) -> int:
    half = 2 * n
    out = word & 1
    for p in range(1, half):
        out |= ((word >> (half - p)) & 1) << p
    return out | (word & (((1 << half) - 1) << half))


def test_transpose_relabel_matches_bitwise_reference():
    # exhaustive up to 12 bits (and one bit beyond), then random words of
    # up to 768 bits with junk above bit 4n
    for n in (1, 2, 3):
        for word in range(1 << (4 * n + 1)):
            assert transpose_relabel(word, n) == _relabel_by_bit(word, n)
    rng = random.Random(7)
    for n in (4, 5, 6, 24, 96, 192):
        for _ in range(20):
            word = rng.getrandbits(4 * n + rng.randrange(8))
            assert transpose_relabel(word, n) == _relabel_by_bit(word, n)


def test_transpose_columns_are_the_relabelled_columns(golden, golden_chain):
    # rows taken as e, a, ..., a^(2n-1), ab, ... give the columns of H in
    # canonical coordinate order, as relabelling each column did, at every
    # length of the chain (24 to 768)
    for code in [golden] + [doubled for doubled, _ in golden_chain]:
        columns = transposed_rows(build_matrix(code))
        relabelled = tuple(transpose_relabel(c, code.n) for c in columns)
        assert flipped_columns(code) == relabelled


@pytest.fixture(scope="module")
def column_oracle_codes(golden, golden_chain, general_hits, general_hits_5,
                        general_hits_6, k2_hits_8):
    """The golden chain to length 1536, search_general(n <= 6), search_k2(8)."""
    chain = [golden] + [doubled for doubled, _ in golden_chain]
    chain.append(double_code(chain[-1]))
    assert chain[-1].length == 1536
    codes = chain + [c for n in (1, 2, 3, 4) for c in general_hits[n]]
    return codes + general_hits_5 + general_hits_6 + k2_hits_8


def test_transpose_words_are_the_columns(column_oracle_codes):
    # the O(L^2) comparison transpose_code's two-column proof replaces:
    # 8n words of the transpose = all 4n columns of H and their complements
    for code in column_oracle_codes:
        assert codeword_set(transpose_code(code)) == column_code(code)


def test_transpose_two_column_lemma(column_oracle_codes):
    # column 1 of the flipped matrix is a', column 4n-1 is b' (b' + u is
    # also allowed, but both have bit 0 clear, so it is always b')
    for code in column_oracle_codes:
        cols = flipped_columns(code)
        t = transpose_code(code)
        assert cols[1] == t.a_vec.bits
        assert cols[code.length - 1] == t.b_vec.bits


def test_transpose_catches_the_unflipped_row_order(golden, general_hits, k2_hits,
                                                   monkeypatch):
    # H's rows in their own order give a column 1 that still verifies at
    # every one of these codes, but then column 4n-1 is not its b: only
    # the b-column test raises
    def unflipped(a, b, n):
        length = 4 * n
        code = TypeQCode(n, BinaryWord(a, length), BinaryWord(b, length))
        columns = transposed_rows(build_matrix(code))
        return columns[1], columns[length - 1]

    monkeypatch.setattr(transforms, "_transposed_generators", unflipped)
    for code in [golden] + general_hits[4] + k2_hits[4]:
        with pytest.raises(IndexingInconsistency, match="column 4n-1"):
            transpose_code(code)


def _raises_inconsistency(transform, code) -> str:
    with pytest.raises(IndexingInconsistency) as info:
        transform(code)
    return str(info.value)


def test_transpose_rejects_a_generator_without_b(golden, monkeypatch):
    # an odd-weight column 1 has no b
    monkeypatch.setattr(transforms, "_transposed_generators", lambda a, b, n: (1, 0))
    assert _raises_inconsistency(transpose_code, golden) == (
        "transpose generator rejected: a has odd weight, so division by x+1 is"
        " not exact"
    )


def test_transpose_output_must_verify(golden, monkeypatch):
    # column 1 = 0b11 has a b, but both halves are even: a^(2n) != u
    monkeypatch.setattr(transforms, "_transposed_generators", lambda a, b, n: (3, 0))
    assert _raises_inconsistency(transpose_code, golden) == (
        "transpose failed verification: RelationViolation"
    )


def test_double_output_must_verify(golden, monkeypatch):
    # interleaving a with 0 instead of kappa halves the weight: wt(A) = 2n
    # at length 8n
    monkeypatch.setattr(transforms, "kappa_vector",
                        lambda iota, n: BinaryWord(0, 4 * n))
    assert _raises_inconsistency(double_code, golden) == (
        "doubled code failed: WeightViolation"
    )


def test_double_output_exponent_must_be_2_iota(golden, monkeypatch):
    # the output's iota read off as one more than 2 iota; the input's as is
    real = transforms.structured_iota

    def shifted(a, n):
        iota = real(a, n)
        return iota if n == golden.n else (iota + 1) % (2 * n)

    monkeypatch.setattr(transforms, "structured_iota", shifted)
    assert _raises_inconsistency(double_code, golden) == (
        "doubled kernel exponent is not 2 iota"
    )


def _table_columns(a: int, b: int, n: int) -> tuple[int, int]:
    # columns 1 and 4n-1 of the matrix rows read off the word table in
    # d1_in_coordinate_order, flipped as the transpose takes them; no
    # verification, so any pair (a, b) has them
    length = 4 * n
    code = TypeQCode(n, BinaryWord(a, length), BinaryWord(b, length))
    rows = flip_rows(table_rows(code), n)
    return column(rows, 1), column(rows, length - 1)


def _odd_halves(n: int) -> list[int]:
    half = 2 * n
    odd = [h for h in range(1 << half) if h.bit_count() & 1]
    return [a1 | a2 << half for a2 in odd for a1 in odd]


def test_transposed_generators_on_codes(column_oracle_codes):
    # the closed form against the matrix's flipped columns on every code the
    # transpose tests use
    for code in column_oracle_codes:
        cols = flipped_columns(code)
        assert transforms._transposed_generators(
            code.a_vec.bits, code.b_vec.bits, code.n
        ) == (cols[1], cols[code.length - 1])


def test_transposed_generators_on_every_odd_pair():
    # every (a, b) at n <= 2 with both halves of a odd (64 + 16,384 pairs),
    # codes or not: a^(2n) = u is all the closed form needs
    for n in (1, 2):
        for a in _odd_halves(n):
            for b in range(1 << (4 * n)):
                assert transforms._transposed_generators(a, b, n) == _table_columns(
                    a, b, n
                )


def test_transposed_generators_need_odd_halves():
    # with a half of a even, w(a^(i+2n)) is not the complement of w(a^i), the
    # table's rows are not normalized, and the closed form reads other columns
    n = 2
    odd = set(_odd_halves(n))
    mismatches = sum(
        transforms._transposed_generators(a, b, n) != _table_columns(a, b, n)
        for a in range(1 << (4 * n))
        if a not in odd
        for b in range(0, 1 << (4 * n), 17)
    )
    assert mismatches > 0


def test_transposed_generators_on_random_odd_pairs():
    rng = random.Random(24)
    for n in range(3, 13):
        for _ in range(40):
            a = random_odd_halves(rng, n)
            b = rng.getrandbits(4 * n)
            assert transforms._transposed_generators(a, b, n) == _table_columns(
                a, b, n
            )


def _unverified(golden):
    # one bit of a flipped (a^(2n) != u), one bit of b flipped (b^2 != u),
    # and the mirrored bits 11 and 12 of b flipped, which keeps b^2 = u
    # (b a != a^-1 b)
    length = golden.length
    return [
        golden._replace(a_vec=BinaryWord(golden.a_vec.bits ^ 1 << 5, length)),
        golden._replace(b_vec=BinaryWord(golden.b_vec.bits ^ 1 << 3, length)),
        golden._replace(b_vec=BinaryWord(golden.b_vec.bits ^ 0b11 << 11, length)),
    ]


@pytest.mark.parametrize("transform", [transpose_code, double_code])
def test_transforms_reject_unverified_codes(golden, transform):
    failures = set()
    for code in _unverified(golden):
        verdict = verify_hfp(code)
        assert not verdict.ok
        failures.add(verdict.witness)
        with pytest.raises(VerificationError) as info:
            transform(code)
        assert str(info.value) == f"{verdict.failure}: {verdict.witness}"
    assert len(failures) == 3


def test_f5_on_golden_chain(golden, golden_chain):
    # every doubled and transposed code up to length 768: iota and kernel
    # read off a agree with kernel_ints over the word table
    codes = [golden] + [code for step in golden_chain for code in step]
    for code in codes:
        n = code.n
        kernel, iota = kernel_iota(codeword_ints(code), n)
        assert structured_iota(code.a_vec.bits, n) == iota == code.iota
        assert sorted(kernel_from_iota(iota, n)) == kernel
    assert [c.iota for c in codes] == [11, 22, None, 44, None, 88, None, 176, None,
                                       352, None]


def test_transpose_kills_kernel_dimension(k2_hits):
    # every kernel-dimension-2 hit at length 16; a quarter of those at 24
    for code in k2_hits[4] + k2_hits[6][::4]:
        rep = analyze(transpose_code(code))
        assert rep.kernel_dim == 1
        assert rep.is_hfp


def test_infer_iota(golden):
    code = TypeQCode(6, golden.a_vec, golden.b_vec, None)
    assert kernel_iota(codeword_ints(code), 6)[1] == 11


def test_double_reference(golden):
    d = double_code(golden)
    assert d.n == 12
    assert d.iota == 22
    rep = analyze(d)
    assert rep.length == 48
    assert rep.rank == 24
    assert rep.kernel_dim == 2
    assert rep.is_hfp
    assert rep.bound_violations == ()


def test_double_kernel_pattern(golden):
    d = double_code(golden)
    dim, basis = compute_kernel(all_codewords(d))
    assert dim == 2
    assert basis[1] == kappa_vector(d.iota, d.n)
    half = "01" * 12
    assert basis[1].to_string() == half + half  # alternating word in both halves


def _doubled_by_bit(a: int, kappa: int, n: int) -> int:
    """A_h = a_h(x^2) + x kappa_h(x^2) per half, one bit at a time."""
    half = 2 * n
    out = 0
    for h in (0, 1):
        for i in range(half):
            out |= ((a >> (h * half + i)) & 1) << (2 * h * half + 2 * i)
            out |= ((kappa >> (h * half + i)) & 1) << (2 * h * half + 2 * i + 1)
    return out


def test_doubled_generator_bit_by_bit(golden, golden_chain, k2_hits, k2_hits_8):
    # bit 2i of each new half is bit i of a_h, bit 2i+1 is bit i of kappa_h:
    # every code of search_k2(4), (6) and (8), and the golden chain to 768
    pairs = [(c, double_code(c)) for c in k2_hits[4] + k2_hits[6] + k2_hits_8]
    sources = [golden] + [doubled for doubled, _ in golden_chain]
    pairs += list(zip(sources, sources[1:]))
    assert pairs[-1][1].length == 768
    for code, doubled in pairs:
        kappa = kappa_vector(code.iota, code.n).bits
        assert doubled.a_vec.bits == _doubled_by_bit(code.a_vec.bits, kappa, code.n)


def test_double_then_transpose(golden):
    td = transpose_code(double_code(golden))
    rep = analyze(td)
    assert rep.kernel_dim == 1
    assert rep.rank == 24


def test_double_requires_kernel_dimension_two(golden):
    t = transpose_code(golden)  # kernel dimension 1
    with pytest.raises(ValueError):
        double_code(t)


def test_double_rejects_iota_of_the_wrong_exponent():
    # kernel exponent 7; iota=3 has the same parity, so the kappa pattern
    # alone does not tell them apart
    a = BinaryWord.from_string("0000101100101111")
    assert kernel_iota(codeword_ints(make_code(4, a)), 4)[1] == 7
    assert double_code(make_code(4, a, iota=7)).iota == 14
    with pytest.raises(ValueError):
        double_code(make_code(4, a, iota=3))


def test_double_small_hits_kernel_exponent_doubles(k2_hits):
    for code in k2_hits[4][:16]:
        d = double_code(code)
        assert d.iota == 2 * code.iota
        assert analyze(d).kernel_dim == 2


def test_double_doubles_the_rank(golden, golden_chain, k2_hits, k2_hits_8):
    # every code of search_k2(4), (6) and (8), and the golden chain to
    # 768, doubles to k = 2 and exactly twice its rank.  All of them have
    # the maximal rank 2n, where the paper proves it; the non-maximal ranks
    # first occur at length 48 (test_double_doubles_non_maximal_ranks)
    sources = [golden] + [doubled for doubled, _ in golden_chain]
    for code in k2_hits[4] + k2_hits[6] + k2_hits_8 + sources:
        rank = analyze(code).rank
        assert rank == 2 * code.n
        doubled = analyze(double_code(code))
        assert doubled.kernel_dim == 2
        assert doubled.rank == 2 * rank


# the first candidate of search._structured(12) at each rank, all at iota 0
FIRST_K2_OF_RANK_48 = {
    18: "100100110101000100000000011111111011101010011011",
    20: "100110101000100100000000011111111011011101010011",
    22: "101011010111000100000000011111111011100010100101",
    24: "110101010001000100000000011111111011101110101010",
}


def test_double_doubles_non_maximal_ranks():
    # length 48 is the first length past 32 with ranks below 2n; the double
    # of each rank's first structured candidate has k = 2 and twice its rank
    first = {}
    for _, a_bits, b_bits in _structured(12):
        rank = span_rank(a_bits, b_bits, 12)
        first.setdefault(rank, BinaryWord(a_bits, 48).to_string())
        if len(first) == len(FIRST_K2_OF_RANK_48):
            break
    assert first == FIRST_K2_OF_RANK_48
    for rank, a_string in FIRST_K2_OF_RANK_48.items():
        code = make_code(12, BinaryWord.from_string(a_string), 0)
        report = analyze(code)
        assert (report.rank, report.kernel_dim) == (rank, 2)
        doubled = analyze(double_code(code))
        assert doubled.kernel_dim == 2
        assert doubled.rank == 2 * rank


def _count_tables(monkeypatch) -> list[int]:
    # every word table a code gets goes through typeq's cache into
    # kernels.codeword_table; cleared, so a cached table hides no call
    typeq._codeword_ints.cache_clear()
    calls = []
    original = kernels.codeword_table

    def counted(a, b, n):
        calls.append(1)
        return original(a, b, n)

    monkeypatch.setattr(kernels, "codeword_table", counted)
    return calls


def test_verified_codes_build_no_word_table(golden, k2_hits_8, monkeypatch):
    # verify_hfp reads a and b alone, and the transpose reads its two columns
    # off a and b, so the paths of a verified code with n >= 3 build no table
    calls = _count_tables(monkeypatch)
    for code in (golden, k2_hits_8[0]):
        for step in (verify_hfp, analyze, code_iota, double_code, transpose_code):
            step(code)
            assert calls == [], step


def test_rank_criterion_reference(golden):
    a1 = _a1(golden)
    op = rank_criterion_operand(a1, 11, 6)
    assert op == BinaryWord.from_string("101001100101").bits  # 1+x^2+x^5+x^6+x^9+x^11
    assert rank_gcd_criterion(a1, 11, 6) is True
    assert analyze(golden).rank == 12


def test_rank_criterion_monomial():
    # a1 = 1 with iota = 2n-1: operand 1 + x^(2n-1), gcd x+1
    n = 4
    assert rank_gcd_criterion(1, 2 * n - 1, n) is True


def test_rank_criterion_square_factor_fails():
    # operand divisible by (x+1)^2 cannot pass
    n = 3
    a1 = 0b111  # 1 + x + x^2, weight 3, odd
    found_false = False
    for iota in range(2 * n):
        op = rank_criterion_operand(a1, iota, n)
        g = poly_gcd(op, modulus_poly(2 * n))
        if poly_divmod(g, poly_mul(X_PLUS_1, X_PLUS_1))[1] == 0:
            found_false = True
            assert rank_gcd_criterion(a1, iota, n) is False
    assert found_false


def test_rank_criterion_rejects_even_weight():
    with pytest.raises(ValueError):
        rank_gcd_criterion(0b11, 0, 2)


def test_rank_criterion_soundness_over_hits(k2_hits):
    for n, hits in k2_hits.items():
        for code in hits:
            if rank_gcd_criterion(_a1(code), code.iota, code.n):
                assert analyze(code).rank == 2 * code.n


def test_squared_factorization_identity_random():
    rng = random.Random(97)
    for _ in range(500):
        n = rng.randint(2, 6)
        half = 2 * n
        a1 = rng.randrange(1 << half)
        k1 = rng.randrange(1 << half)
        iota = rng.randrange(half)
        assert doubled_criterion_operand(a1, k1, iota, n) == squared_factorization(
            a1, k1, iota, n
        )


def test_kappa_self_pairing_identity():
    # kappa1 + x^iota phi1(kappa1) is 0 for odd iota and u for even iota
    for n in (2, 3, 6):
        half = 2 * n
        v = sum(1 << i for i in range(1, half, 2))
        for iota in range(half):
            t = v ^ rotl(reverse_bits(v, half), iota, half)
            assert t == (0 if iota % 2 else (1 << half) - 1)


def test_double_gcd_check_reference(golden):
    chk = double_gcd_check(_a1(golden), _kappa1(golden), 11, 6)
    assert chk.gcd_small == X_PLUS_1
    assert chk.gcd_big == poly_mul(X_PLUS_1, X_PLUS_1)
    assert chk.implication_holds
    # big side is exactly the doubled code's own criterion operand
    d = double_code(golden)
    assert doubled_criterion_operand(_a1(golden), _kappa1(golden), 11, 6) == (
        rank_criterion_operand(_a1(d), d.iota, d.n)
    )


def test_double_gcd_check_over_hits(k2_hits):
    for n in (4, 6):
        for code in k2_hits[n]:
            chk = double_gcd_check(_a1(code), _kappa1(code), code.iota, code.n)
            assert chk.implication_holds


def test_double_chain_through_word_size_boundary(k2_hits):
    # doubling chains: length 16 -> 32 -> 64 (uint64 edge) -> 128 (pure ints)
    code = k2_hits[4][0]
    expected_rank = 2 * code.n
    for _ in range(3):
        doubled = double_code(code)
        assert doubled.n == 2 * code.n
        assert doubled.iota == 2 * code.iota
        rep = analyze(doubled)
        expected_rank *= 2
        assert rep.is_hfp
        assert rep.kernel_dim == 2
        assert rep.rank == expected_rank
        assert rep.bound_violations == ()
        code = doubled
    assert code.length == 128


def test_double_gcd_exhaustive_small():
    # all odd-weight a1 and all iota at n=2: implication never violated
    n = 2
    half = 2 * n
    v = sum(1 << i for i in range(1, half, 2))
    for a1_bits in range(1 << half):
        if a1_bits.bit_count() % 2 == 0:
            continue
        for iota in range(half):
            for k1 in (v, v ^ ((1 << half) - 1)):
                chk = double_gcd_check(a1_bits, k1, iota, n)
                assert chk.implication_holds
