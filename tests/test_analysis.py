from __future__ import annotations

import random

import pytest

from hfpq import kernels_py
from hfpq.analysis import (
    AnalysisReport,
    NotKernelElement,
    analyze,
    classify,
    compute_kernel,
    project_onto_support,
    rank_of_ints,
    span_rank,
)
from hfpq.core import BinaryWord, GroupTable, type_q_table
from hfpq.gf2poly import reverse_bits, rotl
from hfpq.typeq import (
    TypeQCode,
    all_codewords,
    codeword_ints,
    codeword_set,
    d1_in_coordinate_order,
    kappa_vector,
    verify_hadamard_group,
    verify_hfp,
)

from .conftest import GOLDEN_KAPPA
from .oracles import (
    canonical_perm,
    compute_rank,
    kernel_by_automorphism,
    poly_gcd_by_divmod,
    poly_mod,
    poly_mul_by_bit,
    rank_via_generators,
    rot_halves,
    verify_hfp_on_table,
)


def _linear_hadamard_length8() -> list[BinaryWord]:
    """First-order Reed-Muller words of length 8 (linear Hadamard code)."""
    gens = [0b11111111, 0b10101010, 0b11001100, 0b11110000]
    words = []
    for mask in range(16):
        w = 0
        for i in range(4):
            if (mask >> i) & 1:
                w ^= gens[i]
        words.append(BinaryWord(w, 8))
    return words


def test_rank_reference(golden):
    assert compute_rank(all_codewords(golden)) == 12


def test_rank_linear_length8():
    assert compute_rank(_linear_hadamard_length8()) == 4


def test_rank_mixed_lengths_rejected():
    with pytest.raises(ValueError):
        compute_rank([BinaryWord.zero(4), BinaryWord.zero(8)])


def test_kernel_reference(golden):
    dim, basis = compute_kernel(all_codewords(golden))
    assert dim == 2
    assert basis[0] == BinaryWord.all_ones(24)
    assert basis[1].to_string() == GOLDEN_KAPPA


def test_kernel_of_linear_code_is_code():
    words = _linear_hadamard_length8()
    dim, basis = compute_kernel(words)
    assert dim == 4
    assert basis[0] == BinaryWord.all_ones(8)


def test_kernel_requires_zero():
    with pytest.raises(ValueError):
        compute_kernel([BinaryWord.from_string("1100")])


def test_kernel_closed_under_xor(golden):
    from hfpq.analysis import kernel_ints
    from hfpq.typeq import codeword_ints

    kernel = kernel_ints(codeword_ints(golden))
    assert 0 in kernel
    assert (1 << 24) - 1 in kernel
    for z in kernel:
        for w in kernel:
            assert (z ^ w) in kernel


def test_kernel_oracle_equivalence(golden):
    assert kernel_by_automorphism(golden) == compute_kernel(all_codewords(golden))


def test_kernel_coset_property(golden):
    # c * K(C) = c + K(C) for every codeword c
    from hfpq.analysis import kernel_ints
    from hfpq.core import GroupElement
    from hfpq.typeq import codeword_ints

    n = golden.n
    words = codeword_ints(golden)
    kernel = kernel_ints(words)
    for c_bits in words:
        idx = words.index(c_bits)
        g = GroupElement(idx % (4 * n), idx >= 4 * n)
        pi = canonical_perm(g, n)
        left = {c_bits ^ pi.apply_bits(z) for z in kernel}
        right = {c_bits ^ z for z in kernel}
        assert left == right


def test_rank_via_generator_span(golden):
    assert rank_via_generators(golden) == 12


def test_verify_hfp_reference(golden):
    assert verify_hfp(golden).ok


def test_verify_hfp_tampered_weight(golden):
    bad_a = golden.a_vec ^ BinaryWord(1 << 2, 24)
    verdict = verify_hfp(TypeQCode(6, bad_a, golden.b_vec, None))
    assert not verdict.ok
    assert verdict.failure in ("WeightViolation", "RelationViolation")


def test_verify_hfp_finds_weight_witness():
    # distinct-but-wrong-weight words: weight violations carry the element
    a = BinaryWord.from_string("11101000")
    verdict = verify_hfp(TypeQCode(2, a, BinaryWord.from_string("01101000"), None))
    assert not verdict.ok


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_verify_hfp_agrees_with_scan_predicate(n):
    # verify_hfp reads a and b alone; the reference reads the same checks
    # off the 8n-word table.  Their whole Verdicts (ok, failure, witness)
    # agree: for n <= 2 on every (a, b) pair; for n = 3, 4 on every
    # even-weight a with its derived b; for n = 3 also on that b with one
    # bit flipped (b^2 fails) and with a mirrored pair flipped (b^2 holds,
    # so the b a = a^-1 b branch runs).  No permutation axiom ever decides
    # a verdict.
    length = 4 * n
    for a in range(1 << length):
        if n <= 2:
            bs = range(1 << length)
        elif a.bit_count() % 2:
            continue
        else:
            b = kernels_py.derive_b_bits(a, n)
            bs = [b]
            if n == 3:
                bs += [b ^ (1 << i) for i in range(length)]
                bs += [b ^ (1 << i) ^ (1 << (length - 1 - i)) for i in range(2 * n)]
        for b_bits in bs:
            code = TypeQCode(n, BinaryWord(a, length), BinaryWord(b_bits, length))
            assert verify_hfp(code) == verify_hfp_on_table(code)


def test_analyze_rank_matches_all_words(
    general_hits, general_hits_5, k2_hits, golden_chain
):
    # the rank from 4n words equals the rank of all 8n words
    codes = [c for n in (1, 2, 3, 4) for c in general_hits[n]] + general_hits_5
    codes += k2_hits[6] + [c for step in golden_chain for c in step]
    for code in codes:
        assert analyze(code).rank == rank_of_ints(codeword_ints(code))


def _assert_span_rank(a: int, b: int, n: int) -> None:
    # span_rank against elimination over the 4n words a, ..., a^(2n),
    # b, ..., a^(2n-1) b and over all 8n words of the table, for any (a, b)
    words = kernels_py.codeword_table(a, b, n)
    rank = rank_of_ints(words)
    assert rank_of_ints(words[1 : 2 * n + 1] + words[4 * n : 6 * n]) == rank
    assert span_rank(a, b, n) == rank, (a, b, n)


@pytest.mark.parametrize("n", [1, 2])
def test_span_rank_every_pair(n):
    for a in range(1 << (4 * n)):
        for b in range(1 << (4 * n)):
            _assert_span_rank(a, b, n)


def test_span_rank_fixture_codes(general_hits, general_hits_5, k2_hits, golden_chain):
    codes = [c for n in (1, 2, 3, 4) for c in general_hits[n]] + general_hits_5
    codes += k2_hits[6] + [c for step in golden_chain for c in step]
    for code in codes:
        _assert_span_rank(code.a_vec.bits, code.b_vec.bits, code.n)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 12, 24])
def test_span_rank_random_pairs(n):
    rng = random.Random(n)
    length = 4 * n
    u = (1 << length) - 1
    for _ in range(40 if n <= 8 else 10):
        a = rng.getrandbits(length)
        x_a = rot_halves(a, 2 * n, rng.randrange(2 * n))
        for b in (rng.getrandbits(length), 0, a, u, a ^ u, x_a):
            _assert_span_rank(a, b, n)
        _assert_span_rank(0, rng.getrandbits(length), n)
        h = rng.getrandbits(2 * n)
        _assert_span_rank(h | h << (2 * n), rng.getrandbits(length), n)
    _assert_span_rank(0, 0, n)


def _assert_norm_identity(a: int, n: int) -> None:
    # (x + 1)(a1 b2 + a2 b1) = N(a1) + N(a2) mod x^(2n) + 1, N(p) = p x rev(p),
    # for both b of an even-weight a, by the bitwise product and division
    half = 2 * n
    mask = (1 << half) - 1
    m = (1 << half) | 1
    a1, a2 = a & mask, a >> half
    norms = poly_mod(
        poly_mul_by_bit(a1, rotl(reverse_bits(a1, half), 1, half))
        ^ poly_mul_by_bit(a2, rotl(reverse_bits(a2, half), 1, half)),
        m,
    )
    b = kernels_py.derive_b_bits(a, n)
    for b1, b2 in ((b & mask, b >> half), (b & mask ^ mask, b >> half ^ mask)):
        minor = poly_mul_by_bit(a1, b2) ^ poly_mul_by_bit(a2, b1)
        assert poly_mod(poly_mul_by_bit(0b11, minor), m) == norms, (a, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_norm_identity_every_even_weight_a(n):
    for a in range(1 << (4 * n)):
        if not a.bit_count() & 1:
            _assert_norm_identity(a, n)


@pytest.mark.parametrize("n", [4, 5, 6, 8, 12, 24, 48, 96])
def test_norm_identity_random_a(n):
    rng = random.Random(n)
    for _ in range(20):
        a = rng.getrandbits(4 * n)
        _assert_norm_identity(a ^ a.bit_count() & 1, n)


def _halves_gcd(a: int, b: int, n: int) -> int:
    # gcd(a1, a2, b1, b2, x^(2n) + 1), by the division oracle
    half = 2 * n
    mask = (1 << half) - 1
    g = (1 << half) | 1
    for p in (a & mask, a >> half, b & mask, b >> half):
        g = poly_gcd_by_divmod(g, p)
    return g


@pytest.mark.parametrize("n", [96, 192])
def test_span_rank_at_chain_sizes(n):
    # lengths 384 and 768 (field width 3), both branches: random pairs with
    # gcd 1, where the minor is folded mod x^(2n) + 1, and the same pairs
    # with every half times x^2 + x + 1, a factor of x^(2n) + 1 since 3
    # divides 2n, so that the gcd is not 1
    rng = random.Random(n)
    half = 2 * n
    mask = (1 << half) - 1
    m = (1 << half) | 1

    def times_factor(w: int) -> int:
        lo, hi = (poly_mod(poly_mul_by_bit(h, 0b111), m) for h in (w & mask, w >> half))
        return lo | hi << half

    pairs = 0
    while pairs < 3:
        a, b = rng.getrandbits(4 * n), rng.getrandbits(4 * n)
        if _halves_gcd(a, b, n) != 1:
            continue
        pairs += 1
        a3, b3 = times_factor(a), times_factor(b)
        assert _halves_gcd(a3, b3, n) not in (0, 1)
        for x, y in ((a, b), (a3, b3)):
            words = kernels_py.codeword_table(x, y, n)
            rank = rank_of_ints(words[1 : 2 * n + 1] + words[4 * n : 6 * n])
            assert span_rank(x, y, n) == rank, (x, y, n)


def test_verify_hadamard_group_reference(golden):
    table = type_q_table(golden.n)
    d1 = d1_in_coordinate_order(golden)
    assert verify_hadamard_group(table, d1, 12).ok
    inv = [table.inv(i) for i in d1]
    assert verify_hadamard_group(table, inv, 12).ok


def test_verify_hadamard_group_bad_subset(golden):
    table = type_q_table(golden.n)
    verdict = verify_hadamard_group(table, list(range(24)), 12)
    assert not verdict.ok
    assert verdict.failure in (
        "IntersectionViolation",
        "DisjointnessViolation",
        "TransversalViolation",
        "CoverViolation",
    )


def test_verify_hadamard_group_bad_involution(golden):
    table = type_q_table(golden.n)
    verdict = verify_hadamard_group(table, d1_in_coordinate_order(golden), 1)
    assert not verdict.ok


def test_projection_reference(golden):
    proj = project_onto_support(all_codewords(golden), kappa_vector(11, 6))
    assert len(proj) == 24
    dists = {(a ^ b).weight for a in proj for b in proj if a != b}
    assert dists == {6, 12}


def test_projection_rejects_u(golden):
    with pytest.raises(ValueError):
        project_onto_support(all_codewords(golden), BinaryWord.all_ones(24))


def test_projection_rejects_non_kernel(golden):
    s = BinaryWord.from_string("1" * 12 + "0" * 12)
    with pytest.raises(NotKernelElement):
        project_onto_support(all_codewords(golden), s)


def test_analyze_reference(golden):
    rep = analyze(golden)
    assert (rep.length, rep.s, rep.n_prime) == (24, 3, 3)
    assert (rep.rank, rep.kernel_dim) == (12, 2)
    assert rep.is_hfp and not rep.is_linear
    assert rep.bound_violations == ()
    assert rep.a_in_kernel is False


def test_classify_flags_fabricated_report(golden):
    rep = analyze(golden)
    bad = rep._replace(kernel_dim=3)
    assert any("kernel dimension 3" in v for v in classify(bad))
    bad_rank = rep._replace(rank=13)
    assert classify(bad_rank)
    bad_linear = rep._replace(is_linear=True)
    assert classify(bad_linear)
    assert classify(rep._replace(a_in_kernel=True))


def test_classify_linear_branch():
    words = _linear_hadamard_length8()
    rep = AnalysisReport(
        length=8,
        s=3,
        n_prime=1,
        rank=compute_rank(words),
        kernel_dim=compute_kernel(words)[0],
        kernel_basis=(),
        is_linear=True,
        is_hfp=True,
        bound_violations=(),
    )
    assert classify(rep) == ()


def test_group_table_validation():
    with pytest.raises(ValueError):
        GroupTable(((0, 1), (1,)), identity=0)
