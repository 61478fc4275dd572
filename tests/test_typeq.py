from __future__ import annotations

import random

import pytest

from hfpq import kernels, typeq
from hfpq.core import BinaryWord, GroupElement, type_q_table
from hfpq.gf2poly import Gf2Poly, reverse_bits, rotl
from hfpq.typeq import (
    PASS,
    HadamardMatrixQ,
    NotHadamardGroup,
    NotTypeQCandidate,
    TypeQCode,
    Verdict,
    VerificationError,
    all_codewords,
    build_matrix,
    codeword_ints,
    codeword_set,
    construct_from_group,
    d1_in_coordinate_order,
    derive_a2,
    derive_b,
    kappa_vector,
    make_code,
    verify_hfp,
)

from .conftest import GOLDEN_A, GOLDEN_B, GOLDEN_KAPPA
from .oracles import (
    Perm,
    apply_perm,
    canonical_perm,
    d1_elements,
    element_vector,
    kappa_by_sum,
    matrix_entry,
    prop_mul,
    random_odd_halves,
    transposed_rows,
)


def test_derive_b_reference(golden):
    derived = derive_b(golden.a_vec, 6)
    assert derived.to_string() == GOLDEN_B


def test_derive_b_zero_dividend():
    # a1 = x phi1(a2) makes both dividends vanish: b halves are 0 or u
    a2 = BinaryWord.from_string("1011").bits
    a1 = rotl(reverse_bits(a2, 4), 1, 4)
    a = BinaryWord(a1 | (a2 << 4), 8)
    b = derive_b(a, 2)
    assert (b.bits & 0b1111) in (0, 0b1111)
    assert (b.bits >> 4) in (0, 0b1111)


def test_derive_b_odd_weight_rejected():
    with pytest.raises(NotTypeQCandidate):
        derive_b(BinaryWord.from_string("10000000"), 2)


def _poly(s: str) -> Gf2Poly:
    """Residue from a 0/1 string, leftmost character = constant term."""
    return Gf2Poly(BinaryWord.from_string(s).bits, len(s))


def test_derive_a2_reference():
    assert derive_a2(_poly("111111011010"), 11, 6) == _poly("101001000000")


def test_derive_a2_monomial():
    # a1 = 1: phi1(1) = x^(2n-1), so a2 = x^iota + u
    n = 3
    for iota in range(2 * n):
        a2 = derive_a2(Gf2Poly(1, 2 * n), iota, n)
        assert a2 == Gf2Poly((1 << iota) ^ ((1 << (2 * n)) - 1), 2 * n)


def test_derive_a2_paired_relation_is_involutive():
    import random

    rng = random.Random(41)
    for _ in range(100):
        n = rng.choice((2, 3, 6))
        iota = rng.randrange(2 * n)
        a1 = Gf2Poly(rng.randrange(1 << (2 * n)), 2 * n)
        a2 = derive_a2(a1, iota, n)
        assert derive_a2(a2, iota, n) == a1


def test_kappa_vector_patterns():
    assert kappa_vector(0, 2).to_string() == "01010101"
    assert kappa_vector(1, 2).to_string() == "01011010"
    assert kappa_vector(11, 6).to_string() == GOLDEN_KAPPA


def test_kappa_vector_range():
    with pytest.raises(ValueError):
        kappa_vector(12, 6)


def test_kappa_vector_against_sum():
    for n in range(1, 65):
        for iota in range(2 * n):
            assert kappa_vector(iota, n) == kappa_by_sum(iota, n)


def _fresh_verdict(code: TypeQCode) -> Verdict:
    found = kernels.first_violation(code.a_vec.bits, code.b_vec.bits, code.n)
    return PASS if found is None else Verdict(False, *found)


def _memo_codes(golden: TypeQCode) -> list[TypeQCode]:
    """Passing and failing pairs: the golden a with b and broken b's, then
    random pairs with odd halves and derived b, which fail the weights."""
    n, a = golden.n, golden.a_vec
    u = (1 << golden.length) - 1
    codes = []
    for flip in (0, 1, 0, 1 << 5, u, 1 << 17, 0):
        codes.append(TypeQCode(n, a, BinaryWord(golden.b_vec.bits ^ flip, 4 * n)))
    rng = random.Random(53)
    while len(codes) < 14:
        bits = random_odd_halves(rng, n)
        b = kernels.derive_b_bits(bits, n)
        if b is not None:
            codes.append(TypeQCode(n, BinaryWord(bits, 4 * n), BinaryWord(b, 4 * n)))
    return codes


def test_verdict_memo_equals_fresh_verdict(golden):
    assert typeq._verdict.cache_info().maxsize == 4
    typeq._verdict.cache_clear()
    codes = _memo_codes(golden)
    seen = set()
    # the same a with passing and failing b in turn, then more codes than
    # the memo holds, then every code asked again after its eviction
    for code in codes + codes[::-1] + codes:
        verdict = verify_hfp(code)
        assert verdict == _fresh_verdict(code), code
        seen.add(verdict.failure)
        for iota in (None, 0, 2 * code.n - 1):
            assert verify_hfp(code._replace(iota=iota)) == verdict
    assert seen == {None, "RelationViolation", "WeightViolation"}
    info = typeq._verdict.cache_info()
    assert info.currsize == 4 and info.misses > len(codes)


def test_word_table_cache_holds_one_table(golden, golden_chain):
    # a table is shared within one code only, so the cache pins no other
    typeq._codeword_ints.cache_clear()
    build_matrix(golden)
    build_matrix(golden_chain[0][0])
    info = typeq._codeword_ints.cache_info()
    assert (info.maxsize, info.currsize, info.misses) == (1, 1, 2)


def test_element_vector_special_elements(golden):
    assert element_vector(GroupElement(0, False), golden) == BinaryWord.zero(24)
    assert element_vector(GroupElement(12, False), golden) == BinaryWord.all_ones(24)
    kv = element_vector(GroupElement(11, True), golden)
    rep = kv if kv.bit(1) == 0 else kv.complement()
    assert rep.to_string() == GOLDEN_KAPPA


def test_element_vector_matches_iterated_product(golden):
    # independent route: fold the propelinear product with explicit perms
    n = golden.n
    words = codeword_ints(golden)
    acc = BinaryWord.zero(24)
    for i in range(4 * n):
        assert acc.bits == words[i]
        acc = prop_mul(golden.a_vec, canonical_perm(GroupElement(1, False), n), acc)
    acc = BinaryWord.zero(24)
    b = golden.b_vec
    for i in range(4 * n):
        lhs = prop_mul(
            BinaryWord(words[i], 24), canonical_perm(GroupElement(i, False), n), b
        )
        assert lhs.bits == words[4 * n + i]


def test_generator_orders_as_words(golden):
    words = codeword_ints(golden)
    assert len(set(words[:24])) == 24  # a has order 4n
    b = BinaryWord(words[24], 24)
    bb = prop_mul(b, canonical_perm(GroupElement(0, True), 6), b)
    assert bb == BinaryWord.all_ones(24)  # b^2 = u, so b has order 4


def test_rotated_diagonal_never_fixes_a_power_n(golden):
    # pi_a^h(a^n) != a^n for every divisor h of n
    n = golden.n
    vec_an = element_vector(GroupElement(n, False), golden)
    pa = canonical_perm(GroupElement(1, False), n)
    for h in (1, 2, 3, 6):
        img = vec_an
        for _ in range(h):
            img = apply_perm(pa, img)
        assert img != vec_an


def _matrix_codes(golden, golden_chain, general_hits, k2_hits):
    """The golden code, its chain to length 192, search_general(4), search_k2(6)."""
    chain = [code for step in golden_chain[:3] for code in step]
    return [golden] + chain + general_hits[4] + k2_hits[6]


def test_coordinate_indexing_equation(golden, golden_chain, general_hits, k2_hits):
    # position i is indexed by the unique x in D1 with e_1 = pi_x(e_i)
    for code in _matrix_codes(golden, golden_chain, general_hits, k2_hits):
        for i, x in enumerate(d1_elements(code)):
            assert canonical_perm(x, code.n).images[i] == 0
            assert element_vector(x, code).bit(1) == 0


def test_build_matrix_normalized_and_equidistant(golden):
    H = build_matrix(golden)
    assert H.order == 24
    assert H.rows[0] == 0
    assert all((r & 1) == 0 for r in H.rows)
    words = H.row_words()
    for i in range(24):
        for j in range(i + 1, 24):
            assert (words[i] ^ words[j]).weight == 12


def test_build_matrix_requires_verification(golden):
    bad = TypeQCode(6, golden.a_vec ^ BinaryWord(1 << 1, 24), golden.b_vec, None)
    with pytest.raises(VerificationError):
        build_matrix(bad)


def test_complemented_generator_gives_same_code(golden):
    # a*u generates the same codeword set (a valid alternative generator)
    alt = TypeQCode(6, golden.a_vec.complement(), derive_b(golden.a_vec.complement(), 6))
    assert codeword_set(alt) == codeword_set(golden)


def test_matrix_entry_matches_matrix(golden, golden_chain, general_hits, k2_hits):
    # rows read off the word table against the gamma oracle entry by entry:
    # every code of search_general(4) and search_k2(6), and the golden
    # chain to length 192
    for code in _matrix_codes(golden, golden_chain, general_hits, k2_hits):
        H = build_matrix(code)
        labels = d1_elements(code)
        for row, x in zip(H.rows, labels):
            assert [(row >> j) & 1 for j in range(H.order)] == [
                matrix_entry(x, y, code) for y in labels
            ]


def test_matrix_entry_normalization(golden):
    e = GroupElement(0, False)
    for g in (GroupElement(5, False), GroupElement(3, True)):
        assert matrix_entry(e, g, golden) == 0
        assert matrix_entry(g, e, golden) == 0


def test_transpose_of_matrix_is_hadamard(golden):
    H = build_matrix(golden)
    cols = [BinaryWord(c, 24) for c in transposed_rows(H)]
    for i in range(24):
        for j in range(i + 1, 24):
            assert (cols[i] ^ cols[j]).weight == 12


def _columns_by_bit(rows: tuple[int, ...]) -> tuple[int, ...]:
    cols = []
    for j in range(len(rows)):
        col = 0
        for i, row in enumerate(rows):
            col |= ((row >> j) & 1) << i
        cols.append(col)
    return tuple(cols)


def test_transposed_rows_matches_bitwise_reference(golden, golden_chain):
    rng = random.Random(3)
    for order in range(1, 71):
        rows = tuple(rng.getrandbits(order) for _ in range(order))
        assert transposed_rows(HadamardMatrixQ(order, rows)) == _columns_by_bit(rows)
    for code in [golden] + [doubled for doubled, _ in golden_chain]:
        H = build_matrix(code)
        assert transposed_rows(H) == _columns_by_bit(H.rows)


def test_construct_from_group_round_trip(golden):
    table = type_q_table(golden.n)
    built = construct_from_group(table, d1_in_coordinate_order(golden), 12)
    assert built.words == codeword_set(golden)
    assert built.rows == build_matrix(golden).rows
    assert built.word(0) == BinaryWord.zero(24)
    assert built.word(12) == BinaryWord.all_ones(24)


def test_construct_from_group_propelinear(golden):
    table = type_q_table(golden.n)
    built = construct_from_group(table, d1_in_coordinate_order(golden), 12)
    order = table.order
    for g in range(order):
        pg = Perm(built.perms[g])
        for h in range(order):
            prod = built.sigma_words[g] ^ pg.apply_bits(built.sigma_words[h])
            assert prod == built.sigma_words[table.product(g, h)]


def test_construct_from_group_inverse_set(golden):
    table = type_q_table(golden.n)
    d1 = [i for i, w in enumerate(codeword_ints(golden)) if w & 1 == 0]
    built = construct_from_group(table, {table.inv(i) for i in d1}, 12)
    assert len(built.words) == 48


def test_construct_from_group_identity_outside_d(golden):
    # e not in D: the construction replaces D by u*D
    table = type_q_table(golden.n)
    d_inv = [table.product(12, d) for d in d1_in_coordinate_order(golden)]
    built = construct_from_group(table, d_inv, 12)
    assert built.words == codeword_set(golden)


def test_construct_from_group_rejects_bad_subset(golden):
    table = type_q_table(golden.n)
    with pytest.raises(NotHadamardGroup):
        construct_from_group(table, list(range(24)), 12)


def test_make_code_derives_b(golden):
    code = make_code(6, golden.a_vec)._replace(iota=11)
    assert code.b_vec == golden.b_vec


def test_code_field_validation(golden):
    with pytest.raises(ValueError):
        TypeQCode(6, golden.a_vec, golden.b_vec, 12)
    with pytest.raises(ValueError):
        TypeQCode(5, golden.a_vec, golden.b_vec, None)


def test_all_codewords_are_words(golden):
    words = all_codewords(golden)
    assert len(words) == 48
    assert len({w.bits for w in words}) == 48
    assert all(w.length == 24 for w in words)
