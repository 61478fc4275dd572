from __future__ import annotations

import random

import pytest

from hfpq.core import BinaryWord, GroupElement, all_elements, group_mul, type_q_table

from .oracles import (
    Perm,
    apply_perm,
    canonical_perm,
    compose,
    group_inv,
    group_pow,
    pi_a,
    pi_b,
    prop_mul,
    u_element,
)


def test_word_basics():
    w = BinaryWord.from_string("10110")
    assert w.weight == 3
    assert w.support() == (1, 3, 4)
    assert w.bit(1) == 1
    assert w.complement().to_string() == "01001"
    assert (w ^ BinaryWord.from_string("00110")).weight == 1
    assert (w ^ w) == BinaryWord.zero(5)


def test_word_string_round_trip():
    # the leftmost character is position 1 (bit 0), at every length
    rng = random.Random(5)
    for length in (1, 2, 7, 24, 63, 64, 65, 768):
        for _ in range(10):
            bits = rng.getrandbits(length)
            text = "".join("1" if (bits >> i) & 1 else "0" for i in range(length))
            assert BinaryWord(bits, length).to_string() == text
            assert BinaryWord.from_string(text) == BinaryWord(bits, length)
    for bad in ("", "012", "1 0", "1_0", "+1", "0b1", "\u0661"):
        with pytest.raises(ValueError, match="not a 0/1 string"):
            BinaryWord.from_string(bad)


def test_word_length_mismatch():
    with pytest.raises(ValueError):
        BinaryWord.from_string("101") ^ BinaryWord.from_string("1010")


def test_apply_perm_identity_and_units():
    w = BinaryWord.from_string("1101")
    assert apply_perm(Perm.identity(4), w) == w
    cycle = Perm.from_cycles(4, [(1, 2, 3, 4)])
    assert apply_perm(cycle, BinaryWord(1 << 0, 4)) == BinaryWord(1 << 1, 4)
    assert apply_perm(cycle, BinaryWord.all_ones(4)) == BinaryWord.all_ones(4)


def test_apply_perm_inverse_indexing():
    # output position i holds input position pi^-1(i)
    p = Perm((1, 2, 0))  # 1 -> 2, 2 -> 3, 3 -> 1
    w = BinaryWord.from_string("100")
    assert apply_perm(p, w).to_string() == "010"


def test_compose_is_function_composition():
    p = Perm.from_cycles(6, [(1, 2, 3)])
    q = Perm.from_cycles(6, [(3, 4), (5, 6)])
    w = BinaryWord.from_string("101010")
    assert apply_perm(compose(p, q), w) == apply_perm(p, apply_perm(q, w))
    assert compose(p, p.inverse()).is_identity()


def test_compose_order_two_products():
    p = Perm.from_cycles(8, [(1, 2), (3, 4), (5, 6), (7, 8)])
    assert compose(p, p).is_identity()


def test_rotation_order_is_2n():
    for n in (2, 3, 6):
        assert pi_a(n).order() == 2 * n


def test_prop_mul_identities():
    y = BinaryWord.from_string("110100")
    e = BinaryWord.zero(6)
    u = BinaryWord.all_ones(6)
    ident = Perm.identity(6)
    assert prop_mul(e, ident, y) == y
    assert prop_mul(u, ident, y) == y.complement()


def test_prop_mul_inverse_formula():
    # x^-1 = pi_x^-1(x) gives x * x^-1 = e
    n = 2
    x = BinaryWord.from_string("10010110")
    pi_x = canonical_perm(GroupElement(1, True), n)
    x_inv = apply_perm(pi_x.inverse(), x)
    assert prop_mul(x, pi_x, x_inv) == BinaryWord.zero(8)


def test_group_relations():
    for n in (1, 2, 5):
        e = GroupElement(0, False)
        a = GroupElement(1, False)
        b = GroupElement(0, True)
        assert group_mul(b, b, n) == GroupElement(2 * n, False)
        assert group_mul(b, a, n) == GroupElement(4 * n - 1, True)
        assert group_mul(GroupElement(3 % (4 * n), False),
                         GroupElement((4 * n - 3) % (4 * n), False), n) == e
        assert group_mul(a, group_inv(a, n), n) == e
        assert group_mul(b, group_inv(b, n), n) == e
        # b^-1 a b = a^-1
        conj = group_mul(group_mul(group_inv(b, n), a, n), b, n)
        assert conj == group_inv(a, n)
        assert group_pow(a, 4 * n, n) == e
        assert group_pow(a, 2 * n, n) == u_element(n)


def _element_order(g: GroupElement, n: int) -> int:
    e = GroupElement(0, False)
    return next(k for k in range(1, 8 * n + 1) if group_pow(g, k, n) == e)


def test_group_not_cyclic():
    # no element reaches order 8n
    for n in (1, 2, 3):
        orders = {_element_order(g, n) for g in all_elements(n)}
        assert max(orders) < 8 * n
        assert _element_order(GroupElement(1, False), n) == 4 * n
        assert _element_order(GroupElement(0, True), n) == 4


def test_type_q_table_is_a_group():
    table = type_q_table(2)
    assert table.order == 16
    for i in range(16):
        table.inv(i)  # must exist
    assert table.is_central(4)  # a^{2n} with n=2


def test_canonical_perm_printed_generators():
    assert canonical_perm(GroupElement(1, False), 2) == Perm.from_cycles(
        8, [(1, 2, 3, 4), (5, 6, 7, 8)]
    )
    assert canonical_perm(GroupElement(0, True), 2) == Perm.from_cycles(
        8, [(1, 8), (2, 7), (3, 6), (4, 5)]
    )
    assert pi_b(2).images == (7, 6, 5, 4, 3, 2, 1, 0)


# The three permutation axioms of an HFP code depend on n alone, so
# verify_hfp relies on these exhaustive checks instead of repeating them.
PERM_NS = range(1, 9)


def test_canonical_perm_kernel_is_center():
    for n in PERM_NS:
        assert canonical_perm(u_element(n), n).is_identity()
        assert canonical_perm(GroupElement(0, False), n).is_identity()


def test_canonical_perm_homomorphism_full():
    for n in PERM_NS:
        perms = {g: canonical_perm(g, n) for g in all_elements(n)}
        for g, pg in perms.items():
            for h, ph in perms.items():
                assert compose(pg, ph) == perms[group_mul(g, h, n)]


def test_canonical_perm_fixed_point_free():
    for n in PERM_NS:
        e = GroupElement(0, False)
        for g in all_elements(n):
            if g in (e, u_element(n)):
                continue
            assert canonical_perm(g, n).fixed_points() == ()


def test_image_is_dihedral_of_order_4n():
    for n in (2, 3):
        perms = {canonical_perm(g, n) for g in all_elements(n)}
        assert len(perms) == 4 * n
        r, f = pi_a(n), pi_b(n)
        assert r.order() == 2 * n
        assert compose(f, f).is_identity()
        # f r f = r^-1
        assert compose(f, compose(r, f)) == r.inverse()
