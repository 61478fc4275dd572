from __future__ import annotations

import random

import pytest
import sympy

from hfpq.gf2poly import (
    X_PLUS_1,
    Gf2Poly,
    add,
    div_exact_by_x_plus_1,
    gcd,
    gcd_with_modulus,
    inflate,
    modulus_poly,
    mul_by_x,
    mul_mod,
    phi1,
    poly_divmod,
    poly_gcd,
    poly_mul,
)

_X = sympy.symbols("x")


def _sympy_poly(bits: int) -> sympy.Poly:
    coeffs = [(bits >> i) & 1 for i in range(bits.bit_length())][::-1]
    return sympy.Poly(coeffs or [0], _X, modulus=2)


def _sympy_gcd_bits(p: int, q: int) -> int:
    g = sympy.gcd(_sympy_poly(p), _sympy_poly(q))
    out = 0
    for exp, c in zip(range(g.degree(), -1, -1), g.all_coeffs()):
        if c % 2:
            out |= 1 << exp
    return out


def test_add_self_inverse():
    p = Gf2Poly.from_string("0110")
    assert add(p, p) == Gf2Poly.zero(4)


def test_add_identity_and_complement():
    p = Gf2Poly.from_string("10110")
    assert add(p, Gf2Poly.zero(5)) == p
    assert add(Gf2Poly.all_ones(5), p).to_string() == "01001"


def test_add_modulus_mismatch():
    with pytest.raises(ValueError):
        add(Gf2Poly.one(4), Gf2Poly.one(6))


def test_mul_mod_wraparound():
    m = 8
    x = Gf2Poly(1 << 1, m)
    x_top = Gf2Poly(1 << (m - 1), m)
    assert mul_mod(x, x_top) == Gf2Poly.one(m)


def test_mul_mod_by_x_is_cyclic_shift():
    rng = random.Random(3)
    for m in (4, 6, 12):
        x = Gf2Poly(1 << 1, m)
        for _ in range(20):
            p = Gf2Poly(rng.randrange(1 << m), m)
            shifted = mul_mod(x, p)
            assert shifted == mul_by_x(p, 1)
            assert shifted.to_string() == p.to_string()[-1] + p.to_string()[:-1]


def test_mul_mod_x_plus_1_times_all_ones_vanishes():
    for m in (4, 8, 12):
        xp1 = Gf2Poly(X_PLUS_1, m)
        assert mul_mod(xp1, Gf2Poly.all_ones(m)) == Gf2Poly.zero(m)


def test_mul_mod_m_fold_shift_is_identity():
    p = Gf2Poly.from_string("110100101011")
    q = p
    for _ in range(12):
        q = mul_by_x(q, 1)
    assert q == p


def test_gcd_frozen_cases():
    # x^4+1 = (x^2+1)^2 over GF(2)
    assert poly_gcd(0b101, 0b10001) == 0b101
    # coprime exponents
    m = 10
    assert poly_gcd((1 << (m - 1)) | 1, (1 << m) | 1) == X_PLUS_1


def test_gcd_reference_operand():
    # first half of the embedded example: a1 + phi1(a1), gcd with x^12 + 1
    a1 = Gf2Poly.from_string("111111011010")
    op = add(a1, mul_by_x(phi1(a1), 12))
    assert op.coeffs == 0b1010_0110_0101  # x^11+x^9+x^6+x^5+x^2+1
    assert gcd_with_modulus(op) == X_PLUS_1


def test_gcd_both_zero_rejected():
    with pytest.raises(ValueError):
        poly_gcd(0, 0)


def test_gcd_against_sympy():
    rng = random.Random(11)
    for _ in range(200):
        p = rng.randrange(1, 1 << 16)
        q = rng.randrange(1 << 16)
        assert poly_gcd(p, q) == _sympy_gcd_bits(p, q)


def test_gcd_divides_both_inputs():
    rng = random.Random(5)
    for _ in range(100):
        p = rng.randrange(1, 1 << 12)
        q = rng.randrange(1, 1 << 12)
        g = poly_gcd(p, q)
        assert poly_divmod(p, g)[1] == 0
        assert poly_divmod(q, g)[1] == 0


def test_gcd_with_modulus_respects_square_structure():
    # x^(2m) - 1 = (x^m - 1)^2: gcd of an inflated residue is a square
    rng = random.Random(9)
    for _ in range(50):
        m = 6
        p = Gf2Poly(rng.randrange(1, 1 << m), m)
        g_small = poly_gcd(p.coeffs, modulus_poly(m))
        g_big = poly_gcd(inflate(p).coeffs, modulus_poly(2 * m))
        assert g_big == poly_mul(g_small, g_small)


def test_div_exact_small_case():
    # p = x + 1 in m = 4: solutions {1, 1+u}; representative has constant term 0
    p = Gf2Poly.from_string("1100")
    q = div_exact_by_x_plus_1(p)
    assert q.to_string() == "0111"
    assert mul_mod(Gf2Poly(X_PLUS_1, 4), q) == p


def test_div_exact_zero():
    assert div_exact_by_x_plus_1(Gf2Poly.zero(6)) == Gf2Poly.zero(6)


def test_div_exact_odd_weight_rejected():
    with pytest.raises(ValueError):
        div_exact_by_x_plus_1(Gf2Poly.from_string("1110"))


def test_div_exact_reference_half():
    # (a1 + x phi1(a2)) / (x+1) reproduces the printed first half of b
    a1 = Gf2Poly.from_string("111111011010")
    a2 = Gf2Poly.from_string("101001000000")
    q = div_exact_by_x_plus_1(add(a1, mul_by_x(phi1(a2), 1)))
    assert q.to_string() == "010101110000"


def test_div_exact_remultiplication_roundtrip():
    rng = random.Random(17)
    for m in (4, 6, 12):
        xp1 = Gf2Poly(X_PLUS_1, m)
        for _ in range(50):
            p = Gf2Poly(rng.randrange(1 << m), m)
            if p.weight % 2:
                continue
            q = div_exact_by_x_plus_1(p)
            assert q.coeffs & 1 == 0
            assert mul_mod(xp1, q) == p
            assert mul_mod(xp1, q ^ Gf2Poly.all_ones(m)) == p


def test_phi1_definition_and_involution():
    p = Gf2Poly.from_string("1100")  # 1 + x, m = 4
    assert phi1(p).to_string() == "0011"  # x^2 + x^3
    rng = random.Random(23)
    for _ in range(50):
        q = Gf2Poly(rng.randrange(1 << 12), 12)
        assert phi1(phi1(q)) == q
        assert phi1(q).weight == q.weight


def test_phi2_of_inflated_is_shifted_phi1():
    rng = random.Random(29)
    for _ in range(100):
        p = Gf2Poly(rng.randrange(1 << 10), 10)
        assert phi1(inflate(p)) == mul_by_x(inflate(phi1(p)), 1)


def test_inflate_examples():
    assert inflate(Gf2Poly.from_string("11")).to_string() == "1010"
    assert inflate(Gf2Poly.zero(5)) == Gf2Poly.zero(10)
    rng = random.Random(31)
    for _ in range(50):
        p = Gf2Poly(rng.randrange(1 << 12), 12)
        q = inflate(p)
        assert q.weight == p.weight
        assert all((q.coeffs >> i) & 1 == 0 for i in range(1, 24, 2))
