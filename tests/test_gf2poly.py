from __future__ import annotations

import random
import sys

import pytest
import sympy

from hfpq.core import BinaryWord
from hfpq.gf2poly import (
    X_PLUS_1,
    Gf2Poly,
    div_x_plus_1,
    interleave,
    modulus_poly,
    poly_divmod,
    poly_gcd,
    poly_mul,
    prefix_xor,
    reverse_bits,
    rotl,
)
from hfpq.transforms import double_gcd_check, rank_gcd_criterion

from .oracles import (
    div_x_plus_1_by_bit,
    interleave_by_zip,
    poly_gcd_by_divmod,
    poly_mod,
    poly_mul_by_bit,
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


def _bits(s: str) -> int:
    """Residue from a 0/1 string, leftmost character = constant term."""
    return BinaryWord.from_string(s).bits


def _string(p: int, m: int) -> str:
    return BinaryWord(p, m).to_string()


def _mul_mod(p: int, q: int, m: int) -> int:
    """Product reduced mod x^m - 1."""
    return poly_mod(poly_mul(p, q), modulus_poly(m))


def test_add_self_inverse():
    # residues add by XOR, and the residue maps are GF(2)-linear
    rng = random.Random(2)
    m = 12
    for _ in range(50):
        p, q = rng.randrange(1 << m), rng.randrange(1 << m)
        assert p ^ p == 0
        assert reverse_bits(p ^ q, m) == reverse_bits(p, m) ^ reverse_bits(q, m)
        assert rotl(p ^ q, 5, m) == rotl(p, 5, m) ^ rotl(q, 5, m)
        r, s = rng.randrange(1 << m), rng.randrange(1 << m)
        assert interleave(p ^ q, r ^ s) == interleave(p, r) ^ interleave(q, s)
        if (p ^ q).bit_count() % 2 == 0 and p.bit_count() % 2 == 0:
            assert div_x_plus_1(p ^ q, m) == div_x_plus_1(p, m) ^ div_x_plus_1(q, m)


def test_add_identity_and_complement():
    p = _bits("10110")
    u = (1 << 5) - 1
    assert p ^ 0 == p
    assert _string(u ^ p, 5) == "01001"
    # reversal and rotation fix u, so they commute with complementing
    rng = random.Random(4)
    for m in (4, 6, 12):
        u = (1 << m) - 1
        for _ in range(20):
            q = rng.randrange(1 << m)
            assert reverse_bits(q ^ u, m) == reverse_bits(q, m) ^ u
            assert rotl(q ^ u, 3, m) == rotl(q, 3, m) ^ u


def test_add_modulus_mismatch():
    # an operand wider than the modulus is rejected where it is checked:
    # the gcd criteria (0 <= a1 < 2^(2n)) and the Gf2Poly record
    with pytest.raises(ValueError):
        rank_gcd_criterion(1 << 4, 0, 2)
    with pytest.raises(ValueError):
        rank_gcd_criterion(-1, 0, 2)
    with pytest.raises(ValueError):
        double_gcd_check(1, 1 << 4, 0, 2)
    with pytest.raises(ValueError):
        double_gcd_check(1 << 4, 0, 0, 2)
    with pytest.raises(ValueError):
        Gf2Poly(1 << 6, 6)


@pytest.mark.parametrize("iota", [-1, 6, 99])
def test_criteria_reject_iota_out_of_range(iota):
    # iota is a kernel exponent in [0, 2n), checked as kappa_vector,
    # derive_a2 and TypeQCode check it
    with pytest.raises(ValueError, match="out of range"):
        rank_gcd_criterion(0b000111, iota, 3)
    with pytest.raises(ValueError, match="out of range"):
        double_gcd_check(0b000111, 0b101010, iota, 3)
    rank_gcd_criterion(0b000111, 5, 3)
    double_gcd_check(0b000111, 0b101010, 5, 3)


def test_mul_mod_wraparound():
    m = 8
    assert _mul_mod(1 << 1, 1 << (m - 1), m) == 1


def test_mul_mod_by_x_is_cyclic_shift():
    rng = random.Random(3)
    for m in (4, 6, 12):
        for _ in range(20):
            p = rng.randrange(1 << m)
            shifted = _mul_mod(1 << 1, p, m)
            assert shifted == rotl(p, 1, m)
            s = _string(p, m)
            assert _string(shifted, m) == s[-1] + s[:-1]


def test_mul_mod_x_plus_1_times_all_ones_vanishes():
    for m in (4, 8, 12):
        assert _mul_mod(X_PLUS_1, (1 << m) - 1, m) == 0


def test_mul_mod_m_fold_shift_is_identity():
    p = _bits("110100101011")
    q = p
    for _ in range(12):
        q = rotl(q, 1, 12)
    assert q == p


def test_gcd_frozen_cases():
    # x^4+1 = (x^2+1)^2 over GF(2)
    assert poly_gcd(0b101, 0b10001) == 0b101
    # coprime exponents
    m = 10
    assert poly_gcd((1 << (m - 1)) | 1, (1 << m) | 1) == X_PLUS_1


def test_gcd_reference_operand():
    # first half of the embedded example: a1 + phi1(a1), gcd with x^12 + 1
    a1 = _bits("111111011010")
    op = a1 ^ rotl(reverse_bits(a1, 12), 12, 12)
    assert op == 0b1010_0110_0101  # x^11+x^9+x^6+x^5+x^2+1
    assert poly_gcd(op, modulus_poly(12)) == X_PLUS_1


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
        p = rng.randrange(1, 1 << m)
        g_small = poly_gcd(p, modulus_poly(m))
        g_big = poly_gcd(interleave(p, 0), modulus_poly(2 * m))
        assert g_big == poly_mul(g_small, g_small)


def test_div_exact_small_case():
    # p = x + 1 in m = 4: solutions {1, 1+u}; representative has constant term 0
    p = _bits("1100")
    q = div_x_plus_1(p, 4)
    assert _string(q, 4) == "0111"
    assert _mul_mod(X_PLUS_1, q, 4) == p


def test_div_exact_zero():
    assert div_x_plus_1(0, 6) == 0


def test_div_exact_odd_weight_rejected():
    with pytest.raises(ValueError):
        div_x_plus_1(_bits("1110"), 4)


def test_div_exact_reference_half():
    # (a1 + x phi1(a2)) / (x+1) reproduces the printed first half of b
    a1 = _bits("111111011010")
    a2 = _bits("101001000000")
    q = div_x_plus_1(a1 ^ rotl(reverse_bits(a2, 12), 1, 12), 12)
    assert _string(q, 12) == "010101110000"


def test_div_exact_remultiplication_roundtrip():
    rng = random.Random(17)
    for m in (4, 6, 12):
        u = (1 << m) - 1
        for _ in range(50):
            p = rng.randrange(1 << m)
            if p.bit_count() % 2:
                continue
            q = div_x_plus_1(p, m)
            assert q & 1 == 0
            assert _mul_mod(X_PLUS_1, q, m) == p
            assert _mul_mod(X_PLUS_1, q ^ u, m) == p


def _prefix_xor_by_bit(x: int, width: int) -> int:
    out = acc = 0
    for i in range(width):
        acc ^= (x >> i) & 1
        out |= acc << i
    return out


# widths about the 30- and 60-bit digits of CPython ints, and up to 3072
WIDE = (29, 30, 31, 59, 60, 61, 89, 90, 91, 119, 120, 121, 384, 1536, 3071, 3072)


def test_prefix_xor_against_bit_loop():
    # every x at widths 1..10 (with one junk bit above the width), then
    # random x with junk above the width
    for width in range(1, 11):
        for x in range(1 << (width + 1)):
            assert prefix_xor(x, width) == _prefix_xor_by_bit(x, width)
    rng = random.Random(31)
    for width in WIDE:
        for _ in range(8):
            x = rng.getrandbits(width + 5)
            assert prefix_xor(x, width) == _prefix_xor_by_bit(x, width)


def _even(p: int, width: int, rng: random.Random) -> int:
    """p with one bit above bit 0 toggled when its weight is odd."""
    return p ^ ((p.bit_count() & 1) << rng.randrange(1, width))


def test_div_x_plus_1_against_bit_loop():
    # every even-weight p at widths 1..12, then random even-weight p
    for width in range(1, 13):
        for p in range(1 << width):
            if p.bit_count() % 2 == 0:
                assert div_x_plus_1(p, width) == div_x_plus_1_by_bit(p, width)
    rng = random.Random(37)
    for width in WIDE:
        for _ in range(8):
            p = _even(rng.getrandbits(width), width, rng)
            assert div_x_plus_1(p, width) == div_x_plus_1_by_bit(p, width)
            # the constant term is dropped, not carried into the running parity
            p = _even(rng.getrandbits(width) | 1, width, rng)
            assert div_x_plus_1(p, width) == div_x_plus_1_by_bit(p, width)


def test_phi1_definition_and_involution():
    p = _bits("1100")  # 1 + x, m = 4
    assert _string(reverse_bits(p, 4), 4) == "0011"  # x^2 + x^3
    rng = random.Random(23)
    for _ in range(50):
        q = rng.randrange(1 << 12)
        assert reverse_bits(reverse_bits(q, 12), 12) == q
        assert reverse_bits(q, 12).bit_count() == q.bit_count()


def test_phi2_of_inflated_is_shifted_phi1():
    rng = random.Random(29)
    for _ in range(100):
        p = rng.randrange(1 << 10)
        assert reverse_bits(interleave(p, 0), 20) == rotl(
            interleave(reverse_bits(p, 10), 0), 1, 20
        )


def test_inflate_examples():
    assert _string(interleave(_bits("11"), 0), 4) == "1010"
    assert interleave(0, 0) == 0
    rng = random.Random(31)
    for _ in range(50):
        p = rng.randrange(1 << 12)
        q = interleave(p, 0)
        assert q.bit_count() == p.bit_count()
        assert all((q >> i) & 1 == 0 for i in range(1, 24, 2))
        # over GF(2), p(x^2) = p(x)^2, and x p(x^2) fills the odd bits
        assert q == poly_mul(p, p)
        assert interleave(0, p) == q << 1


def test_poly_mul_exhaustive_small():
    for p in range(1 << 7):
        for q in range(1 << 7):
            assert poly_mul(p, q) == poly_mul_by_bit(p, q), (p, q)


def _field_width(p: int, q: int) -> int:
    # hex digits per bit in poly_mul's spread operands
    return (min(p.bit_length(), q.bit_length()).bit_length() + 3) // 4


@pytest.mark.parametrize(
    "bits, width",
    [(15, 1), (16, 2), (255, 2), (256, 3), (4095, 3), (4096, 4), (65_537, 5)],
)
def test_poly_mul_every_field_width(bits, width):
    # a field counts at most min(len p, len q) terms: all-ones operands at
    # 15, 255 and 4095 bits fill the middle fields of widths 1, 2 and 3 to
    # 16^k - 1, the most a field of k hex digits holds
    rng = random.Random(bits)
    short = rng.getrandbits(bits) | 1 << (bits - 1)
    pairs = [
        (short, rng.getrandbits(bits + rng.randrange(1, 300))),
        (rng.getrandbits(bits) | 1 << (bits - 1), short),
        ((1 << bits) - 1, (1 << bits) - 1),
    ]
    limit = sys.get_int_max_str_digits()
    # the widest case reads no decimal string, so a low limit cannot trip it
    sys.set_int_max_str_digits(640 if width == 5 else limit)
    try:
        for p, q in pairs:
            assert _field_width(p, q) == width
            want = poly_mul_by_bit(p, q)
            assert poly_mul(p, q) == want
            assert poly_mul(q, p) == want
    finally:
        sys.set_int_max_str_digits(limit)


def test_poly_mul_zero_and_one():
    rng = random.Random(37)
    for p in (0, 1, 2, rng.getrandbits(100), rng.getrandbits(5000)):
        assert poly_mul(p, 0) == poly_mul(0, p) == 0
        assert poly_mul(p, 1) == poly_mul(1, p) == p


def test_poly_gcd_against_division_loop():
    rng = random.Random(43)
    for _ in range(60):
        p = rng.getrandbits(rng.randrange(3000))
        q = rng.getrandbits(rng.randrange(3000))
        if p or q:
            assert poly_gcd(p, q) == poly_gcd_by_divmod(p, q)
        # a common factor, so that the gcd is not 1
        f = rng.getrandbits(rng.randrange(1, 400)) | 1
        p, q = poly_mul_by_bit(p | 1, f), poly_mul_by_bit(q | 1, f)
        assert poly_gcd(p, q) == poly_gcd_by_divmod(p, q)
        assert poly_gcd(p, 0) == poly_gcd(0, p) == p


def test_interleave_against_zip():
    for width in range(1, 8):
        for even in range(1 << width):
            for odd in range(1 << width):
                assert interleave(even, odd) == interleave_by_zip(even, odd, width)
    rng = random.Random(47)
    for _ in range(50):
        width = rng.randrange(1, 5001)
        even, odd = rng.getrandbits(width), rng.getrandbits(width)
        assert interleave(even, odd) == interleave_by_zip(even, odd, width)
