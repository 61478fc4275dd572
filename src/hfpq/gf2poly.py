"""GF(2)[x] arithmetic on int bit-polys: bit i = coefficient of x^i.

A plain polynomial is any int >= 0.  A residue mod x^m - 1 is an int
below 1 << m, read as a coefficient string of width m: multiplying by x^k
rotates it (rotl), the reversal x^(m-1) p(1/x) reverses it (reverse_bits),
p(x^2) + x q(x^2) interleaves two strings (interleave), and the running
parity (prefix_xor) divides by x + 1 (div_x_plus_1).  Gf2Poly is
the validated record of a residue that typeq.derive_a2 takes and returns.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple


def reverse_bits(x: int, width: int) -> int:
    """Reverse a width-bit string: bit i moves to bit width-1-i.

    Reads only the low width bits of x (width >= 1); the marker bit at
    position width keeps the leading zeros in bin().
    """
    return int(bin(x & ((1 << width) - 1) | 1 << width)[:2:-1], 2)


def rotl(x: int, k: int, width: int) -> int:
    """Cyclic left shift in exponent space: bit i moves to bit (i+k) mod width."""
    k %= width
    mask = (1 << width) - 1
    return ((x << k) | (x >> (width - k))) & mask


def interleave(even: int, odd: int, width: int) -> int:
    """even(x^2) + x odd(x^2): bit i of even to bit 2i, of odd to bit 2i+1.

    even and odd lie below 1 << width; both strings are read most
    significant bit first, so each pair is (odd bit, even bit).
    """
    pairs = zip(f"{odd:0{width}b}", f"{even:0{width}b}")
    return int("".join(o + e for o, e in pairs), 2)


def prefix_xor(x: int, width: int) -> int:
    """Running parity: bit i of the result is the XOR of bits 0..i of x.

    Reads only the low width bits of x: every step shifts upward.  After
    the step with shift s, bit i holds the XOR of bits i-2s+1..i, so
    ceil(log2(width)) doublings cover every prefix; each is one shift and
    one XOR of the whole int.
    """
    shift = 1
    while shift < width:
        x ^= x << shift
        shift <<= 1
    return x & (1 << width) - 1


def div_x_plus_1(p: int, width: int) -> int:
    """Quotient q with (x+1)*q == p mod x^width - 1, constant term of q = 0.

    Requires p of even weight; the other solution is q xor all-ones.
    Coefficient i > 0 of (x+1) q is q_i + q_(i-1), so q_i = p_1 + ... +
    p_i: the running parity of p without its constant term.  Coefficient
    0 is q_0 + q_(width-1) = p_1 + ... + p_(width-1), which is p_0 because
    the weight is even.
    """
    if p.bit_count() & 1:
        raise ValueError("polynomial of odd weight is not divisible by x+1")
    return prefix_xor(p & ~1, width)


def poly_degree(p: int) -> int:
    """Degree of a plain polynomial (-1 for the zero polynomial)."""
    return p.bit_length() - 1


def poly_mul(p: int, q: int) -> int:
    """Carry-less product of plain polynomials."""
    out = 0
    while q:
        if q & 1:
            out ^= p
        p <<= 1
        q >>= 1
    return out


def poly_divmod(p: int, q: int) -> tuple[int, int]:
    """Quotient and remainder of plain polynomials, q nonzero."""
    if q == 0:
        raise ZeroDivisionError("division by zero polynomial")
    dq = poly_degree(q)
    quo = 0
    while p.bit_length() - 1 >= dq and p:
        shift = p.bit_length() - 1 - dq
        quo ^= 1 << shift
        p ^= q << shift
    return quo, p


def poly_mod(p: int, q: int) -> int:
    return poly_divmod(p, q)[1]


def poly_gcd(p: int, q: int) -> int:
    """Greatest common divisor of plain polynomials (monic over GF(2))."""
    if p == 0 and q == 0:
        raise ValueError("gcd of two zero polynomials is undefined")
    while q:
        p, q = q, poly_mod(p, q)
    return p


def modulus_poly(m: int) -> int:
    """The plain polynomial x^m + 1."""
    return (1 << m) | 1


X_PLUS_1 = 0b11


# validated like core.BinaryWord: fields here, checks in the subclass
class _Gf2PolyFields(NamedTuple):
    coeffs: int
    m: int


class Gf2Poly(_Gf2PolyFields):
    """Residue in GF(2)[x]/(x^m - 1); coeffs bit i = coefficient of x^i."""

    __slots__ = ()

    def __new__(cls, coeffs: int, m: int) -> "Gf2Poly":
        if m <= 0:
            raise ValueError("modulus degree must be positive")
        if coeffs >> m:
            raise ValueError("coefficient string longer than modulus degree")
        return tuple.__new__(cls, (coeffs, m))

    @classmethod
    def _make(cls, iterable: Iterable) -> "Gf2Poly":
        return cls(*iterable)
