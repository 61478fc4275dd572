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


def interleave(even: int, odd: int) -> int:
    """even(x^2) + x odd(x^2): bit i of even to bit 2i, of odd to bit 2i+1.

    A binary string read in base 4 puts its bit i at bit 2i, so each
    operand is spread by one format and one int; the shift by one places
    odd on the odd bits.
    """
    return int(format(even, "b"), 4) | int(format(odd, "b"), 4) << 1


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


# the low bit of each hex digit, for poly_mul's fields
_LOW_BIT = str.maketrans("0123456789abcdef", "0101010101010101")


def poly_mul(p: int, q: int) -> int:
    """Carry-less product of plain polynomials, by one integer product.

    Kronecker substitution: each bit of p and of q becomes a field of k hex
    digits, so the integer product holds in field i the number of pairs
    of terms with exponents summing to i, and its parity is coefficient i
    of the carry-less product.  A field counts at most min(len p, len q)
    terms, len the bit length, and with k = ceil(bit_length(min(len p,
    len q)) / 4), at least 1, that count is below 16^k: no field carries
    into the next, at any size.  The low bit of a field is the low bit of its last hex
    digit, read off format(product, "x") by one slice and one translate.
    """
    k = (min(p.bit_length(), q.bit_length()).bit_length() + 3) // 4 or 1
    sep = "0" * (k - 1)
    digits = format(int(sep.join(format(p, "b")), 16)
                    * int(sep.join(format(q, "b")), 16), "x")
    return int(digits[(len(digits) - 1) % k::k].translate(_LOW_BIT), 2)


def poly_gcd(p: int, q: int) -> int:
    """Greatest common divisor of plain polynomials (monic over GF(2)).

    One remainder loop: each step cancels the lead of p by a shift of q,
    or swaps p and q once p has the lower degree.  dq is q's bit length,
    and a swap makes it p's, which is dq + shift, so each step takes one
    bit_length and no quotient.
    """
    if p == 0 and q == 0:
        raise ValueError("gcd of two zero polynomials is undefined")
    dq = q.bit_length()
    while q:
        shift = p.bit_length() - dq
        if shift < 0:
            p, q, dq = q, p, dq + shift
        else:
            p ^= q << shift
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
