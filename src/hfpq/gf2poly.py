"""Arithmetic in GF(2)[x]/(x^m - 1) on int-coded coefficient strings.

A residue is a Gf2Poly with a fixed modulus degree m; plain (unreduced)
polynomials over GF(2) are bare ints, bit i = coefficient of x^i.  The
reversal map phi sends x^i to x^(m-1-i); inflate substitutes x -> x^2.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .bitops import div_x_plus_1, reverse_bits, rotl


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

    @classmethod
    def zero(cls, m: int) -> "Gf2Poly":
        return cls(0, m)

    @classmethod
    def one(cls, m: int) -> "Gf2Poly":
        return cls(1, m)

    @classmethod
    def all_ones(cls, m: int) -> "Gf2Poly":
        """The polynomial u(x) with every coefficient 1."""
        return cls((1 << m) - 1, m)

    @classmethod
    def from_string(cls, s: str) -> "Gf2Poly":
        """Parse a 0/1 string, leftmost character = constant term."""
        if not s or any(c not in "01" for c in s):
            raise ValueError(f"not a 0/1 coefficient string: {s!r}")
        coeffs = 0
        for i, c in enumerate(s):
            if c == "1":
                coeffs |= 1 << i
        return cls(coeffs, len(s))

    def to_string(self) -> str:
        return "".join("1" if (self.coeffs >> i) & 1 else "0" for i in range(self.m))

    @property
    def weight(self) -> int:
        return self.coeffs.bit_count()

    def _check_same_modulus(self, other: "Gf2Poly") -> None:
        if self.m != other.m:
            raise ValueError(f"modulus mismatch: {self.m} != {other.m}")

    def __xor__(self, other: "Gf2Poly") -> "Gf2Poly":
        self._check_same_modulus(other)
        return Gf2Poly(self.coeffs ^ other.coeffs, self.m)


def add(p: Gf2Poly, q: Gf2Poly) -> Gf2Poly:
    """Coordinate-wise XOR of coefficient strings."""
    return p ^ q


def mul_mod(p: Gf2Poly, q: Gf2Poly) -> Gf2Poly:
    """Product reduced mod x^m - 1."""
    p._check_same_modulus(q)
    wide = poly_mul(p.coeffs, q.coeffs)
    mask = (1 << p.m) - 1
    out = 0
    while wide:
        out ^= wide & mask
        wide >>= p.m
    return Gf2Poly(out, p.m)


def mul_by_x(p: Gf2Poly, k: int = 1) -> Gf2Poly:
    """Multiply by x^k: cyclic left shift of the coefficient string."""
    return Gf2Poly(rotl(p.coeffs, k, p.m), p.m)


def gcd(p: Gf2Poly, q: Gf2Poly) -> int:
    """Euclidean gcd of the lifted plain polynomials (unreduced output)."""
    return poly_gcd(p.coeffs, q.coeffs)


def gcd_with_modulus(p: Gf2Poly) -> int:
    """gcd of the lifted residue with x^m + 1, as a plain polynomial."""
    return poly_gcd(p.coeffs, modulus_poly(p.m))


def div_exact_by_x_plus_1(p: Gf2Poly) -> Gf2Poly:
    """One quotient q with (x+1)*q == p mod x^m - 1, constant term 0.

    The full solution set is {q, q + u}; even weight of p is required.
    """
    return Gf2Poly(div_x_plus_1(p.coeffs, p.m), p.m)


def phi1(p: Gf2Poly) -> Gf2Poly:
    """Reversal x^(m-1) * p(1/x): plain string reversal, an involution."""
    return Gf2Poly(reverse_bits(p.coeffs, p.m), p.m)


def inflate(p: Gf2Poly) -> Gf2Poly:
    """Substitute x -> x^2, doubling the modulus degree (p(x) -> p(x^2))."""
    out = 0
    c = p.coeffs
    i = 0
    while c:
        if c & 1:
            out |= 1 << (2 * i)
        c >>= 1
        i += 1
    return Gf2Poly(out, 2 * p.m)
