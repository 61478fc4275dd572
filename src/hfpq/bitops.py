"""Low-level bit tricks on int bitsets (LSB = coordinate 1 / constant term)."""

from __future__ import annotations


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


def rot_halves(v: int, half: int, k: int = 1) -> int:
    """Rotate both halves of a 2*half-bit word by k (coordinate action of x^k)."""
    mask = (1 << half) - 1
    lo = rotl(v & mask, k, half)
    hi = rotl(v >> half, k, half)
    return lo | (hi << half)


def div_x_plus_1(p: int, width: int) -> int:
    """Quotient q with (x+1)*q == p mod x^width - 1, constant term of q = 0.

    Requires p of even weight; the other solution is q xor all-ones.
    """
    if p.bit_count() & 1:
        raise ValueError("polynomial of odd weight is not divisible by x+1")
    q = 0
    acc = 0
    for i in range(1, width):
        acc ^= (p >> i) & 1
        q |= acc << i
    return q
