"""Oracles used only by the tests, independent of the fast paths in src/.

The rank by elimination (against analysis.span_rank), the kernel by
filtering the word table and by automorphisms (against
analysis.structured_iota), the column relabelling of the transpose
(against transforms.transpose_code's row order) and the right-hand side
of the squared-factorization identity (against
transforms.doubled_criterion_operand).
"""

from __future__ import annotations

from typing import Iterable

from hfpq.analysis import (
    IndexingInconsistency,
    _kernel_basis,
    kernel_ints,
    rank_of_ints,
)
from hfpq.core import BinaryWord, GroupElement, canonical_perm
from hfpq.gf2poly import poly_mul, reverse_bits, rotl
from hfpq.typeq import TypeQCode, codeword_ints


def rot_halves(v: int, half: int, k: int = 1) -> int:
    """Rotate both halves of a 2*half-bit word by k (coordinate action of x^k)."""
    mask = (1 << half) - 1
    lo = rotl(v & mask, k, half)
    hi = rotl(v >> half, k, half)
    return lo | (hi << half)


def squared_factorization(a1: int, kappa1: int, iota: int, n: int) -> int:
    """s^2 + x t^2 with s = a1 + x^(iota+1) phi1(a1), t = kappa1 + x^iota phi1(kappa1).

    Over GF(2), p(x)^2 = p(x^2), so the squares are carry-less products;
    s and t lie below x^(2n), so s^2 + x t^2 needs no reduction mod
    x^(4n) - 1.
    """
    half = 2 * n
    s = a1 ^ rotl(reverse_bits(a1, half), iota + 1, half)
    t = kappa1 ^ rotl(reverse_bits(kappa1, half), iota, half)
    return poly_mul(s, s) ^ poly_mul(t, t) << 1


def compute_rank(codewords: Iterable[BinaryWord]) -> int:
    """Dimension of the linear span of the codeword set, by elimination."""
    words = list(codewords)
    if not words:
        raise ValueError("empty codeword set")
    length = words[0].length
    if any(w.length != length for w in words):
        raise ValueError("codewords of mixed lengths")
    return rank_of_ints(w.bits for w in words)


def rank_via_generators(code: TypeQCode) -> int:
    """Rank from the span {a, xa, ..., x^(2n-1)a, kappa}; needs kernel dim 2.

    This is the k = 2 case of span_rank's R a + R b: kappa = w(a^iota b)
    alternates in each half, so x kappa = kappa + u, and u = w(a^(2n))
    lies in R a.
    """
    words = codeword_ints(code)
    kernel = kernel_ints(words)
    u = (1 << code.length) - 1
    if len(kernel) != 4:
        raise ValueError("generator span shortcut requires kernel dimension 2")
    kappa = next(z for z in kernel if z not in (0, u))
    gens = [rot_halves(code.a_vec.bits, 2 * code.n, j) for j in range(2 * code.n)]
    gens.append(kappa)
    return rank_of_ints(gens)


def kernel_iota(words: tuple[int, ...], n: int) -> tuple[list[int], int | None]:
    """(kernel, iota) of a verified word table in element order.

    iota is the exponent of the kernel generator a^iota b (taken mod 2n,
    since a^(iota+2n) b is its complement), or None when the kernel does
    not have dimension 2.
    """
    kernel = kernel_ints(words)
    if len(kernel) != 4:
        return kernel, None
    u = (1 << (4 * n)) - 1
    kappa = next(z for z in kernel if z not in (0, u))
    idx = words.index(kappa)
    if idx < 4 * n:
        raise IndexingInconsistency("kernel generator is a power of a")
    return kernel, (idx - 4 * n) % (2 * n)


def kernel_by_automorphism(code: TypeQCode) -> tuple[int, list[BinaryWord]]:
    """Kernel via the membership test pi_z in Aut(C), for cross-validation."""
    n = code.n
    words = codeword_ints(code)
    word_set = frozenset(words)
    kernel = []
    for idx, z in enumerate(words):
        g = GroupElement(idx % (4 * n), idx >= 4 * n)
        pi = canonical_perm(g, n)
        if all(pi.apply_bits(c) in word_set for c in word_set):
            kernel.append(z)
    kernel.sort()
    dim, basis = _kernel_basis(kernel, code.length)
    return dim, [BinaryWord(b, code.length) for b in basis]


def transpose_relabel(word: int, n: int) -> int:
    """Reverse the first-half coordinates, keeping position 1 in place.

    Columns of H carry their first-half coordinates in the opposite cyclic
    direction (labels e, a, a^2, ... instead of e, a^-1, a^-2, ...); this
    brings a column word into the canonical coordinate order.  Bit p of
    the first half moves to bit -p mod 2n: a reversal, then a rotation by 1.
    """
    half = 2 * n
    mask = (1 << half) - 1
    return rotl(reverse_bits(word, half), 1, half) | (word & (mask << half))
