"""Rank oracles used only by the tests, independent of analysis.span_rank."""

from __future__ import annotations

from typing import Iterable

from hfpq.analysis import kernel_ints, rank_of_ints
from hfpq.bitops import rot_halves
from hfpq.core import BinaryWord
from hfpq.typeq import TypeQCode, codeword_ints


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
