"""Exhaustive desk-scale searches for type-Q codes.

Each candidate family is enumerated by one generator:

- _structured(n): iota in [0, 2n), a1 of odd weight, a2 derived from a1
  and iota; yields the verified candidates in (iota, a1) order.
- _general(n, stop): every generator word a below stop, in chunks of
  increasing a; yields the scan kernel's hits of each chunk.

Candidates are pruned by necessary conditions on a alone before b is
derived:

- the parity lemma (kernels_py): a^(2n) = u iff both halves of a have odd
  weight, so the general scan visits only words of weight 2n with wt(a1)
  odd, and every structured a satisfies it by construction;
- the power loop (power_words): weight 2n at every other power of a,
  which rejects most of the remaining words at a^2.

Only the survivors get derive_b_bits and the b-part of the check
(coset_words).  search_k2 and search_general consume their generator
completely; ito_scan takes the first hit of each.  Search results are
deduplicated by codeword-set equality only and sorted by the a string, so
the output is independent of the order in which candidates are visited.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from . import kernels
from .analysis import kernel_iota
from .core import BinaryWord
from .typeq import TypeQCode, codeword_ints, kappa_vector

Progress = Callable[[int, int], None]

_CHUNK = 1 << 12


def _sorted_unique(
    hits: Iterable[tuple[TypeQCode, tuple[int, ...]]],
) -> list[TypeQCode]:
    """Deduplicate (code, codeword table) pairs by codeword set.

    Keeps the smallest a string per set.
    """
    best: dict[frozenset[int], TypeQCode] = {}
    for code, words in hits:
        key = frozenset(words)
        old = best.get(key)
        if old is None or code.a_vec.to_string() < old.a_vec.to_string():
            best[key] = code
    return sorted(best.values(), key=lambda c: c.a_vec.to_string())


def _code(n: int, a_bits: int, b_bits: int, iota: int | None) -> TypeQCode:
    length = 4 * n
    return TypeQCode(n, BinaryWord(a_bits, length), BinaryWord(b_bits, length), iota)


def _stop(n: int, limit: int | None) -> int:
    space = 1 << (4 * n)
    if limit is None:
        return space
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    return min(limit, space)


def _structured(n: int) -> Iterator[tuple[int, int, int, tuple[int, ...]]]:
    """Verified (iota, a, b, words) of the structured family.

    a2 = x^(iota+1) phi1(a1) + u has weight 2n - wt(a1), so every
    candidate has weight 2n.  Per half, a^(2n) = sum_{j<2n} x^j a_h =
    wt(a_h) u_h, so a^(2n) = u exactly when both halves are odd, which
    for wt(a) = 2n means wt(a1) odd: the even a1 are skipped, and the
    power loop (power_words) runs before b is derived.
    """
    half = 2 * n
    for iota in range(half):
        for a1 in range(1 << half):
            if a1.bit_count() % 2 == 0:
                continue
            a_bits = a1 | (kernels.derive_a2_bits(a1, iota, n) << half)
            words = kernels.power_words(a_bits, n)
            if words is None:
                continue
            b_bits = kernels.derive_b_bits(a_bits, n)
            if b_bits is None:
                continue
            table = kernels.coset_words(words, a_bits, b_bits, n)
            if table is not None:
                yield iota, a_bits, b_bits, table


def _general(n: int, stop: int) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """(words scanned so far, (a, b) hits) for each chunk of a in [0, stop)."""
    for lo in range(0, stop, _CHUNK):
        hi = min(lo + _CHUNK, stop)
        yield hi, kernels.scan_general(n, lo, hi)


def search_k2(
    n: int,
    *,
    progress: Progress | None = None,
    on_other: Callable[[TypeQCode], None] | None = None,
) -> list[TypeQCode]:
    """Structured search: iota in [0, 2n), a1 of odd weight, a2 derived.

    Keeps candidates whose kernel has dimension exactly 2 with generator
    matching the alternating pattern for iota; on_other receives verified
    codes whose kernel disagrees (linear hits in particular).
    """
    half = 2 * n
    hits: list[tuple[TypeQCode, tuple[int, ...]]] = []
    for iota, a_bits, b_bits, words in _structured(n):
        kernel, found_iota = kernel_iota(words, n)
        if found_iota == iota and kappa_vector(iota, n).bits in kernel:
            hits.append((_code(n, a_bits, b_bits, iota), words))
        elif on_other is not None:
            on_other(_code(n, a_bits, b_bits, None))
    if progress is not None:
        progress(half << (half - 1), len(hits))
    return _sorted_unique(hits)


def search_general(
    n: int,
    limit: int | None = None,
    *,
    progress: Progress | None = None,
) -> list[TypeQCode]:
    """Scan every a in GF(2)^(4n) (or the first `limit`), deriving b.

    Every hit passes full verification; iota is attached when the kernel
    has dimension 2.
    """
    hits: list[tuple[TypeQCode, tuple[int, ...]]] = []
    for scanned, found in _general(n, _stop(n, limit)):
        for a_bits, b_bits in found:
            words = kernels.codeword_table(a_bits, b_bits, n)
            hits.append((_code(n, a_bits, b_bits, kernel_iota(words, n)[1]), words))
        if progress is not None:
            progress(scanned, len(hits))
    return _sorted_unique(hits)


@dataclass(frozen=True)
class ItoScanRow:
    """Existence record for one length 4n; exists is None when truncated."""

    n: int
    exists: bool | None
    witness: TypeQCode | None


def ito_scan(
    n_max: int,
    limit: int | None = None,
    *,
    progress: Progress | None = None,
) -> list[ItoScanRow]:
    """Existence of a type-Q code for each n up to n_max.

    The witness is the first structured hit, else the first general hit.
    A truncated scan that finds nothing reports None (unknown), never
    False: only a completed enumeration can prove nonexistence.
    """
    rows = []
    for n in range(1, n_max + 1):
        stop = _stop(n, limit)
        hit = next(((a, b) for _, a, b, _ in _structured(n)), None)
        if hit is None:
            hit = next((h for _, found in _general(n, stop) for h in found), None)
        if hit is None:
            exists = False if stop == 1 << (4 * n) else None
            witness = None
        else:
            exists = True
            words = codeword_ints(_code(n, *hit, None))
            witness = _code(n, *hit, kernel_iota(words, n)[1])
        rows.append(ItoScanRow(n, exists, witness))
        if progress is not None:
            progress(n, sum(1 for r in rows if r.exists))
    return rows
