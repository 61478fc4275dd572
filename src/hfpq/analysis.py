"""Rank, kernel, axiom verification and theorem-bound classification.

Rank is the GF(2) dimension of the linear span of the codeword set; the
kernel K(C) collects the translations z with C + z = C.  With the zero
word in C the kernel is a subspace of C, so only codewords need testing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from .bitops import reverse_bits
from .core import BinaryWord, GroupElement, GroupTable, canonical_perm
from .typeq import TypeQCode, codeword_ints


class NotKernelElement(ValueError):
    """Word is not a kernel element of the code."""


class IndexingInconsistency(RuntimeError):
    """Self-check failure: derived data disagrees with the code's indexing."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of an axiom check; witness points at the first violation."""

    ok: bool
    failure: str | None = None
    witness: object = None

    def __bool__(self) -> bool:
        return self.ok


PASS = Verdict(True)


def two_adic_split(length: int) -> tuple[int, int]:
    """(s, n') with length = 2^s * n' and n' odd."""
    s = 0
    while length % 2 == 0:
        length //= 2
        s += 1
    return s, length


def _insert_row(pivots: dict[int, int], w: int) -> bool:
    """Reduce w by the pivot rows, keyed by leading bit (w.bit_length()).

    A nonzero residue becomes a new pivot row; True iff w was independent
    of the rows already held.
    """
    while w:
        lead = w.bit_length()
        row = pivots.get(lead)
        if row is None:
            pivots[lead] = w
            return True
        w ^= row
    return False


def rank_of_ints(words: Iterable[int]) -> int:
    """GF(2) rank by elimination on int rows."""
    pivots: dict[int, int] = {}
    for w in words:
        _insert_row(pivots, w)
    return len(pivots)


def compute_rank(codewords: Iterable[BinaryWord]) -> int:
    """Dimension of the linear span of the codeword set."""
    words = list(codewords)
    if not words:
        raise ValueError("empty codeword set")
    length = words[0].length
    if any(w.length != length for w in words):
        raise ValueError("codewords of mixed lengths")
    return rank_of_ints(w.bits for w in words)


def kernel_ints(words: Iterable[int]) -> list[int]:
    """Kernel of a codeword set containing 0, as sorted ints.

    The kernel is filtered word by word: after the pass for c, only the
    z with z + c in the code remain, and most candidates fail within the
    first few c.
    """
    word_set = frozenset(words)
    if 0 not in word_set:
        raise ValueError("zero word must belong to the code")
    kernel = sorted(word_set)
    for c in word_set:
        kernel = [z for z in kernel if z ^ c in word_set]
    return kernel


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


def _kernel_basis(kernel: list[int], length: int) -> tuple[int, list[int]]:
    """(dimension, basis): the all-ones word leads, then first-bit-zero
    representatives in increasing order."""
    u = (1 << length) - 1
    rest = sorted((z for z in kernel if z != u), key=lambda z: (z & 1, z))
    ordered = ([u] if u in kernel else []) + rest
    pivots: dict[int, int] = {}
    basis = [z for z in ordered if _insert_row(pivots, z)]
    dim = len(basis)
    if 1 << dim != len(kernel):
        raise AssertionError("kernel is not a linear space")
    return dim, basis


def compute_kernel(codewords: Iterable[BinaryWord]) -> tuple[int, list[BinaryWord]]:
    """(dimension, basis) of K(C); the all-ones word leads the basis."""
    words = list(codewords)
    if not words:
        raise ValueError("empty codeword set")
    length = words[0].length
    if any(w.length != length for w in words):
        raise ValueError("codewords of mixed lengths")
    kernel = kernel_ints(w.bits for w in words)
    dim, basis = _kernel_basis(kernel, length)
    return dim, [BinaryWord(b, length) for b in basis]


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


def rank_via_generators(code: TypeQCode) -> int:
    """Rank from the span {a, xa, ..., x^(2n-1)a, kappa}; needs kernel dim 2."""
    from .bitops import rot_halves

    words = codeword_ints(code)
    kernel = kernel_ints(words)
    length = code.length
    u = (1 << length) - 1
    if len(kernel) != 4:
        raise ValueError("generator span shortcut requires kernel dimension 2")
    kappa = next(z for z in kernel if z not in (0, u))
    gens = [rot_halves(code.a_vec.bits, 2 * code.n, j) for j in range(2 * code.n)]
    gens.append(kappa)
    return rank_of_ints(gens)


def is_linear_code(words: Iterable[int]) -> bool:
    """Closure of the word set under XOR (0 assumed present)."""
    word_set = frozenset(words)
    return all((x ^ y) in word_set for x in word_set for y in word_set)


def verify_hfp(code: TypeQCode) -> Verdict:
    """Propelinear + Hadamard verification of a type-Q candidate.

    Checks, in this order, the defining relations as words (a^(2n) = u,
    b^2 = u, b a = a^-1 b) and weight 2n at a, ..., a^(n-1).  Given
    a^(2n) = u, wt(a^n) = 2n and wt(a^(2n-i)) = 4n - wt(a^i) (the
    half-profile lemma), so a, ..., a^(2n-1) all have weight 2n.  Given
    the relations these imply weight 2n at every word outside {e, u} and
    the distinctness of the 8n words, which make the code Hadamard (the
    theorem and its proof are in the kernels_py module docstring).

    The permutation axioms depend on n alone, not on (a, b), so they are
    proved here once instead of checked per code.  Every pi_g is
    pi_a^k pi_b^j with k = i mod 2n for g = a^i b^j, pi_a the rotation by
    one inside each half and pi_b the full reversal.  For j = 0 and
    k != 0, a rotation by k inside each half has no fixed point; k = 0
    exactly for g in {e, u}, where pi_g is the identity.  For j = 1, pi_b
    swaps the two halves and pi_a^k keeps each half, so there is no fixed
    point.  pi_a^(2n) = pi_b^2 = id and pi_b pi_a pi_b = pi_a^-1 match the
    defining relations a^(4n) = e, b^2 = a^(2n) and b^-1 a b = a^-1, so
    g -> pi_g is a homomorphism.  tests/test_core.py checks all three
    facts exhaustively for n <= 8.
    """
    n = code.n
    length = code.length
    u = (1 << length) - 1
    words = codeword_ints(code)

    if words[2 * n] != u:
        return Verdict(False, "RelationViolation", "a^{2n} != u")
    b = words[4 * n]
    if b ^ reverse_bits(b, length) != u:
        return Verdict(False, "RelationViolation", "b^2 != u")
    if b ^ reverse_bits(words[1], length) != words[4 * n + (4 * n - 1)]:
        return Verdict(False, "RelationViolation", "b a != a^{-1} b")

    for i in range(1, n):
        weight = words[i].bit_count()
        if weight != 2 * n:
            return Verdict(False, "WeightViolation", (GroupElement(i, False), weight))
    return PASS


def verify_hadamard_group(table: GroupTable, D: Iterable[int], u: int) -> Verdict:
    """Exhaustive check of the Hadamard group conditions on (G, D, u).

    Condition (i): |aD n D| = |G|/4 for a outside <u>; condition (ii):
    |aD n {b, bu}| = 1 for all a, b.  Also checks the derived facts that
    D and uD are disjoint and cover G, and that u is a central involution.
    """
    order = table.order
    if order % 8 != 0:
        return Verdict(False, "OrderViolation", order)
    n = order // 8
    d_set = frozenset(D)
    if len(d_set) != 4 * n:
        return Verdict(False, "SubsetSizeViolation", len(d_set))
    e = table.identity
    if u == e or table.product(u, u) != e:
        return Verdict(False, "InvolutionViolation", u)
    if not table.is_central(u):
        return Verdict(False, "CentralityViolation", u)
    u_d = frozenset(table.product(u, d) for d in d_set)
    if d_set & u_d:
        return Verdict(False, "DisjointnessViolation", sorted(d_set & u_d)[0])
    if len(d_set | u_d) != order:
        return Verdict(False, "CoverViolation", None)
    a_d = {a: frozenset(table.product(a, d) for d in d_set) for a in range(order)}
    for a in range(order):
        if a == e or a == u:
            continue
        inter = len(a_d[a] & d_set)
        if inter != 2 * n:
            return Verdict(False, "IntersectionViolation", (a, inter))
    for a in range(order):
        for b in range(order):
            count = (b in a_d[a]) + (table.product(u, b) in a_d[a])
            if count != 1:
                return Verdict(False, "TransversalViolation", (a, b, count))
    return PASS


def project_onto_support(
    codewords: Iterable[BinaryWord], s: BinaryWord
) -> set[BinaryWord]:
    """Restriction of every codeword to the support of the kernel word s."""
    words = list(codewords)
    if any(w.length != s.length for w in words):
        raise ValueError("codewords of mixed lengths")
    word_set = frozenset(w.bits for w in words)
    u = (1 << s.length) - 1
    if s.bits in (0, u):
        raise ValueError("projection requires s outside {e, u}")
    if any((s.bits ^ c) not in word_set for c in word_set):
        raise NotKernelElement(s.to_string())
    positions = [i for i in range(s.length) if (s.bits >> i) & 1]
    out = set()
    for w in word_set:
        bits = 0
        for j, i in enumerate(positions):
            bits |= ((w >> i) & 1) << j
        out.add(BinaryWord(bits, len(positions)))
    return out


@dataclass(frozen=True)
class AnalysisReport:
    """Structural invariants of a code of length 4n = 2^s * n'."""

    length: int
    s: int
    n_prime: int
    rank: int
    kernel_dim: int
    kernel_basis: tuple[BinaryWord, ...]
    is_linear: bool
    is_hfp: bool
    bound_violations: tuple[str, ...]
    a_in_kernel: bool | None = None
    failure: str | None = None
    witness: object = None


def classify(report: AnalysisReport) -> tuple[str, ...]:
    """Violated theorem bounds (empty when consistent).

    Any violation on a verified code signals an implementation bug: the
    bounds are proved facts about type-Q codes.
    """
    r, k, s = report.rank, report.kernel_dim, report.s
    n2 = report.length // 2
    violations = []
    ceiling = (1 << (s + 1)) * report.n_prime // (1 << k) + k - 1
    if r > ceiling:
        violations.append(f"rank {r} exceeds coset bound {ceiling}")
    if report.is_linear:
        if report.length != 1 << s:
            violations.append("linear code of length not a power of two")
        if not (r == k == s + 1):
            violations.append(f"linear code with (r, k) = ({r}, {k}) != s+1")
        return tuple(violations)
    if not 1 <= k <= s - 1:
        violations.append(f"kernel dimension {k} outside [1, {s - 1}]")
    if s == 2:
        if r != report.length - 1:
            violations.append(f"s=2 rank {r} != {report.length - 1}")
        if k != 1:
            violations.append(f"s=2 kernel dimension {k} != 1")
    elif s == 3:
        if r != n2:
            violations.append(f"s=3 rank {r} != {n2}")
        if k not in (1, 2):
            violations.append(f"s=3 kernel dimension {k} not in {{1, 2}}")
    else:
        if r > n2:
            violations.append(f"s>3 rank {r} > {n2}")
        if k not in (1, 2):
            violations.append(f"s>3 kernel dimension {k} not in {{1, 2}}")
    if report.a_in_kernel:
        violations.append("nonlinear code with a in K(C)")
    return tuple(violations)


def analyze(code: TypeQCode) -> AnalysisReport:
    """Verify, then compute rank/kernel and check every applicable bound.

    The rank is taken over the 4n words of a, ..., a^(2n) and
    b, ..., a^(2n-1) b.  pi_(a^(2n)) = id, so the propelinear product gives
    w(a^(2n) g) = w(a^(2n)) + w(g), which is u + w(g) on a verified code.
    The word of e is 0, and every other word is one of the 4n plus
    w(a^(2n)), itself one of them, so the span is the same.  The word
    table is built by that product for any (a, b), so this needs no
    verification.
    """
    words = codeword_ints(code)
    length = code.length
    n = code.n
    verdict = verify_hfp(code)
    rank = rank_of_ints(words[1 : 2 * n + 1] + words[4 * n : 6 * n])
    kernel = kernel_ints(words)
    dim, basis = _kernel_basis(kernel, length)
    s, n_prime = two_adic_split(length)
    linear = is_linear_code(words)
    report = AnalysisReport(
        length=length,
        s=s,
        n_prime=n_prime,
        rank=rank,
        kernel_dim=dim,
        kernel_basis=tuple(BinaryWord(b, length) for b in basis),
        is_linear=linear,
        is_hfp=verdict.ok,
        bound_violations=(),
        a_in_kernel=code.a_vec.bits in set(kernel),
        failure=verdict.failure,
        witness=verdict.witness,
    )
    if verdict.ok:
        violations = classify(report)
        if violations:
            report = replace(report, bound_violations=violations)
    return report
