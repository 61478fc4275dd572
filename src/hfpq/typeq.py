"""Type-Q codes as binary vectors: generators, codewords, verification,
Hadamard matrix.

A TypeQCode stores the generator words a and b of length 4n; the other
8n - 2 codewords follow from the propelinear product with the canonical
permutations (the word table, kernels_py.codeword_table).  verify_hfp
checks a code's axioms on a and b alone, without the table
(kernels_py.first_violation), and verify_hadamard_group checks the
Hadamard group conditions on a group table, beside the records they
verify.  Coordinates are indexed by the codewords with a zero in the
first position (the set D1): position i is indexed by the unique x in D1
with e_1 = pi_x(e_i), which orders the first half by
e, a^-1, ..., a^-(2n-1) and the second half by ab, a^2 b, ..., a^(2n) b.
d1_in_coordinate_order lists these elements as word-table indices; they
label the rows of the normalized Hadamard matrix and its coordinates.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple

from . import kernels
from .core import BinaryWord, GroupTable
from .gf2poly import Gf2Poly


class NotTypeQCandidate(ValueError):
    """Generator vector cannot belong to a type-Q code."""


class NotHadamardGroup(ValueError):
    """Triple (G, D, u) violates the Hadamard group conditions."""


class VerificationError(ValueError):
    """A code failed verification where a verified code was required."""


class Verdict(NamedTuple):
    """Outcome of an axiom check; witness points at the first violation."""

    ok: bool
    failure: str | None = None
    witness: object = None

    def __bool__(self) -> bool:
        return self.ok


PASS = Verdict(True)


def check_iota(iota: int, n: int) -> None:
    """Reject a kernel exponent outside [0, 2n)."""
    if not 0 <= iota < 2 * n:
        raise ValueError(f"iota {iota} out of range [0, {2 * n})")


# validated like core.BinaryWord: fields here, checks in the subclass
class _TypeQCodeFields(NamedTuple):
    n: int
    a_vec: BinaryWord
    b_vec: BinaryWord
    iota: int | None = None


class TypeQCode(_TypeQCodeFields):
    """Generators of a candidate type-Q code of length 4n.

    iota, when present, asserts that the kernel is {e, u, k, ku} with
    k = a^iota b (up to complement).
    """

    __slots__ = ()

    def __new__(
        cls, n: int, a_vec: BinaryWord, b_vec: BinaryWord, iota: int | None = None
    ) -> "TypeQCode":
        length = 4 * n
        if a_vec.length != length or b_vec.length != length:
            raise ValueError(f"generator words must have length {length}")
        if iota is not None:
            check_iota(iota, n)
        return tuple.__new__(cls, (n, a_vec, b_vec, iota))

    @classmethod
    def _make(cls, iterable: Iterable) -> "TypeQCode":
        return cls(*iterable)

    @property
    def length(self) -> int:
        return 4 * self.n


def make_code(n: int, a_vec: BinaryWord) -> TypeQCode:
    """Build a TypeQCode with b derived from a."""
    return TypeQCode(n, a_vec, derive_b(a_vec, n))


def derive_b(a_vec: BinaryWord, n: int) -> BinaryWord:
    """The generator b determined by a, up to complement; first bit 0.

    Solves (x+1) b_i(x) = a_i(x) + x phi1(a_i'(x)) per half (i != i') and
    couples the half-quotients through b^2 = u.
    """
    if a_vec.length != 4 * n:
        raise ValueError(f"expected word of length {4 * n}")
    bits = kernels.derive_b_bits(a_vec.bits, n)
    if bits is None:
        raise NotTypeQCandidate(
            "a has odd weight, so division by x+1 is not exact"
        )
    return BinaryWord(bits, 4 * n)


def derive_a2(a1: Gf2Poly, iota: int, n: int) -> Gf2Poly:
    """Second half from the first: a2(x) = x^(iota+1) phi1(a1(x)) + u(x)."""
    if a1.m != 2 * n:
        raise ValueError(f"expected modulus degree {2 * n}")
    check_iota(iota, n)
    return Gf2Poly(kernels.derive_a2_bits(a1.coeffs, iota, n), 2 * n)


def kappa_vector(iota: int, n: int) -> BinaryWord:
    """Kernel generator pattern: (v||v) for even iota, (v||v+u) for odd.

    v is the alternating word (0,1,0,1,...,0,1) of length 2n: the ones
    at the odd bits, (4^n - 1) / 3 = 0b0101...01 shifted up by one.
    """
    check_iota(iota, n)
    half = 2 * n
    v = ((1 << half) - 1) // 3 << 1
    w = v if iota % 2 == 0 else v ^ ((1 << half) - 1)
    return BinaryWord(v | (w << half), 4 * n)


# one table: callers share a table only within one code
@lru_cache(maxsize=1)
def _codeword_ints(a_bits: int, b_bits: int, n: int) -> tuple[int, ...]:
    return kernels.codeword_table(a_bits, b_bits, n)


def codeword_ints(code: TypeQCode) -> tuple[int, ...]:
    """Words of a^i (index i) and a^i b (index 4n+i) as ints."""
    return _codeword_ints(code.a_vec.bits, code.b_vec.bits, code.n)


def codeword_set(code: TypeQCode) -> frozenset[int]:
    return frozenset(codeword_ints(code))


def all_codewords(code: TypeQCode) -> tuple[BinaryWord, ...]:
    """The 8n codewords in element order (a^0..a^{4n-1}, a^0 b..a^{4n-1} b)."""
    length = code.length
    return tuple(BinaryWord(w, length) for w in codeword_ints(code))


def verify_hfp(code: TypeQCode) -> Verdict:
    """Propelinear + Hadamard verification of a type-Q candidate.

    Checks, in this order, the defining relations as words (a^(2n) = u,
    b^2 = u, b a = a^-1 b) and weight 2n at a, ..., a^(n-1), and reports
    the first that fails.  The checks read a and b alone
    (kernels_py.first_violation): a^(2n) = u is the parity of the halves,
    b^2 = u is b + rev(b) = u, and b a = a^-1 b is b + rev(a) = x^-1 (a +
    b), because the word of a^(4n-1) b is x^-1 (a + b), tested with pi_a
    applied to both sides; the proofs are in that docstring.  So no word
    table is built.  Given a^(2n) = u, wt(a^n) = 2n and wt(a^(2n-i)) =
    4n - wt(a^i) (the half-profile lemma), so a, ..., a^(2n-1) all have
    weight 2n.  Given the relations these imply weight 2n at every word
    outside {e, u} and the distinctness of the 8n words, which make the
    code Hadamard (the theorem and its proof are in the kernels_py module
    docstring).

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
    facts exhaustively for n <= 8, on the permutation objects of
    tests/oracles.py.

    The verdict is a pure function of (a, b, n), so the last four are
    memoized (_verdict): a transform verifies its input and output, and
    analyze then asks for the same code again.  iota is not read, and a
    Verdict and its witness are immutable, so a memoized verdict is the
    one a fresh check would give.
    """
    return _verdict(code.a_vec.bits, code.b_vec.bits, code.n)


@lru_cache(maxsize=4)
def _verdict(a: int, b: int, n: int) -> Verdict:
    found = kernels.first_violation(a, b, n)
    return PASS if found is None else Verdict(False, *found)


def require_verified(code: TypeQCode) -> None:
    """Raise VerificationError("failure: witness") unless verify_hfp passes."""
    verdict = verify_hfp(code)
    if not verdict.ok:
        raise VerificationError(f"{verdict.failure}: {verdict.witness}")


class HadamardMatrixQ(NamedTuple):
    """Normalized binary Hadamard matrix of a verified type-Q code."""

    order: int
    rows: tuple[int, ...]

    def row_words(self) -> tuple[BinaryWord, ...]:
        return tuple(BinaryWord(r, self.order) for r in self.rows)


def build_matrix(code: TypeQCode) -> HadamardMatrixQ:
    """Rows are the words of the D1 representatives, in coordinate order."""
    require_verified(code)
    words = codeword_ints(code)
    order = d1_in_coordinate_order(code)
    rows = tuple(words[i] for i in order)
    if rows[0] != 0 or any(r & 1 for r in rows):
        raise VerificationError("matrix is not normalized")
    return HadamardMatrixQ(code.length, rows)


def d1_in_coordinate_order(code: TypeQCode) -> tuple[int, ...]:
    """Element indices of the D1 representatives of e, a^-1, ..., a^-(2n-1),
    ab, ..., a^(2n) b, read off the word table.

    The representative of index i is i when bit 0 of its word is clear,
    else the index of g u, i + 2n mod 4n in the same half: u = a^(2n) is
    central and w(g u) = w(g) + u.
    """
    n4 = 4 * code.n
    half = 2 * code.n
    words = codeword_ints(code)
    labels = [(-j) % n4 for j in range(half)] + list(range(n4 + 1, n4 + half + 1))
    return tuple(
        (i + half if i % n4 < half else i - half) if words[i] & 1 else i
        for i in labels
    )


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


class ConstructedCode(NamedTuple):
    """Propelinear Hadamard code built from a Hadamard group table.

    columns[i] is the group element indexing coordinate i+1; sigma_words[g]
    and perms[g] give the codeword and permutation assigned to element g.
    """

    length: int
    columns: tuple[int, ...]
    rows: tuple[int, ...]
    words: frozenset[int]
    sigma_words: tuple[int, ...]
    perms: tuple[tuple[int, ...], ...]

    def word(self, g: int) -> BinaryWord:
        return BinaryWord(self.sigma_words[g], self.length)


def construct_from_group(
    table: GroupTable, D: Iterable[int], u: int
) -> ConstructedCode:
    """Realize a Hadamard group (G, D, u) as a propelinear Hadamard code.

    Rows are sigma(a) for a in D with entries gamma(b*a) over columns b in D;
    sigma(u) is the all-ones word and sigma(D) the first-bit-zero codewords.
    pi_sigma(a) moves the coordinate of b to that of the D-representative
    of b*a^-1.
    """
    verdict = verify_hadamard_group(table, D, u)
    if not verdict.ok:
        raise NotHadamardGroup(f"{verdict.failure}: {verdict.witness}")
    d_list = list(D)
    if table.identity not in d_list:
        d_list = [table.product(u, d) for d in d_list]
    columns = [table.identity] + [d for d in d_list if d != table.identity]
    d_set = frozenset(columns)
    length = len(columns)
    pos = {g: i for i, g in enumerate(columns)}

    def gamma_of(g: int) -> int:
        return 0 if g in d_set else 1

    def rep(g: int) -> int:
        return g if g in d_set else table.product(u, g)

    order = table.order
    sigma = [0] * order
    for a in range(order):
        w = 0
        for i, b in enumerate(columns):
            w |= gamma_of(table.product(b, a)) << i
        sigma[a] = w
    rows = tuple(sigma[a] for a in columns)
    perms = []
    for a in range(order):
        a_inv = table.inv(a)
        images = [0] * length
        for i, b in enumerate(columns):
            images[i] = pos[rep(table.product(b, a_inv))]
        if sorted(images) != list(range(length)):
            raise ValueError("images are not a bijection of 0..L-1")
        perms.append(tuple(images))
    return ConstructedCode(
        length=length,
        columns=tuple(columns),
        rows=rows,
        words=frozenset(sigma),
        sigma_words=tuple(sigma),
        perms=tuple(perms),
    )
