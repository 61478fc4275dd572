"""Type-Q codes as binary vectors: generators, codewords, Hadamard matrix.

A TypeQCode stores the generator words a and b of length 4n; the other
8n - 2 codewords follow from the propelinear product with the canonical
permutations.  Coordinates are indexed by the codewords with a zero in
the first position (the set D1): position i is indexed by the unique
x in D1 with e_1 = pi_x(e_i), which orders the first half by
e, a^-1, ..., a^-(2n-1) and the second half by ab, a^2 b, ..., a^(2n) b.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from . import kernels
from .core import (
    BinaryWord,
    GroupElement,
    GroupTable,
    Perm,
    element_index,
    group_mul,
    type_q_table,
    u_element,
)
from .gf2poly import Gf2Poly


class NotTypeQCandidate(ValueError):
    """Generator vector cannot belong to a type-Q code."""


class NotHadamardGroup(ValueError):
    """Triple (G, D, u) violates the Hadamard group conditions."""


class VerificationError(ValueError):
    """A code failed verification where a verified code was required."""


@dataclass(frozen=True)
class TypeQCode:
    """Generators of a candidate type-Q code of length 4n.

    iota, when present, asserts that the kernel is {e, u, k, ku} with
    k = a^iota b (up to complement).
    """

    n: int
    a_vec: BinaryWord
    b_vec: BinaryWord
    iota: int | None = None

    def __post_init__(self) -> None:
        length = 4 * self.n
        if self.a_vec.length != length or self.b_vec.length != length:
            raise ValueError(f"generator words must have length {length}")
        if self.iota is not None and not 0 <= self.iota < 2 * self.n:
            raise ValueError(f"iota {self.iota} out of range [0, {2 * self.n})")

    @property
    def length(self) -> int:
        return 4 * self.n


def make_code(
    n: int, a_vec: BinaryWord, b_vec: BinaryWord | None = None, iota: int | None = None
) -> TypeQCode:
    """Build a TypeQCode, deriving b from a when not supplied."""
    if b_vec is None:
        b_vec = derive_b(a_vec, n)
    return TypeQCode(n, a_vec, b_vec, iota)


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
    if not 0 <= iota < 2 * n:
        raise ValueError(f"iota {iota} out of range [0, {2 * n})")
    return Gf2Poly(kernels.derive_a2_bits(a1.coeffs, iota, n), 2 * n)


def kappa_vector(iota: int, n: int) -> BinaryWord:
    """Kernel generator pattern: (v||v) for even iota, (v||v+u) for odd.

    v is the alternating word (0,1,0,1,...,0,1) of length 2n.
    """
    if not 0 <= iota < 2 * n:
        raise ValueError(f"iota {iota} out of range [0, {2 * n})")
    half = 2 * n
    v = sum(1 << i for i in range(1, half, 2))
    w = v if iota % 2 == 0 else v ^ ((1 << half) - 1)
    return BinaryWord(v | (w << half), 4 * n)


@lru_cache(maxsize=4096)
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


def element_vector(g: GroupElement, code: TypeQCode) -> BinaryWord:
    """Word of the element a^i b^j under the iterated propelinear product."""
    words = codeword_ints(code)
    return BinaryWord(words[element_index(g, code.n)], code.length)


def element_of_word(code: TypeQCode, bits: int) -> GroupElement:
    """Inverse of element_vector on the codeword set."""
    words = codeword_ints(code)
    idx = words.index(bits)
    n4 = 4 * code.n
    return GroupElement(idx % n4, idx >= n4)


def gamma(code: TypeQCode, g: GroupElement) -> int:
    """First coordinate of the word of g (0 iff g lies in D1)."""
    return codeword_ints(code)[element_index(g, code.n)] & 1


def d1_representative(code: TypeQCode, g: GroupElement) -> GroupElement:
    """Whichever of g, gu has a word with first bit zero."""
    if gamma(code, g) == 0:
        return g
    return group_mul(g, u_element(code.n), code.n)


@dataclass(frozen=True)
class CoordinateIndex:
    """Row and transpose-view labels of the normalized Hadamard matrix.

    row_order lists the D1 representatives of e, a^-1, ..., a^-(2n-1),
    ab, ..., a^(2n) b; these label both the rows and the coordinates.
    col_order lists the D1 representatives of e, a, ..., a^(2n-1),
    ab, ..., a^(2n) b, labelling the columns read as transpose-code words.
    """

    n: int
    row_order: tuple[GroupElement, ...]
    col_order: tuple[GroupElement, ...]


def coordinate_index(code: TypeQCode) -> CoordinateIndex:
    n = code.n
    rows = [GroupElement((-j) % (4 * n), False) for j in range(2 * n)]
    rows += [GroupElement(j, True) for j in range(1, 2 * n + 1)]
    cols = [GroupElement(j, False) for j in range(2 * n)]
    cols += [GroupElement(j, True) for j in range(1, 2 * n + 1)]
    return CoordinateIndex(
        n,
        tuple(d1_representative(code, g) for g in rows),
        tuple(d1_representative(code, g) for g in cols),
    )


@dataclass(frozen=True)
class HadamardMatrixQ:
    """Normalized binary Hadamard matrix of a verified type-Q code."""

    order: int
    rows: tuple[int, ...]
    index: CoordinateIndex

    def row_words(self) -> tuple[BinaryWord, ...]:
        return tuple(BinaryWord(r, self.order) for r in self.rows)

    def entry(self, i: int, j: int) -> int:
        """Entry at 0-based (row i, column j)."""
        return (self.rows[i] >> j) & 1

    def column(self, j: int) -> int:
        out = 0
        for i, row in enumerate(self.rows):
            out |= ((row >> j) & 1) << i
        return out

    def transposed_rows(self) -> tuple[int, ...]:
        return tuple(self.column(j) for j in range(self.order))


def matrix_entry(x: GroupElement, y: GroupElement, code: TypeQCode) -> int:
    """Entry at (row x, column indexed by y): gamma_x + gamma_y + gamma_(yx).

    The coordinate indexed by y in the word of x is the first bit of
    pi_y(word of x), i.e. gamma of the product y*x, corrected by the
    gammas of the chosen representatives.
    """
    yx = group_mul(y, x, code.n)
    return gamma(code, x) ^ gamma(code, y) ^ gamma(code, yx)


def build_matrix(code: TypeQCode) -> HadamardMatrixQ:
    """Rows are the D1 representatives of the row_order elements."""
    from .analysis import verify_hfp

    verdict = verify_hfp(code)
    if not verdict.ok:
        raise VerificationError(f"{verdict.failure}: {verdict.witness}")
    idx = coordinate_index(code)
    words = codeword_ints(code)
    n4 = 4 * code.n
    rows = tuple(words[element_index(g, code.n)] for g in idx.row_order)
    if rows[0] != 0 or any(r & 1 for r in rows):
        raise VerificationError("matrix is not normalized")
    return HadamardMatrixQ(n4, rows, idx)


def d1_indices(code: TypeQCode) -> frozenset[int]:
    """Element indices of the codewords with first bit zero."""
    return frozenset(
        i for i, w in enumerate(codeword_ints(code)) if (w & 1) == 0
    )


def d1_in_coordinate_order(code: TypeQCode) -> tuple[int, ...]:
    """Element indices of D1 in coordinate order (for exact round trips)."""
    return tuple(
        element_index(g, code.n) for g in coordinate_index(code).row_order
    )


def inverse_set(code: TypeQCode, D: Iterable[int]) -> frozenset[int]:
    """Indices of the inverses of an element-index subset."""
    table = type_q_table(code.n)
    return frozenset(table.inv(i) for i in D)


@dataclass(frozen=True)
class ConstructedCode:
    """Propelinear Hadamard code built from a Hadamard group table.

    columns[i] is the group element indexing coordinate i+1; sigma_words[g]
    and perms[g] give the codeword and permutation assigned to element g.
    """

    length: int
    columns: tuple[int, ...]
    rows: tuple[int, ...]
    words: frozenset[int]
    sigma_words: tuple[int, ...]
    perms: tuple[Perm, ...]

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
    from .analysis import verify_hadamard_group

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
        perms.append(Perm(tuple(images)))
    return ConstructedCode(
        length=length,
        columns=tuple(columns),
        rows=rows,
        words=frozenset(sigma),
        sigma_words=tuple(sigma),
        perms=tuple(perms),
    )
