"""Oracles used only by the tests, independent of the fast paths in src/.

The coordinate permutations as objects, with the propelinear product, the
type-Q group's inverses and powers and its canonical permutations pi_g
(against the word table, kernels_py.codeword_table), the word and the
matrix entry of a group element (against typeq.build_matrix), the rank by
elimination (against analysis.span_rank), the kernel by filtering the
word table and by automorphisms (against analysis.structured_iota), the
matrix's columns, all at once or one at a time, and the column
relabelling of the transpose (against transforms.transpose_code, which
reads two columns off a and b), the right-hand side of the
squared-factorization identity (against
transforms.doubled_criterion_operand), the class test and the profile
table over every half-word (against search._quotient and
search._JoinTable), the join table profiled at once over every odd
necklace (against search._JoinTable, which profiles one class at a
time), the verifier that reads the word table (against
typeq.verify_hfp, which reads a and b alone), the orbit of a generator
word as a set (against search._expand), the division by x + 1 one bit
at a time (against gf2poly.div_x_plus_1), b derived with one division
per half (against kernels_py.derive_b_bits, which divides once), and the
power test of a alone with its own parity check (against
kernels_py.scan_general, whose words all have odd halves), and the loops
that gf2poly and typeq replaced by whole-int arithmetic: the product one
bit at a time, the gcd by repeated division, the interleave pair by pair
and the alternating word as a sum (against gf2poly.poly_mul,
gf2poly.poly_gcd, gf2poly.interleave and typeq.kappa_vector).
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterable, NamedTuple

from hfpq import kernels
from hfpq.analysis import (
    IndexingInconsistency,
    _kernel_basis,
    kernel_ints,
    rank_of_ints,
)
from hfpq.core import BinaryWord, GroupElement, element_index, group_mul
from hfpq.gf2poly import poly_divmod, poly_mul, reverse_bits, rotl
from hfpq.kernels_py import _bad_power
from hfpq.typeq import (
    PASS,
    HadamardMatrixQ,
    TypeQCode,
    Verdict,
    build_matrix,
    check_iota,
    codeword_ints,
    d1_in_coordinate_order,
)


# validated like hfpq.core.BinaryWord: fields here, checks in the subclass
class _PermFields(NamedTuple):
    images: tuple[int, ...]


class Perm(_PermFields):
    """Permutation of coordinate positions; images[i] = pi(i), 0-based.

    len() is the number of positions, not the number of fields.
    """

    __slots__ = ()

    def __new__(cls, images: tuple[int, ...]) -> "Perm":
        if sorted(images) != list(range(len(images))):
            raise ValueError("images are not a bijection of 0..L-1")
        return tuple.__new__(cls, (images,))

    @classmethod
    def _make(cls, iterable: Iterable) -> "Perm":
        return cls(*iterable)

    @classmethod
    def identity(cls, length: int) -> "Perm":
        return cls(tuple(range(length)))

    @classmethod
    def from_cycles(cls, length: int, cycles: Iterable[Iterable[int]]) -> "Perm":
        """Build from disjoint cycles in 1-based notation."""
        images = list(range(length))
        for cycle in cycles:
            cyc = [c - 1 for c in cycle]
            for i, c in enumerate(cyc):
                images[c] = cyc[(i + 1) % len(cyc)]
        return cls(tuple(images))

    def __len__(self) -> int:
        return len(self.images)

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def fixed_points(self) -> tuple[int, ...]:
        """1-based positions fixed by the permutation."""
        return tuple(i + 1 for i, j in enumerate(self.images) if i == j)

    def apply_bits(self, bits: int) -> int:
        out = 0
        i = 0
        while bits:
            if bits & 1:
                out |= 1 << self.images[i]
            bits >>= 1
            i += 1
        return out

    def order(self) -> int:
        n = 1
        p = self
        ident = Perm.identity(len(self.images))
        while p != ident:
            p = compose(p, self)
            n += 1
        return n


def apply_perm(p: Perm, w: BinaryWord) -> BinaryWord:
    """Place the value of position i at position pi(i)."""
    if len(p) != w.length:
        raise ValueError(f"length mismatch: perm {len(p)} vs word {w.length}")
    return BinaryWord(p.apply_bits(w.bits), w.length)


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(i) = p(q(i)); apply_perm(compose(p, q), w) applies q first."""
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} != {len(q)}")
    return Perm(tuple(p.images[j] for j in q.images))


def prop_mul(x: BinaryWord, pi_x: Perm, y: BinaryWord) -> BinaryWord:
    """Propelinear product x * y = x + pi_x(y)."""
    return x ^ apply_perm(pi_x, y)


IDENTITY = GroupElement(0, False)


def element(exp_a: int, has_b: bool, n: int) -> GroupElement:
    """Normalize the exponent into [0, 4n)."""
    return GroupElement(exp_a % (4 * n), bool(has_b))


def u_element(n: int) -> GroupElement:
    """The central involution a^{2n} = b^2."""
    return GroupElement(2 * n, False)


def group_inv(g: GroupElement, n: int) -> GroupElement:
    order_a = 4 * n
    if not g.has_b:
        return GroupElement((-g.exp_a) % order_a, False)
    return GroupElement((g.exp_a + 2 * n) % order_a, True)


def group_pow(g: GroupElement, k: int, n: int) -> GroupElement:
    if k < 0:
        return group_pow(group_inv(g, n), -k, n)
    out = IDENTITY
    for _ in range(k):
        out = group_mul(out, g, n)
    return out


def pi_a(n: int) -> Perm:
    """Rotation by one inside each half: (1,...,2n)(2n+1,...,4n)."""
    half = 2 * n
    images = [(i + 1) % half for i in range(half)]
    images += [half + ((i + 1) % half) for i in range(half)]
    return Perm(tuple(images))


def pi_b(n: int) -> Perm:
    """Order-2 reflection (1,4n)(2,4n-1)...(2n,2n+1)."""
    length = 4 * n
    return Perm(tuple(length - 1 - i for i in range(length)))


def canonical_perm(g: GroupElement, n: int) -> Perm:
    """pi_g = pi_a^exp_a o pi_b^has_b; kernel of g -> pi_g is {e, a^{2n}}."""
    half = 2 * n
    k = g.exp_a % half
    if g.has_b:
        # pi_a^k o pi_b: i -> pi_a^k(4n-1-i)
        images = []
        for i in range(4 * n):
            j = 4 * n - 1 - i
            if j < half:
                images.append((j + k) % half)
            else:
                images.append(half + ((j - half + k) % half))
        return Perm(tuple(images))
    images = [(i + k) % half for i in range(half)]
    images += [half + ((i + k) % half) for i in range(half)]
    return Perm(tuple(images))


def d1_elements(code: TypeQCode) -> tuple[GroupElement, ...]:
    """The matrix rows' group elements: d1_in_coordinate_order as a^i b^j."""
    n4 = 4 * code.n
    return tuple(GroupElement(i % n4, i >= n4) for i in d1_in_coordinate_order(code))


def element_vector(g: GroupElement, code: TypeQCode) -> BinaryWord:
    """Word of the element a^i b^j under the iterated propelinear product."""
    words = codeword_ints(code)
    return BinaryWord(words[element_index(g, code.n)], code.length)


def gamma(code: TypeQCode, g: GroupElement) -> int:
    """First coordinate of the word of g (0 iff g lies in D1)."""
    return codeword_ints(code)[element_index(g, code.n)] & 1


def matrix_entry(x: GroupElement, y: GroupElement, code: TypeQCode) -> int:
    """Entry at (row x, column indexed by y): gamma_x + gamma_y + gamma_(yx).

    The coordinate indexed by y in the word of x is the first bit of
    pi_y(word of x), i.e. gamma of the product y*x, corrected by the
    gammas of the chosen representatives.
    """
    yx = group_mul(y, x, code.n)
    return gamma(code, x) ^ gamma(code, y) ^ gamma(code, yx)


def rot_halves(v: int, half: int, k: int = 1) -> int:
    """Rotate both halves of a 2*half-bit word by k (coordinate action of x^k)."""
    mask = (1 << half) - 1
    lo = rotl(v & mask, k, half)
    hi = rotl(v >> half, k, half)
    return lo | (hi << half)


def random_odd_halves(rng: random.Random, n: int) -> int:
    """A random 4n-bit word whose two halves both have odd weight."""
    half = 2 * n
    a1, a2 = rng.getrandbits(half) | 1, rng.getrandbits(half) | 1
    # toggle one bit above bit 0 when the weight is even
    a1 ^= (a1.bit_count() & 1 ^ 1) << rng.randrange(1, half)
    a2 ^= (a2.bit_count() & 1 ^ 1) << rng.randrange(1, half)
    return a1 | a2 << half


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


def transposed_rows(matrix: HadamardMatrixQ) -> tuple[int, ...]:
    """Columns as ints (bit i of column j is bit j of row i).

    The rows' bit strings, read from bit 0, are joined last row first;
    column j is every order-th character from position j.
    """
    order = matrix.order
    top = 1 << order
    s = "".join(bin(row | top)[:2:-1] for row in reversed(matrix.rows))
    return tuple(int(s[j::order], 2) for j in range(order))


def column(rows: tuple[int, ...], j: int) -> int:
    """Column j of the matrix with these rows: bit i is bit j of rows[i]."""
    bit = 1 << j
    return int("".join("1" if row & bit else "0" for row in reversed(rows)), 2)


def flip_rows(rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    """H's rows in transpose_code's order: e, a, ..., a^(2n-1), ab, ..., a^(2n) b.

    H lists the first half as e, a^-1, ..., a^-(2n-1); reversing all but
    row e puts the columns in canonical coordinate order.
    """
    half = 2 * n
    return rows[:1] + rows[half - 1 : 0 : -1] + rows[half:]


def flipped_columns(code: TypeQCode) -> tuple[int, ...]:
    """All 4n columns of H with the rows in transpose_code's order."""
    rows = flip_rows(build_matrix(code).rows, code.n)
    return transposed_rows(HadamardMatrixQ(code.length, rows))


def table_rows(code: TypeQCode) -> tuple[int, ...]:
    """build_matrix's rows, read off the word table without verification."""
    words = codeword_ints(code)
    return tuple(words[i] for i in d1_in_coordinate_order(code))


def column_code(code: TypeQCode) -> frozenset[int]:
    """The transpose's 8n words the quadratic way: every column and its complement."""
    u = (1 << code.length) - 1
    cols = flipped_columns(code)
    return frozenset(cols) | frozenset(c ^ u for c in cols)


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


def least_in_class(x: int, half: int) -> bool:
    """Whether x is the least of its rotations and of its complement's rotations."""
    mask = (1 << half) - 1
    for y in (x ^ mask, x):
        for k in range(half):
            if rotl(y, k, half) < x:
                return False
    return True


def profile_class_by_words(w: int, n: int) -> dict[tuple[int, ...], list[int]]:
    """Every half-word of weight w, in increasing order, keyed by profile."""
    table: dict[tuple[int, ...], list[int]] = {}
    for a1 in sorted(sum(1 << i for i in c) for c in combinations(range(2 * n), w)):
        table.setdefault(kernels.half_profile(a1, n), []).append(a1)
    return table


def profile_table(n: int) -> dict[tuple[int, ...], list[int]]:
    """The join table profiled at once: every odd necklace, keyed by profile.

    A necklace is the least of its rotations, found here by trying every
    rotation of every odd half-word, in increasing order.
    """
    half = 2 * n
    table: dict[tuple[int, ...], list[int]] = {}
    for h in range(1 << half):
        if h.bit_count() & 1 and all(rotl(h, k, half) >= h for k in range(1, half)):
            table.setdefault(kernels.half_profile(h, n), []).append(h)
    return table


def verify_hfp_on_table(code: TypeQCode) -> Verdict:
    """typeq.verify_hfp read off the cached 8n-word table.

    The same checks in the same order, on the table's words a^(2n), b,
    a, a^(4n-1) b and a, ..., a^(n-1), with the same failures and
    witnesses.
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


def div_x_plus_1_by_bit(p: int, width: int) -> int:
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


def derive_b_by_two_quotients(a: int, n: int) -> int | None:
    """kernels_py.derive_b_bits dividing both halves by x+1, one bit at a time.

    Each half-quotient is found on its own; the second is then
    complemented when rev(q2) = q1, since b^2 = u needs q1 + rev(q2) = u.
    """
    half = 2 * n
    mask = (1 << half) - 1
    a1 = a & mask
    a2 = a >> half
    r2 = reverse_bits(a2, half)
    d1 = a1 ^ (((r2 << 1) | (r2 >> (half - 1))) & mask)
    if d1.bit_count() & 1:
        return None
    r1 = reverse_bits(a1, half)
    d2 = a2 ^ (((r1 << 1) | (r1 >> (half - 1))) & mask)
    q1 = div_x_plus_1_by_bit(d1, half)
    q2 = div_x_plus_1_by_bit(d2, half)
    if q1 == reverse_bits(q2, half):
        q2 ^= mask
    return q1 | (q2 << half)


def sigma(words: Iterable[int], s: int, half: int) -> list[int]:
    """sigma_s of each word (0 <= s <= half): half 1 rotated by +s, half 2 by -s."""
    mask = (1 << half) - 1
    t = half - s
    return [
        (w << s | (w & mask) >> t) & mask
        | ((w >> (half + s) | (w >> half) << t) & mask) << half
        for w in words
    ]


def orbit(a: int, n: int) -> set[int]:
    """The distinct images of a under sigma_s (s < 2n) and the complement.

    The set that search._expand walks without one; the proof that the
    images of a hit are hits is there.
    """
    half = 2 * n
    u = (1 << (2 * half)) - 1
    return {w for s in range(half) for w in sigma((a, a ^ u), s, half)}


def powers_ok(a: int, n: int) -> bool:
    """Whether a^(2n) = u and wt(a^i) = 2n for 0 < i < 2n.

    This decides whether a generates a type-Q code (kernels_py module
    docstring).  a^(2n) = u is the parity of the halves, and given it
    wt(a^n) = 2n and wt(a^(2n-i)) = 4n - wt(a^i) (the half-profile lemma),
    so only a, ..., a^(n-1) are visited.
    """
    mask = (1 << (2 * n)) - 1
    return bool((a & mask).bit_count() & (a >> (2 * n)).bit_count() & 1) and (
        _bad_power(a, n) is None
    )


def poly_mul_by_bit(p: int, q: int) -> int:
    """Carry-less product of plain polynomials."""
    out = 0
    while q:
        if q & 1:
            out ^= p
        p <<= 1
        q >>= 1
    return out


def poly_mod(p: int, q: int) -> int:
    return poly_divmod(p, q)[1]


def poly_gcd_by_divmod(p: int, q: int) -> int:
    """Greatest common divisor of plain polynomials (monic over GF(2))."""
    if p == 0 and q == 0:
        raise ValueError("gcd of two zero polynomials is undefined")
    while q:
        p, q = q, poly_mod(p, q)
    return p


def interleave_by_zip(even: int, odd: int, width: int) -> int:
    """even(x^2) + x odd(x^2): bit i of even to bit 2i, of odd to bit 2i+1.

    even and odd lie below 1 << width; both strings are read most
    significant bit first, so each pair is (odd bit, even bit).
    """
    pairs = zip(f"{odd:0{width}b}", f"{even:0{width}b}")
    return int("".join(o + e for o, e in pairs), 2)


def kappa_by_sum(iota: int, n: int) -> BinaryWord:
    """Kernel generator pattern: (v||v) for even iota, (v||v+u) for odd.

    v is the alternating word (0,1,0,1,...,0,1) of length 2n.
    """
    check_iota(iota, n)
    half = 2 * n
    v = sum(1 << i for i in range(1, half, 2))
    w = v if iota % 2 == 0 else v ^ ((1 << half) - 1)
    return BinaryWord(v | (w << half), 4 * n)
