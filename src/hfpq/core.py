"""Binary words and the abstract type-Q group.

Words are length-L bit vectors over GF(2) (int bitset, bit i = coordinate
i+1).  A permutation pi acts on words by pi(v)_{pi(i)} = v_i, so
pi(e_i) = e_{pi(i)}.  The propelinear product is x * y = x + pi_x(y).

The type-Q group of order 8n is <a, b : a^{4n} = e, a^{2n} = b^2,
b^{-1} a b = a^{-1}>; elements are kept in the normal form a^i b^j with
0 <= i < 4n, j in {0, 1}.  Its canonical coordinate permutations on 4n
positions are pi_a = (1,...,2n)(2n+1,...,4n) and pi_b = (1,4n)(2,4n-1)...
(2n,2n+1); g -> pi_g is a homomorphism with kernel {e, a^{2n}}.  The
library applies them only inside the word table (kernels_py.codeword_table);
tests/oracles.py holds them as permutation objects, the reference the
tests check the word table against.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple


# A validated value type is a NamedTuple of its fields plus a subclass whose
# __new__ checks them: typing.NamedTuple forbids __new__ and _make in its own
# body.  The subclass's _make calls cls(...), so _replace checks too.
class _BinaryWordFields(NamedTuple):
    bits: int
    length: int


class BinaryWord(_BinaryWordFields):
    """Fixed-length bit vector over GF(2); positions are 1-based externally."""

    __slots__ = ()

    def __new__(cls, bits: int, length: int) -> "BinaryWord":
        if length <= 0:
            raise ValueError("word length must be positive")
        if bits >> length:
            raise ValueError("bits exceed word length")
        return tuple.__new__(cls, (bits, length))

    @classmethod
    def _make(cls, iterable: Iterable) -> "BinaryWord":
        return cls(*iterable)

    @classmethod
    def zero(cls, length: int) -> "BinaryWord":
        return cls(0, length)

    @classmethod
    def all_ones(cls, length: int) -> "BinaryWord":
        return cls((1 << length) - 1, length)

    @classmethod
    def from_string(cls, s: str) -> "BinaryWord":
        """Parse a 0/1 string; leftmost character is position 1."""
        if not s or s.strip("01"):
            raise ValueError(f"not a 0/1 string: {s!r}")
        return cls(int(s[::-1], 2), len(s))

    def to_string(self) -> str:
        return bin(self.bits | 1 << self.length)[:2:-1]

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def bit(self, i: int) -> int:
        """Value of position i (1-based)."""
        if not 1 <= i <= self.length:
            raise ValueError(f"position {i} out of range 1..{self.length}")
        return (self.bits >> (i - 1)) & 1

    def support(self) -> tuple[int, ...]:
        """1-based positions of the nonzero coordinates."""
        return tuple(i + 1 for i in range(self.length) if (self.bits >> i) & 1)

    def complement(self) -> "BinaryWord":
        return BinaryWord(self.bits ^ ((1 << self.length) - 1), self.length)

    def _check_same_length(self, other: "BinaryWord") -> None:
        if self.length != other.length:
            raise ValueError(f"length mismatch: {self.length} != {other.length}")

    def __xor__(self, other: "BinaryWord") -> "BinaryWord":
        self._check_same_length(other)
        return BinaryWord(self.bits ^ other.bits, self.length)


class GroupElement(NamedTuple):
    """Normal form a^exp_a * b^has_b of the type-Q group."""

    exp_a: int
    has_b: bool

    def __repr__(self) -> str:
        return f"a^{self.exp_a}b" if self.has_b else f"a^{self.exp_a}"


def group_mul(g: GroupElement, h: GroupElement, n: int) -> GroupElement:
    """Product in normal form via b a^j = a^{-j} b and b^2 = a^{2n}."""
    order_a = 4 * n
    if not g.has_b:
        return GroupElement((g.exp_a + h.exp_a) % order_a, h.has_b)
    if not h.has_b:
        return GroupElement((g.exp_a - h.exp_a) % order_a, True)
    return GroupElement((g.exp_a - h.exp_a + 2 * n) % order_a, False)


def all_elements(n: int) -> Iterator[GroupElement]:
    """The 8n elements: a^0..a^{4n-1}, then a^0 b..a^{4n-1} b."""
    for has_b in (False, True):
        for i in range(4 * n):
            yield GroupElement(i, has_b)


def element_index(g: GroupElement, n: int) -> int:
    """Index of g in the all_elements(n) ordering."""
    return g.exp_a + (4 * n if g.has_b else 0)


class _GroupTableFields(NamedTuple):
    mul: tuple[tuple[int, ...], ...]
    identity: int


class GroupTable(_GroupTableFields):
    """Multiplication table of a finite group; entries are element indices."""

    __slots__ = ()

    def __new__(cls, mul: tuple[tuple[int, ...], ...], identity: int) -> "GroupTable":
        m = len(mul)
        for row in mul:
            if len(row) != m:
                raise ValueError("multiplication table is not square")
        return tuple.__new__(cls, (mul, identity))

    @classmethod
    def _make(cls, iterable: Iterable) -> "GroupTable":
        return cls(*iterable)

    @property
    def order(self) -> int:
        return len(self.mul)

    def product(self, i: int, j: int) -> int:
        return self.mul[i][j]

    def inv(self, i: int) -> int:
        for j in range(self.order):
            if self.mul[i][j] == self.identity:
                return j
        raise ValueError(f"element {i} has no inverse; not a group table")

    def is_central(self, i: int) -> bool:
        return all(self.mul[i][j] == self.mul[j][i] for j in range(self.order))


def type_q_table(n: int) -> GroupTable:
    """Multiplication table of the abstract type-Q group of order 8n."""
    elems = list(all_elements(n))
    mul = tuple(
        tuple(element_index(group_mul(g, h, n), n) for h in elems) for g in elems
    )
    return GroupTable(mul, identity=0)
