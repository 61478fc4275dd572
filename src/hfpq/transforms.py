"""Transpose extraction, the doubling construction, and gcd rank criteria.

The transpose code is read off the columns of the normalized Hadamard
matrix.  Doubling interleaves the generator with the kernel generator,
A_i(x) = a_i(x^2) + x kappa_i(x^2), sending length 4n, kernel dimension 2
to length 8n, kernel dimension 2 (exponent 2 iota).
"""

from __future__ import annotations

from typing import NamedTuple

from .analysis import IndexingInconsistency, structured_iota, verify_hfp
from .core import BinaryWord
from .gf2poly import (
    X_PLUS_1,
    interleave,
    modulus_poly,
    poly_divmod,
    poly_gcd,
    reverse_bits,
    rotl,
)
from .typeq import (
    NotTypeQCandidate,
    TypeQCode,
    VerificationError,
    build_matrix,
    codeword_set,
    derive_b,
    kappa_vector,
)


def transpose_code(code: TypeQCode) -> TypeQCode:
    """Code of the transposed matrix; codewords are the columns of H.

    Column j of H has bit i = H[i][j], and row i of H is labelled a^-i in
    the first half.  Columns carry their first-half coordinates in the
    opposite cyclic direction, so the rows are taken in the order e, a,
    ..., a^(2n-1) (row -i mod 2n at position i), ab, ..., a^(2n) b; then
    the columns are in canonical coordinate order.  The generator word is
    the column at the position of a, and b is re-derived.  Self-checks
    that the rebuilt code verifies and that its codeword set is exactly the
    columns plus complements.  iota is read off the new a (structured_iota).
    """
    matrix = build_matrix(code)
    n = code.n
    half = 2 * n
    length = 4 * n
    u = (1 << length) - 1
    rows = matrix.rows
    flipped = matrix._replace(rows=rows[:1] + rows[half - 1 : 0 : -1] + rows[half:])
    cols = flipped.transposed_rows()
    new_a = BinaryWord(cols[1], length)
    try:
        new_b = derive_b(new_a, n)
    except NotTypeQCandidate as exc:
        raise IndexingInconsistency(f"transpose generator rejected: {exc}") from exc
    out = TypeQCode(n, new_a, new_b)
    verdict = verify_hfp(out)
    if not verdict.ok:
        raise IndexingInconsistency(
            f"transpose failed verification: {verdict.failure}"
        )
    expected = frozenset(cols) | frozenset(c ^ u for c in cols)
    if codeword_set(out) != expected:
        raise IndexingInconsistency("transpose codeword set mismatch")
    return out._replace(iota=structured_iota(new_a.bits, n))


def double_code(code: TypeQCode) -> TypeQCode:
    """Length-8n code from a verified k=2 code.

    iota is read off a (structured_iota, which also makes kappa_vector(iota)
    the kernel generator); a given code.iota must equal it.  The new kernel
    generator is A^(2 iota) B (exact computation; exhaustive over all small
    k=2 codes), whose representative is the alternating pattern of length
    8n; maximum rank 2n doubles to 4n.  Self-checks that the new code
    verifies and that its a gives 2 iota.
    """
    n = code.n
    half = 2 * n
    verdict = verify_hfp(code)
    if not verdict.ok:
        raise VerificationError(f"{verdict.failure}: {verdict.witness}")
    iota = structured_iota(code.a_vec.bits, n)
    if iota is None:
        raise ValueError("doubling requires a kernel of dimension 2")
    if code.iota is not None and code.iota != iota:
        raise ValueError(f"iota {code.iota} does not match the kernel ({iota})")
    kappa = kappa_vector(iota, n).bits
    # A_h = a_h(x^2) + x kappa_h(x^2) for both halves at once: bit 2n + i
    # of a (bit i of a_2) lands at bit 4n + 2i, which is bit 2i of A_2
    new_a = BinaryWord(interleave(code.a_vec.bits, kappa, 4 * n), 8 * n)
    new_b = derive_b(new_a, half)
    out = TypeQCode(half, new_a, new_b, iota=2 * iota)
    verdict = verify_hfp(out)
    if not verdict.ok:
        raise IndexingInconsistency(f"doubled code failed: {verdict.failure}")
    if structured_iota(new_a.bits, half) != 2 * iota:
        raise IndexingInconsistency("doubled kernel exponent is not 2 iota")
    return out


def rank_criterion_operand(a1: int, iota: int, n: int) -> int:
    """a1(x) + x^(iota+1) phi1(a1(x)) mod x^(2n) - 1."""
    half = 2 * n
    return a1 ^ rotl(reverse_bits(a1, half), iota + 1, half)


def _check_half(p: int, n: int) -> None:
    if not 0 <= p < 1 << (2 * n):
        raise ValueError(f"expected a residue below 2^{2 * n}")


def rank_gcd_criterion(a1: int, iota: int, n: int) -> bool:
    """True iff gcd(a1 + x^(iota+1) phi1(a1), x^(2n) - 1) = x + 1.

    A true value is sufficient for rank 2n on the realized code; the
    converse is not asserted.  Requires a1 of odd weight.
    """
    _check_half(a1, n)
    if a1.bit_count() % 2 == 0:
        raise ValueError("criterion requires a first half of odd weight")
    operand = rank_criterion_operand(a1, iota, n)
    return poly_gcd(operand, modulus_poly(2 * n)) == X_PLUS_1


def _is_power_of_x_plus_1(p: int) -> bool:
    if p == 0:
        return False
    while p != 1:
        p, r = poly_divmod(p, X_PLUS_1)
        if r:
            return False
    return True


class DoubleGcdCheck(NamedTuple):
    """Both sides of the doubling gcd transfer, as plain polynomials."""

    gcd_small: int
    gcd_big: int
    implication_holds: bool


def doubled_criterion_operand(a1: int, kappa1: int, iota: int, n: int) -> int:
    """A_1(x) + x^(2 iota + 1) phi(A_1(x)) with A_1 = a1(x^2) + x kappa1(x^2).

    Equals (a1 + x^(iota+1) phi1(a1))^2 + x (kappa1 + x^iota phi1(kappa1))^2
    mod x^(4n) - 1 (the squared-factorization identity).
    """
    big = interleave(a1, kappa1, 2 * n)
    return big ^ rotl(reverse_bits(big, 4 * n), 2 * iota + 1, 4 * n)


def double_gcd_check(a1: int, kappa1: int, iota: int, n: int) -> DoubleGcdCheck:
    """Evaluate the gcds on both sides of the doubling rank transfer.

    For code data the small-side gcd being exactly x+1 forces the big-side
    gcd to be a power of x+1: the big operand is the square of the small
    one plus x times the square of a word in {0, u}, so it cannot share an
    irreducible factor other than x+1 with x^(4n)-1 when the small side
    shares none.
    """
    _check_half(a1, n)
    _check_half(kappa1, n)
    gcd_small = poly_gcd(rank_criterion_operand(a1, iota, n), modulus_poly(2 * n))
    gcd_big = poly_gcd(
        doubled_criterion_operand(a1, kappa1, iota, n), modulus_poly(4 * n)
    )
    holds = gcd_small != X_PLUS_1 or _is_power_of_x_plus_1(gcd_big)
    return DoubleGcdCheck(gcd_small, gcd_big, holds)
