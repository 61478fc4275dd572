"""Transpose extraction, the doubling construction, and gcd rank criteria.

The transpose code is read off two columns of the normalized Hadamard
matrix: column 1 is its generator a, and column 4n-1 checks its b (the
proof that these decide every column is in transpose_code).  Both
columns come from (a, b) by window parity (gf2poly.prefix_xor), without
the matrix or the word table.  Doubling interleaves the generator with the
kernel generator, A_i(x) = a_i(x^2) + x kappa_i(x^2), sending length 4n,
kernel dimension 2 to length 8n, kernel dimension 2 (exponent 2 iota).
Both end in one output check (_output): derive b, verify, read iota.
"""

from __future__ import annotations

from typing import NamedTuple

from .analysis import IndexingInconsistency, structured_iota, verify_hfp
from .core import BinaryWord
from .gf2poly import (
    X_PLUS_1,
    interleave,
    modulus_poly,
    poly_gcd,
    prefix_xor,
    reverse_bits,
    rotl,
)
from .typeq import (
    NotTypeQCandidate,
    TypeQCode,
    check_iota,
    kappa_vector,
    make_code,
    require_verified,
)


def _window_column(a: int, b: int, p: int, half: int) -> int:
    """Column (h, p) of the rows w(a^i), w(a^(i+1) b), before normalizing.

    a and b hold half h of each generator in their low half bits.  Bit i
    < 2n is bit p of half h of w(a^i), bit 2n + i that of w(a^(i+1) b).
    """
    parity = prefix_xor(rotl(reverse_bits(a, half), p + 1, half), half)
    low = parity << 1 & (1 << half) - 1
    return low | (parity ^ rotl(reverse_bits(b, half), p, half)) << half


def _transposed_generators(a: int, b: int, n: int) -> tuple[int, int]:
    """Columns 1 and 4n-1 of H, rows in transpose_code's order, read off (a, b).

    Requires a^(2n) = u, both halves of a odd: only then is w(a^(i+2n))
    the complement of w(a^i), so that normalizing the words gives H's rows
    (proof in transpose_code).
    """
    half = 2 * n
    q_ref = _window_column(a, b, 0, half)
    return (
        _window_column(a, b, 1, half) ^ q_ref,
        _window_column(a >> half, b >> half, half - 1, half) ^ q_ref,
    )


def _output(a: int, n: int, rejected: str, failed: str) -> TypeQCode:
    """The verified code of the new 4n-bit generator a, iota read off a.

    An a without b (NotTypeQCandidate) or a code that fails verify_hfp is
    a transform bug: IndexingInconsistency led by rejected or failed.
    """
    try:
        out = make_code(n, BinaryWord(a, 4 * n))
    except NotTypeQCandidate as exc:
        raise IndexingInconsistency(f"{rejected}: {exc}") from exc
    verdict = verify_hfp(out)
    if not verdict.ok:
        raise IndexingInconsistency(f"{failed}: {verdict.failure}")
    return out._replace(iota=structured_iota(a, n))


def transpose_code(code: TypeQCode) -> TypeQCode:
    """Code of the transposed matrix; codewords are the columns of H.

    Reads two columns of H, not all 4n, and reads them off (a, b) without
    building H.  The rows are taken in the order e, a, ..., a^(2n-1), ab,
    ..., a^(2n) b (row -i mod 2n of H at position i in the first half), so
    the columns come out in canonical coordinate order.  Column 1 is the
    new a, which _output completes and checks; column 4n-1 must be its b
    or b + u.  An input that fails verify_hfp raises VerificationError.

    Why two columns decide all of them.  Row x and column y of H (both
    labelled in D1) meet in gamma(yx), the first bit of the word of yx.  So
    column y, read down the rows, is gamma(yx) = gamma*(x^-1 y^-1) with
    gamma*(g) = gamma(g^-1): H^T is cocyclic over G^op, which g -> g^-1 maps
    onto G.  Its rows, H's columns, and their complements are then the 8n
    words of a type-Q propelinear code C', in which column y is the word of
    y^-1 and row x is the coordinate of x^-1.  That inversion is why the
    first-half rows are taken as x = a^i: coordinate i of C' then belongs to
    a^-i, as in the canonical order.  C' is generated by its words at a and
    b, the columns at y = a^-1 (position 1) and y = b^-1 = a^(2n) b
    (position 4n-1).  Columns are normalized (row e is zero), so each is a
    word of C' up to complement, and complements change nothing: a + u is
    the word of a^(2n+1), which also generates <a>, and b + u that of
    a^(2n) b, with a^i a^(2n) b = a^(i+2n) b, so (a', b') and (a', b' + u)
    give the same 8n words.  Hence verify_hfp on the new code
    plus the column-(4n-1) test imply that its codeword set is exactly the
    columns plus complements; that O(L^2) comparison runs in
    tests/oracles.py (column_code), not here.

    Both columns by window parity (_transposed_generators).  Assume a^(2n)
    = u, which holds exactly when both halves of a are odd (the parity
    lemma of kernels_py).  The word of a^(i+2n) is S_(i+2n) a = S_i a +
    x^i S_(2n) a = w(a^i) + u, and likewise w(a^(i+2n) b) = w(a^i b) + u;
    so the representative in D1 of a^(i-2n) or a^(i+1) b has as its word
    w(a^i) or w(a^(i+1) b), normalized: u added when bit 0 is set.  Row i
    < 2n of the order above is the normalized w(a^i), row 2n + i the
    normalized w(a^(i+1) b), and bit j of a normalized row is bit j of the
    word plus its bit 0.  So column j is the column of the raw words plus
    the raw column at bit 0 (q_ref).  Without a^(2n) = u the two words
    are not complements, and the rows are not these.  Half h of w(a^k) is
    S_k a_h, so its bit p is the parity of the cyclic window a_h[p],
    a_h[p-1], ..., a_h[p-k+1]: bit k-1 of prefix_xor(rotl(rev(a_h), p +
    1)), which has a_h[p-m] at bit m.  w(a^k b) adds x^k b, whose bit
    (h, p) is b_h[p-k]: bit k-1 of rotl(rev(b_h), p).  Column 1 is (h, p)
    = (1, 1), column 4n-1 is (2, 2n-1), and bit 0 is (1, 0).  Each column
    is O(log L) operations on L-bit ints.  tests/test_transforms.py checks
    the two columns against the columns of the table's rows on every pair
    (a, b) with both halves of a odd at n <= 2 and on random such pairs up
    to n = 12, and against the matrix's on every code the transpose tests
    use.
    """
    n = code.n
    require_verified(code)
    col_a, col_b = _transposed_generators(code.a_vec.bits, code.b_vec.bits, n)
    out = _output(col_a, n, "transpose generator rejected",
                  "transpose failed verification")
    if col_b ^ out.b_vec.bits not in (0, (1 << 4 * n) - 1):
        raise IndexingInconsistency("column 4n-1 of H is not the transpose's b")
    return out


def double_code(code: TypeQCode) -> TypeQCode:
    """Length-8n code from a verified k=2 code.

    iota is read off a (structured_iota, which also makes kappa_vector(iota)
    the kernel generator); a given code.iota must equal it.  The new kernel
    generator is A^(2 iota) B (exact computation; exhaustive over all small
    k=2 codes), whose representative is the alternating pattern of length
    8n.  _output completes and checks the new code; its iota must be 2 iota.

    Rank: the paper proves that the maximal rank 2n doubles to 4n.
    Observed, not proved: the double has k = 2 and exactly twice the
    input's rank on every code of search_k2(4), (6) and (8), on the
    example code's chain to length 768, all of maximal rank, and at the
    non-maximal ranks 18, 20 and 22 of length 48 as well as at 24, on the
    first structured candidate of each (tests/test_transforms.py).
    """
    n = code.n
    half = 2 * n
    require_verified(code)
    iota = structured_iota(code.a_vec.bits, n)
    if iota is None:
        raise ValueError("doubling requires a kernel of dimension 2")
    if code.iota is not None and code.iota != iota:
        raise ValueError(f"iota {code.iota} does not match the kernel ({iota})")
    kappa = kappa_vector(iota, n).bits
    # A_h = a_h(x^2) + x kappa_h(x^2) for both halves at once: bit 2n + i
    # of a (bit i of a_2) lands at bit 4n + 2i, which is bit 2i of A_2
    out = _output(interleave(code.a_vec.bits, kappa), half,
                  "doubled generator rejected", "doubled code failed")
    if out.iota != 2 * iota:
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
    check_iota(iota, n)
    if a1.bit_count() % 2 == 0:
        raise ValueError("criterion requires a first half of odd weight")
    operand = rank_criterion_operand(a1, iota, n)
    return poly_gcd(operand, modulus_poly(2 * n)) == X_PLUS_1


def _is_power_of_x_plus_1(p: int) -> bool:
    # x^(2^k) + 1 = (x + 1)^(2^k) over GF(2): its divisors are the (x + 1)^j
    # with j <= 2^k, and here 2^k > p.bit_length() > deg p
    return p > 0 and poly_gcd(p, modulus_poly(1 << p.bit_length().bit_length())) == p


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
    return rank_criterion_operand(interleave(a1, kappa1), 2 * iota, 2 * n)


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
    check_iota(iota, n)
    gcd_small = poly_gcd(rank_criterion_operand(a1, iota, n), modulus_poly(2 * n))
    gcd_big = poly_gcd(
        doubled_criterion_operand(a1, kappa1, iota, n), modulus_poly(4 * n)
    )
    holds = gcd_small != X_PLUS_1 or _is_power_of_x_plus_1(gcd_big)
    return DoubleGcdCheck(gcd_small, gcd_big, holds)
