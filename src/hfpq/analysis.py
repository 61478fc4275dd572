"""Rank, kernel and theorem-bound classification.

Rank is the GF(2) dimension of the linear span of the codeword set; the
kernel K(C) collects the translations z with C + z = C.  With the zero
word in C the kernel is a subspace of C, so only codewords need testing.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .core import BinaryWord
from .gf2poly import modulus_poly, poly_degree, poly_gcd, poly_mul, reverse_bits
from .typeq import TypeQCode, codeword_ints, kappa_vector, verify_hfp


class NotKernelElement(ValueError):
    """Word is not a kernel element of the code."""


class IndexingInconsistency(RuntimeError):
    """Self-check failure: derived data disagrees with the code's indexing."""


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
    """GF(2) rank by elimination on int rows; the tests check span_rank by it."""
    pivots: dict[int, int] = {}
    for w in words:
        _insert_row(pivots, w)
    return len(pivots)


def span_rank(a: int, b: int, n: int) -> int:
    """GF(2) rank of the words generated by (a, b): 4n - deg d2, one gcd.

    With m = x^(2n) + 1 and R = GF(2)[x]/(m), a word of length 4n is a
    pair (p1, p2) in R^2 (bit i of half h is the coefficient of x^i in
    p_h), and pi_a multiplies both halves by x.  Write a = (a1, a2) and
    b = (b1, b2).  Then

        rank = 4n - deg gcd(a1 b2 + a2 b1, m gcd(a1, a2, b1, b2, m)).

    Proof sketch, for any (a, b), verified or not.  The word table
    (kernels_py.codeword_table) has w(a^k) = S_k a and
    w(a^k b) = S_k a + x^k b, with S_k = 1 + x + ... + x^(k-1), so
    S_(k+1) = 1 + x S_k.  S_1, ..., S_(2n) are unitriangular in
    1, x, ..., x^(2n-1), so a, ..., a^(2n) span R a; then
    w(a^i b) + w(a^i) = x^i b puts R b in the span, which is R a + R b.
    Since S_(2n+i) = S_(2n) + S_i in R, the other 4n words lie in it
    too: the 4n words a, ..., a^(2n), b, ..., a^(2n-1) b and all 8n
    words span the same space.  R^2/(R a + R b) is GF(2)[x]^2/M, with M
    generated by the rows (a1, a2), (b1, b2), (m, 0) and (0, m).  M has
    rank 2, so by the Smith normal form the quotient is
    GF(2)[x]/(e1) + GF(2)[x]/(e2), of dimension deg e1 e2 = deg d2,
    where d2 is the gcd of the 2x2 minors: a1 b2 + a2 b1, m a1, m a2,
    m b1, m b2 and m^2.  tests/test_analysis.py checks this against
    rank_of_ints for every (a, b) at n <= 2 and on random pairs up to
    n = 192.

    The gcd of g with the four halves stops once g = 1, and the last gcd
    is then with m alone, so the minor is first reduced mod m by one
    fold: deg minor < 4n and x^(2n) = 1 mod m, so lo + x^(2n) hi = lo + hi.

    Norm form.  With phi(p) = p(x^-1) = x rev(p) and N(p) = p phi(p), if
    wt(a) is even and b is derive_b_bits(a, n) or its complement, then
    (x + 1)(a1 b2 + a2 b1) = N(a1) + N(a2) in R.  Proof: multiply
    derive_b_bits's (x + 1) b1 = a1 + phi(a2) by a2, (x + 1) b2 = a2 +
    phi(a1) by a1, and add; the two a1 a2 cancel.  b + u adds (x + 1) u_h
    (a1 + a2) = 0, as (x + 1) u_h = m.  tests/test_analysis.py checks it
    for every even-weight a at n <= 3, both b, and on random a up to n = 96.
    """
    half = 2 * n
    mask = (1 << half) - 1
    a1, a2, b1, b2 = a & mask, a >> half, b & mask, b >> half
    g = modulus_poly(half)
    for p in (a1, a2, b1, b2):
        g = poly_gcd(g, p)
        if g == 1:
            break
    minor = poly_mul(a1, b2) ^ poly_mul(a2, b1)
    if g == 1:
        minor = (minor & mask) ^ (minor >> half)
    return 2 * half - poly_degree(poly_gcd((g << half) ^ g, minor))


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


def structured_iota(a: int, n: int) -> int | None:
    """iota of a verified code whose kernel has dimension 2, else None (F5).

    At n <= 2 every code is linear, so K(C) = C has dimension 3 or 4
    (checked exhaustively in tests/test_search.py), and this returns None.
    For n >= 3, K(C) has dimension 2 iff a2 = x^(iota+1) rev(a1) + u for
    some iota (a is structured), and then K(C) = {0, u, kappa, kappa + u}
    with kappa = kappa_vector(iota) = w(a^iota b) up to complement
    (kernel_from_iota); else K(C) = {0, u}.  So one rotation match reads
    the kernel off a: the k with rotl(rev(a1), k) = a2 + u_2 gives iota =
    k - 1 mod 2n.

    Notation.  A word is a pair (p1, p2) in R^2, R = GF(2)[x]/(x^(2n) + 1),
    and u_h is the all-ones half.  phi(p)(x) = p(x^-1) = x rev(p) is an
    involutive ring automorphism of R that fixes u_h; v is the half with
    ones at the odd positions.  pi_a multiplies both halves by x, and
    pi_b(p1, p2) = (rev p2, rev p1).  w(g) is the word of g, w(a^k) = S_k a
    and w(a^k b) = S_k a + x^k b with S_k = 1 + x + ... + x^(k-1), so
    (1 + x) S_k = 1 + x^k.  b solves derive_b_bits's equations (1 + x) b_h
    = a_h + phi(a_h'), h' the other half.  A half p alternates (is v or
    v + u_h) iff (1 + x) p = u_h, since (1 + x) v = u_h and the kernel of
    1 + x is {0, u_h}.  The words obey w(g h) = w(g) + pi_g w(h) for the
    verified code (kernels_py's theorem), and u + w(h) = w(a^(2n) h).

    A. w(a^i b) alternates on both halves iff a2 = x^i phi(a1) + u, which is
       a2 + u = x^(i+1) rev(a1): the match at k = i + 1.  By the equations
       (1 + x) w(a^i b)_h = (1 + x^i) a_h + x^i (a_h + phi(a_h')) = a_h +
       x^i phi(a_h'), which is u_h iff a_h + u_h = x^i phi(a_h').  For h = 2
       that is the condition; for h = 1, applying phi gives phi(a1) + u =
       x^-i a2, the same condition.
    B. A codeword z that alternates on both halves lies in K(C).  pi_a z =
       x z = z + u, and rev p = p + u_h for an alternating half p, so pi_b z
       = (z2 + u, z1 + u), which is z or z + u since z1 and z2 are each v or
       v + u.  Let Z = {c in C : z + c in C}; 0 is in Z since z is in C.
       For g in {a, b}, L_g(c) = w(g) + pi_g c maps C onto C, as L_g(w(h))
       = w(g h), and z + L_g(c) = L_g(z + c) + (pi_g z + z) lies in C + {0,
       u} = C for c in Z.  So Z is closed under L_a and L_b, which reach
       every codeword from w(e) = 0: Z = C, that is z + C = C.
    C. If w(a^i b) alternates on both halves, it is kappa_vector(i) or its
       complement.  g = a^i b has g^2 = b^2 = a^(2n) in the group, so
       w(g) + pi_g w(g) = u with pi_g = pi_a^i pi_b, and the first half
       reads z1 + x^i rev(z2) = u for z = w(g).  x v = v + u, so z2 = v
       gives z1 = x^i v, v for even i and v + u for odd i, and z2 = v + u
       gives the complement: (v, v) for even i and (v, v + u) for odd i, up
       to complement.

    (superset) If a matches at iota, w(a^iota b) alternates (A), lies in
    K(C) (B) and is kappa up to complement (C).  u + C = C, so {0, u,
    kappa, kappa + u} is in K(C).
    (subset) With n >= 3, by the paper's theorem, K(C) has dimension 1 or
    2 (so C, of 8n > 4 words, is not linear), with 2 <= s - 1 in the
    second case, so that n is even.  If the dimension is 2, F3 (search._expand) gives
    K(C) = {0, u, z, z + u} with z alternating on both halves.  z is a
    codeword.  It is no power w(a^j): x^j z = z + j u would make w(a^(2j))
    = z + x^j z = j u.  For even j that is 0, so a^(2j) = e, j = 0 mod 2n
    and z is 0 or u; for odd j it is u, so j = n mod 2n and n is odd.  So
    z = w(a^i b), and a matches at i (A).  Hence dim K(C) = 2 iff a matches,
    and K(C) is then the four words of (superset).

    Matches at two exponents i != i' mod 2n would put w(a^i b) and
    w(a^i' b), which are distinct and not complements (the 8n words are
    distinct), in K(C) with 0 and u: more than 4 words, against the
    theorem.  That raises IndexingInconsistency.  The tests check this
    function against kernel_ints on every raw hit at n <= 6 and every
    quotient hit at n = 7, 8 (tests/test_search.py), and on the golden
    chain up to length 768 (tests/test_transforms.py).
    """
    if n < 3:
        return None
    half = 2 * n
    mask = (1 << half) - 1
    # most significant bit first, rotl(r, k) reads r[k:] + r[:k]
    r = f"{reverse_bits(a & mask, half):0{half}b}"
    rr = r + r[:-1]
    t = f"{(a >> half) ^ mask:0{half}b}"
    k = rr.find(t)
    if k < 0:
        return None
    if rr.find(t, k + 1) >= 0:
        raise IndexingInconsistency("a matches two kernel exponents")
    return (k - 1) % half


def kernel_from_iota(iota: int | None, n: int) -> list[int]:
    """K(C) of a verified code with n >= 3, from its structured_iota."""
    u = (1 << (4 * n)) - 1
    if iota is None:
        return [0, u]
    kappa = kappa_vector(iota, n).bits
    return [0, u, kappa, kappa ^ u]


def code_iota(code: TypeQCode) -> int | None:
    """iota with w(a^iota b) in K(C) when K(C) has 4 words, else None.

    A verified code reads it off a (structured_iota).  Any other code
    filters its word table (kernel_ints) and finds its kernel generator
    among the words a^i b, i taken mod 2n; a generator that is a power of
    a gives None.
    """
    n = code.n
    if verify_hfp(code).ok:
        return structured_iota(code.a_vec.bits, n)
    words = codeword_ints(code)
    kernel = kernel_ints(words)
    idx = words.index(kernel[1]) - 4 * n if len(kernel) == 4 else -1
    return idx % (2 * n) if idx >= 0 else None


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


def is_linear_code(words: Iterable[int]) -> bool:
    """Closure of the word set under XOR (0 assumed present)."""
    word_set = frozenset(words)
    return all((x ^ y) in word_set for x in word_set for y in word_set)


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


class AnalysisReport(NamedTuple):
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

    The rank is span_rank(a, b, n): 4n minus the degree of one gcd in
    GF(2)[x], with no elimination over the codewords.  The codewords span
    R a + R b for R = GF(2)[x]/(x^(2n) + 1) acting on both halves at once,
    for any (a, b), so this needs no verification (proof in span_rank).

    The kernel of a verified code with n >= 3 is read off a
    (structured_iota), and has at most 4 < 8n = |C| words, so C is not
    linear.  Any other code filters its word table (kernel_ints).  With 0
    in C, K(C) is a subspace of C, and C is linear iff K(C) = C.
    """
    length = code.length
    n = code.n
    verdict = verify_hfp(code)
    rank = span_rank(code.a_vec.bits, code.b_vec.bits, n)
    if verdict.ok and n >= 3:
        kernel = kernel_from_iota(structured_iota(code.a_vec.bits, n), n)
        linear = False
    else:
        words = codeword_ints(code)
        kernel = kernel_ints(words)
        linear = len(kernel) == len(set(words))
    dim, basis = _kernel_basis(kernel, length)
    s, n_prime = two_adic_split(length)
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
        a_in_kernel=code.a_vec.bits in kernel,
        failure=verdict.failure,
        witness=verdict.witness,
    )
    if verdict.ok:
        violations = classify(report)
        if violations:
            report = report._replace(bound_violations=violations)
    return report
