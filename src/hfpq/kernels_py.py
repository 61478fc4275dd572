"""Pure-Python scan kernels: codeword enumeration and candidate checking.

Words are 4n-bit ints.  The generator pair (a, b) realizes a group of
order 8n under the propelinear product with the canonical permutations
(per-half rotation for a, full reversal for b); the table lists the word
of a^i at index i and of a^i b at index 4n+i.

pi_a, the rotation of each 2n-bit half left by one, is one whole-word
step: pi_a w = (w << 1) & keep | (w >> (2n-1)) & wrap, with wrap = 1 |
1 << 2n (bit 0 of each half) and keep = u + wrap.  The left shift moves
bit 2n-1 to bit 2n and bit 4n-1 out of the word, and keep clears both;
the right shift brings them down to bits 0 and 2n.  codeword_table,
_bad_power and first_violation take this step inline.

Lemma (parity of a^(2n)): per half h, a^k = sum_{j<k} x^j a_h in
GF(2)[x]/(x^(2n)-1), and sum_{j<2n} x^j = u_h, so a^(2n) = wt(a_h) u_h.
Hence a^(2n) = u iff both halves have odd weight; for wt(a) = 2n that is
wt(a1) odd.  scan_general enumerates only those words.

Lemma (half profiles).  The half h of a^k is S_k a_h, S_k = 1 + x + ... +
x^(k-1), so wt(a^k) = wt(S_k a1) + wt(S_k a2): the halves evolve
independently.  Call P(h) = (wt(S_k h))_{k=1..n} the profile of a
half-word h (half_profile).  For odd h and 0 < i < 2n, S_(2n) = S_(2n-i) +
x^(2n-i) S_i and S_(2n) h = u_h, so S_(2n-i) h is the complement of a
rotation of S_i h and wt(S_(2n-i) h) = 2n - wt(S_i h).  So, given a^(2n) =
u, wt(a^(2n-i)) = 4n - wt(a^i), and the weights of a^(n+1), ...,
a^(2n-1) follow from those of a, ..., a^n.  The weight of a^n follows
from the parity: S_(2n) = (1 + x^n) S_n, so for odd h, S_n h + x^n S_n h
= u_h, S_n h is the complement of its own rotation by n, and wt(S_n h) =
n.  So the k = n column of every odd profile is n, wt(a^n) = 2n, and the
weights of a, ..., a^(n-1) decide.  Hence the conditions on the powers in
the theorem below (a^(2n) = u, wt(a^i) = 2n for 0 < i < 2n) hold iff
both halves are odd and P(a2) = 2n - P(a1) componentwise.

Theorem (the powers of a decide).  (a, b) is a type-Q HFP code (the
relations a^(2n) = u, b^2 = u, b a = a^-1 b hold as words, the 8n words
are distinct and all but e and u have weight 2n) iff a^(2n) = u,
wt(a^i) = 2n for 0 < i < 2n, and b is b* or b* + u, b* = derive_b_bits(a).

Proof.  Words multiply as pairs (x, pi)(y, s) = (x + pi y, pi s); let
A = (a, pi_a) and B = (b, pi_b), with pi_a^(2n) = pi_b^2 = id and
pi_b pi_a pi_b = pi_a^-1.  Write w(g) for the word of g.

1. Given a^(2n) = u: b^2 = u and b a = a^-1 b hold iff b is b* or b* + u.
   A^(2n) = (u, id), so A^(4n) = 1 and A^-1 = (pi_a^-1 a, pi_a^-1).  The
   permutations of B A and A^-1 B agree, and their words agree iff
   b + pi_b a = pi_a^-1 (a + b), i.e. (apply pi_a) iff per half h
   (x+1) b_h = a_h + x rev(a_h'), h' the other half: the equation that
   derive_b_bits solves.  (x+1) p = 0 only for p in {0, u_h}, so each half
   has the two solutions q_h, q_h + u_h.  b^2 = u reads b1 + rev(b2) = u1,
   and rev(q2) is q1 or q1 + u1, so it keeps exactly the pairing that
   derive_b_bits picks and its complement: b* and b* + u.
2. Given the relations, von Dyck maps the type-Q group Q = <a, b | a^(4n),
   b^2 = a^(2n), b^-1 a b = a^-1> homomorphically onto <A, B>, and
   codeword_table lists w(a^i) and w(a^i b).  So:
   (a) A^(2n+i) = (u + w(a^i), pi_a^i): wt(a^(2n+i)) = 4n - wt(a^i), and
       the powers past a^(2n) need no check.
   (b) g = a^i b has g^2 = b^2 = a^(2n) in Q, whose image is (u, id).
       So w(g) + pi_g w(g) = u and pi_g^2 = id, where pi_g = pi_a^i pi_b
       has no fixed point (verify_hfp).  So w(g) has exactly one 1 on
       each of the 2n 2-cycles of pi_g: wt(a^i b) = 2n, b included.
   (c) If w(g) = w(h) with g != h, then w(h^-1 g) = pi_h^-1 (w(h) + w(g))
       = 0.  Yet h^-1 g != e, so its word is u, or has weight 2n by the
       checked powers, (a) and (b).  So the 8n words are distinct.
Conversely an HFP code has a^(2n) = u and the weights of its powers, and
its b is b* or b* + u by 1.  []

So the scans decide on a alone and complete every survivor with b*:
scan_general enumerates only words with both halves odd, and by the
half-profile lemma the weights of a, ..., a^(n-1) decide the rest
(_bad_power, the one power loop).  A given pair (a, b) is decided on the
two words alone by first_violation, the one test that also checks the
parity: the parity, then b^2 = u and b a = a^-1 b in closed form (b +
rev(b) = u and pi_a(b + rev(a)) = a + b), then _bad_power.  By 1, once
a^(2n) = u the two relations hold iff b is b* or b* + u, so no test
through derive_b_bits repeats them.  verify_hfp reports the first
violation, and check_candidate is "no violation, then codeword_table".  tests/test_kernels.py checks the theorem exhaustively
at small n.
"""

from __future__ import annotations

from .core import GroupElement
from .gf2poly import div_x_plus_1, reverse_bits


def codeword_table(a: int, b: int, n: int) -> tuple[int, ...]:
    """All 8n words generated by (a, b); no validity checks.

    w(a^i) = a + pi_a w(a^(i-1)) and w(a^i b) = w(a^i) + pi_a^i b: one
    pi_a step (module docstring) per word in each loop.
    """
    length = 4 * n
    shift = 2 * n - 1
    wrap = 1 | 1 << 2 * n
    keep = (1 << length) - 1 ^ wrap
    words = [0] * (2 * length)
    v = 0
    for i in range(1, length):
        v = a ^ ((v << 1) & keep | (v >> shift) & wrap)
        words[i] = v
    for i in range(length):
        words[length + i] = words[i] ^ b
        b = (b << 1) & keep | (b >> shift) & wrap
    return tuple(words)


def half_profile(h: int, n: int) -> tuple[int, ...]:
    """P(h) = (wt(S_k h)) for k = 1..n, S_k = 1 + x + ... + x^(k-1).

    h is a half-word of 2n bits; S_(k+1) h = h + x S_k h, one
    rotate-and-xor per step.  a passes the powers iff both halves are odd
    and P(a1) + P(a2) = 2n componentwise (module docstring).  For odd h
    the k = n column is always n (module docstring), so it never decides.
    """
    half = 2 * n
    mask = (1 << half) - 1
    shift = half - 1
    v = h
    weights = [h.bit_count()]
    for _ in range(1, n):
        v = h ^ (((v << 1) | (v >> shift)) & mask)
        weights.append(v.bit_count())
    return tuple(weights)


def _bad_power(a: int, n: int) -> tuple[int, int] | None:
    """(i, wt(a^i)) for the first 0 < i < n with wt(a^i) != 2n, else None.

    The one power loop: each step gives the word a^k = a + pi_a a^(k-1),
    pi_a one whole-word shift-and-mask (module docstring).
    """
    half = 2 * n
    shift = half - 1
    wrap = 1 | 1 << half
    keep = (1 << 2 * half) - 1 ^ wrap
    v = 0  # the word of a^0
    for i in range(1, n):
        v = a ^ ((v << 1) & keep | (v >> shift) & wrap)
        weight = v.bit_count()
        if weight != half:
            return i, weight
    return None


def first_violation(a: int, b: int, n: int) -> tuple[str, object] | None:
    """The first failed check of the pair (a, b) as (failure, witness), else None.

    The checks, in order, read a and b alone, not the word table:

    - a^(2n) = u: both halves of a odd (the parity lemma);
    - b^2 = u: w(b b) = b + pi_b b, so b + rev(b) = u, rev the reversal of
      all 4n bits;
    - b a = a^-1 b: pi_a(b + rev(a)) = a + b, pi_a the whole-word step
      of the module docstring;
    - wt(a^i) = 2n for 0 < i < n (_bad_power), witness (a^i, weight).

    Closed form of b a = a^-1 b.  w(b a) = b + pi_b a = b + rev(a).  The
    relation a^(4n) = e makes a^-1 b the element a^(4n-1) b, whose word in
    the table is w(a^(4n-1)) + pi_a^(4n-1) b = S_(4n-1) a + x^(4n-1) b,
    S_k = 1 + x + ... + x^(k-1) acting on both halves.  Mod x^(2n) + 1,
    x^(2n) = 1, so S_(4n) = 2 S_(2n) = 0 and S_(4n-1) = S_(4n) + x^(4n-1)
    = x^-1: the word is x^-1 (a + b).  So b a = a^-1 b reads b + rev(a) =
    x^-1 (a + b), and applying pi_a, multiplication by x and a bijection,
    to both sides gives the tested form pi_a(b + rev(a)) = a + b.
    Likewise the table's w(a^(2n)) is S_(2n) a, whose half h is wt(a_h)
    u_h (the parity lemma).  Both identities hold for every (a, b), so
    these tests say what the table's words say.  Past them the weights of a, ..., a^(n-1) decide (the
    theorem, and the half-profile lemma for a^n, ..., a^(2n-1)).
    """
    half = 2 * n
    length = 2 * half
    mask = (1 << half) - 1
    u = (1 << length) - 1
    if not (a & mask).bit_count() & (a >> half).bit_count() & 1:
        return "RelationViolation", "a^{2n} != u"
    if b ^ reverse_bits(b, length) != u:
        return "RelationViolation", "b^2 != u"
    wrap = 1 | 1 << half
    keep = u ^ wrap
    c = b ^ reverse_bits(a, length)
    if (c << 1) & keep | (c >> half - 1) & wrap != a ^ b:
        return "RelationViolation", "b a != a^{-1} b"
    bad = _bad_power(a, n)
    if bad is None:
        return None
    return "WeightViolation", (GroupElement(bad[0], False), bad[1])


def derive_b_bits(a: int, n: int) -> int | None:
    """The b word determined by a, first bit 0; None exactly when wt(a) is odd.

    Solves (x+1) b1 = a1 + x * rev(a2) for the first half, and takes the
    second half that b^2 = u pairs with it; the other valid b is the
    complement.

    With phi(p)(x) = p(x^-1) we have x * rev(p) = phi(p), so the equations
    per half are (x+1) b1 = d1 = a1 + phi(a2) and (x+1) b2 = d2 = a2 +
    phi(a1) = phi(d1).  The division by x+1 is exact iff wt(d1) is even,
    and wt(d1) = wt(a) mod 2.  b^2 = u reads b1 + rev(b2) = u, so b2 =
    rev(q1) + u for b1 = q1.  Applying phi to (x+1) q1 = d1 gives (x^-1 +
    1) phi(q1) = d2, that is (x+1) rev(q1) = d2 since rev(q1) = x^-1
    phi(q1); so rev(q1) + u solves the second equation too, and one
    division serves both halves.
    """
    half = 2 * n
    mask = (1 << half) - 1
    r2 = reverse_bits(a >> half, half)
    d1 = (a & mask) ^ (((r2 << 1) | (r2 >> (half - 1))) & mask)
    if d1.bit_count() & 1:
        return None
    q1 = div_x_plus_1(d1, half)
    return q1 | (reverse_bits(q1, half) ^ mask) << half


def check_candidate(a: int, b: int, n: int) -> tuple[int, ...] | None:
    """codeword_table(a, b, n) if (a, b) yields a type-Q HFP code, else None.

    That is exactly when first_violation finds none (module docstring).
    """
    if first_violation(a, b, n) is not None:
        return None
    return codeword_table(a, b, n)


def derive_a2_bits(a1: int, iota: int, n: int) -> int:
    """Second half from the first: a2(x) = x^(iota+1) phi1(a1(x)) + u(x)."""
    half = 2 * n
    mask = (1 << half) - 1
    r = reverse_bits(a1, half)
    k = (iota + 1) % half
    return (((r << k) | (r >> (half - k))) & mask) ^ mask


def first_of_weight(lo: int, w: int) -> int:
    """The smallest x >= lo with exactly w one bits (lo >= 0, w >= 1)."""
    x = lo
    while x.bit_count() > w:
        # every x' in (x, x + lowbit(x)) keeps all bits of x
        x += x & -x
    for _ in range(w - x.bit_count()):
        x |= x + 1  # set the lowest zero bit
    return x


def scan_general(n: int, start: int, stop: int) -> list[tuple[int, int]]:
    """(a, b) pairs with a in [start, stop) passing check_candidate, a increasing.

    Visits only the words with wt(a1) odd and wt(a2) = 2n - wt(a1), row by
    row over a2 and, inside a row, through a1 of one weight by Gosper's
    successor.  Every other word fails check_candidate: by weight, or by
    a^(2n) = u (module docstring).  So both halves of a visited word are
    odd, the word is a hit iff _bad_power finds no power of a wrong
    weight, and its b is derive_b_bits(a, n) (module docstring).
    """
    half = 2 * n
    full = 1 << half
    # no word outside [0, 2^(4n)) passes check_candidate
    start = max(start, 0)
    stop = min(stop, 1 << (2 * half))
    hits = []
    if start >= stop:
        return hits
    for a2 in range(start >> half, ((stop - 1) >> half) + 1):
        w2 = a2.bit_count()
        if not w2 & 1:
            continue
        base = a2 << half
        end = min(stop - base, full)
        a1 = first_of_weight(max(start - base, 0), half - w2)
        while a1 < end:
            a = base | a1
            if _bad_power(a, n) is None:
                # wt(a) = 2n, so derive_b_bits never returns None here
                hits.append((a, derive_b_bits(a, n)))
            low = a1 & -a1
            ripple = a1 + low
            a1 = (((ripple ^ a1) >> 2) // low) | ripple
    return hits
