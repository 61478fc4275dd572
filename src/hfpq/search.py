"""Exhaustive desk-scale searches for type-Q codes.

Each candidate family is enumerated by one generator:

- _structured(n): iota in [0, 2n), a1 of odd weight, a2 derived from a1
  and iota; yields the verified candidates in (iota, a1) order.
- _general(n, stop): the generator words a in the quotient rows a2 below
  stop, one row per step; yields the hits of each row, then stop.

Candidates are decided on a alone (the theorem of kernels_py), through the
half profiles P(h) = (wt(S_k h))_{k=1..n} of that module's lemma: a is a
hit iff both halves of a are odd and P(a2) = 2n - P(a1) componentwise.

- The general search over the whole space is a join (_row_hits): the
  hits of a row a2 are the odd a1 whose profile is 2n - P(a2), looked up
  in a table that profiles one a1 per rotation class (P is invariant
  under rotation, proof in _JoinTable).  The table is keyed first by the
  class key P(h)[:2] = (wt h, wt((1 + x) h)), the weight and twice the
  number of cyclic runs, which costs one rotate-and-xor per necklace; a
  class is profiled only when a row's target 2n - P(a2) first names it.
  Nothing is missed: P(a1) = K implies P(a1)[:2] = K[:2].  A search with
  a limit scans the words of each row instead (kernels_py.scan_general:
  the parity lemma, then the power loop per word).
- In the structured family the profile of a2 follows from that of a1, so
  whether a candidate verifies does not depend on iota (_settled), and
  the family is empty for every odd n >= 3.

Every survivor is a hit, completed with b = derive_b_bits(a).

Both generators scan a quotient.  The raw hits are closed under sigma_s
(rotate half 1 by +s and half 2 by -s) and the complement a -> a + u, and
these maps keep every structured iota family and every kernel iota (proof
in _expand).  So _general scans only the rows a2 that are least in their
class under rotation and complement, and _structured only the a1 that
are; each row or a1 outside this set is an image of one inside.  These
representatives are generated, not filtered from every half-word:
_quotient keeps the odd necklaces of the FKM generator (_necklaces) that
no rotation of their complement undercuts, lazily and in increasing
order.  The searches expand each hit of the quotient into its orbit
(_expand): every image takes its b from the hit's b by sigma_s, without
derive_b_bits, codeword_table or kernel_ints, and an image and its
complement share it.  search_general expands each orbit from its least
member only: it keeps a hit iff the hit is the least of its images.  So
dedup sees every raw hit exactly once.  No search builds a kernel from
codewords: from n = 3 on it is read off a by analysis.structured_iota
(F5) once per expanded hit, and its iota is attached to every image; at
n <= 2 the code is linear and its kernel is its word table.  search_k2 and
search_general consume their generator completely; ito_scan takes the
first hit of each, which is the smallest hit overall because the least
word of an orbit lies in a quotient row (or has a quotient a1).

The key of a raw hit a names its code C: from n = 3 on one int, a
canonical member of the kernel coset a + K(C), which is exactly the set
of hits generating C (F3 and the key, in _expand); at n <= 2 the linear
code C itself.  Dedup keeps the hit of least a string per key
(_sorted_unique) and builds a TypeQCode only for it; the output is
sorted by the a string, so it is independent of the order in which
candidates are visited.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple

from . import kernels
from .analysis import structured_iota
from .core import BinaryWord
from .gf2poly import reverse_bits, rotl
from .typeq import TypeQCode, kappa_vector

Progress = Callable[[int, int], None]
# the key of a raw hit: an int from n = 3 on, the codeword set at n <= 2
Key = int | frozenset[int]
# a raw hit: (n, a, b, iota, key)
Hit = tuple[int, int, int, int | None, Key]


def _sorted_unique(hits: Iterable[Hit]) -> list[TypeQCode]:
    """Deduplicate raw hits by key: one code per key, sorted by a string.

    Keeps the smallest a string per key.  The a string compares as the int
    reverse_bits(a, 4n), bit 0 first.  From n = 3 on the hits of one key
    differ by u, which flips bit 0, and by kappa, whose lowest set bit is
    bit 1 (_expand), so their strings part at bit 0 or bit 1 and the 2-bit
    rank (bit 0, bit 1) orders them; at n <= 2 a key holds up to 8 hits,
    and the rank is the whole string.  reverse_bits then runs once per code,
    for the final sort, not once per raw hit.
    """
    best: dict[Key, tuple[int, Hit]] = {}
    for hit in hits:
        n, a, _, _, key = hit
        rank = (a & 1) << 1 | (a >> 1) & 1 if n > 2 else reverse_bits(a, 4 * n)
        old = best.get(key)
        if old is None or rank < old[0]:
            best[key] = (rank, hit)
    kept = [hit for _, hit in best.values()]
    del best  # before the records are built: for a long listing it sets the peak
    kept.sort(key=lambda hit: reverse_bits(hit[1], 4 * hit[0]))
    return [_code(*hit[:4]) for hit in kept]


def _code(n: int, a_bits: int, b_bits: int, iota: int | None) -> TypeQCode:
    length = 4 * n
    return TypeQCode(n, BinaryWord(a_bits, length), BinaryWord(b_bits, length), iota)


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def _stop(n: int, limit: int | None) -> int:
    _check_n(n)
    space = 1 << (4 * n)
    if limit is None:
        return space
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    return min(limit, space)


def _necklaces(width: int) -> Iterator[int]:
    """The width-bit ints least among their rotations, in increasing order.

    Read an int as the string of its width bits, most significant first.
    Then numeric order is lexicographic order and rotl rotates the string,
    so these are the binary necklaces of length width, in lexicographic
    order.  This is the FKM algorithm (Fredricksen, Kessler, Maiorana; the
    proof is Ruskey, Savage and Wang, "Generating necklaces", J.
    Algorithms 13, 1992): the successor of a prenecklace s, not all ones,
    is found by setting its last 0 (position i) to 1 and repeating s_1 ...
    s_i up to length width.  This lists every prenecklace (prefix of a
    necklace) in increasing order, and the new one is a necklace iff i
    divides width.  Here the last 0 is the lowest zero bit, at t = width - i
    trailing ones, and the repetition is one multiplication by a repunit
    of i-bit blocks.  Each step is a few int operations, and there are
    about twice as many prenecklaces as necklaces (2,538 for 1,182 at
    width 14).
    """
    top = (1 << width) - 1
    # an i-bit string s repeated to width bits is (s * unit) >> shift
    repeat = {}
    for i in range(1, width + 1):
        blocks = -(-width // i)
        repeat[i] = (((1 << i * blocks) - 1) // ((1 << i) - 1), i * blocks - width)
    x = 0
    yield x
    while x != top:
        t = (x ^ (x + 1)).bit_length() - 1
        i = width - t
        unit, shift = repeat[i]
        x = ((x >> t | 1) * unit) >> shift
        if not width % i:
            yield x


def _quotient(half: int) -> Iterator[int]:
    """The odd half-words least in their class, in increasing order.

    The class of x is its rotations and the rotations of its complement.
    These are the odd necklaces (_necklaces) that no rotation of their
    complement undercuts.  Generating them costs one pass over the
    necklaces, about 2^half / half of them, in place of a class test on
    every half-word.  The generator is lazy, so a caller that stops at the
    first hit pays only for the necklaces below it.
    """
    mask = (1 << half) - 1
    for x in _necklaces(half):
        if x.bit_count() & 1:
            c = x ^ mask
            cc = c << half | c
            if all((cc >> k) & mask >= x for k in range(half)):
                yield x


def _expand(a: int, b: int, iota: int | None, n: int) -> list[Hit]:
    """The raw hits (n, image, b, iota, key), one per image of a.

    The images of a are its orbit under sigma_s (s < 2n), which rotates
    half 1 by +s and half 2 by -s, and the complement a -> a + u.

    (a, b) is a hit, b = derive_b_bits(a, n), and iota is structured_iota(a,
    n): the kernel K(C) of the hit's code C is {0, u, kappa, kappa + u},
    kappa = kappa_vector(iota), or {0, u} when iota is None (n >= 3, F5).
    Only (a, b) is moved by sigma: no image calls derive_b_bits,
    codeword_table or kernel_ints, and from n = 3 on its key is read off
    the image.  Write sigma for sigma_s, u for the all-ones word, w(g) for
    the word of g and S_k = 1 + x + ... + x^(k-1).

    S.  sigma maps hits to hits and keeps every iota family.  sigma is a
        coordinate permutation that commutes with pi_a (the per-half
        rotation) and with pi_b (the full reversal, which sends position i
        of half 1 to position 2n-1-i of half 2).  So it maps the word table
        of (a, b) index for index onto the table of (sigma a, sigma b),
        which preserves the weights, distinctness and the defining
        relations: hits map to hits.  sigma b is derive_b_bits(sigma a) or
        its complement; b + u gives a^i (b + u) = a^(i+2n) b, which shifts
        the b-indices by 2n and leaves the kernel's iota (taken mod 2n)
        unchanged.  a + u = a^(2n+1) generates the same codeword set (the
        word of (a + u)^i is that of a^i, plus u for odd i), so it is a hit
        with the same kernel and iota.  In the structured family a2 =
        x^(iota+1) phi1(a1) + u, and phi1(x^s a1) = x^(-s) phi1(a1), so
        derive_a2(rot(a1, s), iota) = rot(derive_a2(a1, iota), -s) and
        derive_a2(a1 + u, iota) = derive_a2(a1, iota) + u: both maps keep
        every iota family.  sigma_s sends kappa_vector(iota) to itself (s
        even) or to its complement (s odd), and the kernel holds u, so
        every image has the kernel of the same iota.
    L1. derive_b_bits(a + u) = derive_b_bits(a).  phi(u_h) = u_h, so d1 =
        a1 + phi(a2) and d2 = a2 + phi(a1) do not change when both halves
        are complemented, and neither do q1, q2 or their pairing.
    L2. derive_b_bits(sigma a) is sigma b, or sigma b + u when bit 0 of
        sigma b is set.  sigma commutes with pi_a and pi_b (S), so
        sigma b solves the equations of sigma a; b is unique up to
        complement, and derive_b_bits returns the one with bit 0 clear.
    F3. The hits whose code is C are exactly a + K(C).  If C is linear
        (n <= 2), K(C) = C = a + K(C).  Otherwise K = K(C) has dimension 1
        or 2 (the paper's theorem), n >= 3, and:
        (subset) If a' is a hit with code C as well, left multiplication
            by a and by a' maps C onto C, so a + pi_a C = C = a' + pi_a C.
            So C + (a + a') = C, and a + a' is in K.
        (superset) pi_a C = C + a, so pi_a K = K.  If K = {0, u}, a + u =
            w(a^(2n+1)) is a hit with code C (S).  Else K = {0, u, z,
            z + u} and pi_a z is z or z + u.  pi_a z = z makes z constant
            on each half, u1||0 or 0||u2; then every c in C outside K has
            c + z in C, so wt(c) = wt(c + z) = 2n and c has half-weights
            (n, n).  That fails on a (odd halves) or on a^2 (even halves,
            (1 + x) a_h); neither is in K, which would then hold the words
            of all their powers, more than 4.  So pi_a z = z + u: z = kappa
            alternates on each half, and k <= s - 1 (the classify bound)
            makes n even.  Per half x kappa = kappa + u, so S_k kappa =
            k kappa + floor(k/2) u and w((a + kappa)^k) = w(a^k) + k kappa
            + floor(k/2) u.  That is u at k = 2n.  For 0 < k < 2n it is
            w(a^k) or its complement at even k; at odd k it is the codeword
            w(a^k) + kappa or its complement, not 0 or u, else w(a^(2k)) =
            w(a^k) + pi_a^k w(a^k) = kappa + pi_a^k kappa = u and k = n,
            which is even.  So a + kappa passes the powers (kernels_py's
            theorem).  derive_b_bits's equations are linear in a, and for
            kappa their right sides kappa_h + phi(kappa_h') lie in {0, u_h}
            (phi keeps an alternating half).  So b*(a + kappa) = b + beta
            with each half of beta constant or alternating, and b^2 = u on
            both gives beta1 = rev(beta2): beta is in {0, u} when kappa1 =
            kappa2, else in {kappa, kappa + u}.  So (a + kappa) + pi_a C =
            C and (b + beta) + pi_b C = C: the 8n words of a + kappa lie in
            C, so its code is C, and so is that of a + kappa + u (S).
        So two hits share a code iff they share a coset of K(C).
    Key. From n = 3 on, kappa = kappa_vector(iota) has bit 0 clear and bit
        1 set (its first half is the alternating v).  So a + K(C) has one
        member with bit 0 clear, and bit 1 clear too when kappa is in K(C):
        add u if bit 0 is set, then kappa if bit 1 is.  That member is the
        key.  sigma maps C onto the code of sigma a (S), so K(sigma C)
        = sigma K(C) = K(C): sigma fixes u and sends kappa to kappa or kappa
        + u (S).  So the key of an image comes from the image alone,
        and an image and its complement share it.  At n <= 2 the key is the
        linear code itself, its word set.
    Orbit. sigma_s is sigma_1 applied s times.  Let p be the least s > 0
        with sigma_s a in {a, a + u} (p <= 2n).  The 2p words sigma_t a and
        sigma_t a + u for t < p are distinct, since an equality would give
        a smaller p, and every later image is one of them.  So the loop
        stops at p, and each image is yielded once without a set.  Call a
        quotient row a2 free when its class under rotation and complement
        has 4n half-words.  The high half of sigma_s a, or of its
        complement, is rot(a2, -s) or its complement, so in a free row the
        4n images have the 4n high halves of the class: p = 2n, and a is
        the least image, since a2 is least in its class and the high half
        decides the order.  search_general does not rely on this: it
        compares every hit with its images (tests/test_search.py checks
        the free rows for n <= 7).

    So sigma a and sigma a + u share one b (L1, L2) and one key, and come
    out in that order.  tests/test_search.py checks F3 and the key
    exhaustively for n <= 6.
    """
    half = 2 * n
    mask = (1 << half) - 1
    u = (1 << (2 * half)) - 1
    kappa = 0 if iota is None else kappa_vector(iota, n).bits
    # each half doubled: rotl(h, s) = hh >> (half - s) & mask, rotl(h, -s) = hh >> s & mask
    double = 1 << half | 1
    aa1, aa2 = (a & mask) * double, (a >> half) * double
    bb1, bb2 = (b & mask) * double, (b >> half) * double
    hits: list[Hit] = []
    for s in range(half):
        t = half - s
        image = aa1 >> t & mask | (aa2 >> s & mask) << half
        if s and (image == a or image == a ^ u):
            break
        b_image = bb1 >> t & mask | (bb2 >> s & mask) << half
        if b_image & 1:
            b_image ^= u
        if n > 2:
            key: Key = image ^ u if image & 1 else image
            if key & 2:
                key ^= kappa
        else:
            key = frozenset(kernels.codeword_table(image, b_image, n))
        hits.append((n, image, b_image, iota, key))
        hits.append((n, image ^ u, b_image, iota, key))
    return hits


def _settled(a1: int, n: int) -> bool:
    """Whether the structured candidates of a1 verify, for every iota at once.

    With a2 = x^(iota+1) phi1(a1) + u, phi1(p)(x) = p(x^-1): S_k is
    palindromic, phi1(S_k) = x^-(k-1) S_k, so S_k phi1(a1) = x^(k-1)
    phi1(S_k a1), and phi1 and the rotations keep weights.  S_k u_2 is u_2
    for odd k and 0 for even k.  So wt(S_k a2) is wt(S_k a1) for even k and
    2n - wt(S_k a1) for odd k, and wt(a^k) = wt(S_k a1) + wt(S_k a2) (the
    half-profile lemma of kernels_py) is 2n at every odd k and 2 wt(S_k a1)
    at every even k.  a2 has weight 2n - wt(a1), so both halves are odd iff
    a1 is.  By the lemma the weights of a, ..., a^n decide, so the candidate
    verifies iff wt(a1) is odd and wt(S_k a1) = n for every even k <= n: the
    even-k columns of P(a1), whatever iota is.  The k = 2 column is
    wt((1 + x) a1) (_s2_weight), one rotate-and-xor, so at n >= 2 it is
    tested before the full profile.

    (1 + x) a1 = S_2 a1 always has even weight, so for odd n >= 3 no a1
    passes.  At n = 1 there is no even k <= n, and both odd a1 (1 and 2)
    pass.
    """
    if not a1.bit_count() & 1:
        return False
    if n > 1 and _s2_weight(a1, 2 * n) != n:
        return False
    return all(w == n for w in kernels.half_profile(a1, n)[1::2])


def _structured(n: int) -> Iterator[tuple[int, int, int]]:
    """Verified (iota, a, b) of the structured family, a1 least in its class.

    a2 = x^(iota+1) phi1(a1) + u has weight 2n - wt(a1), so every
    candidate has weight 2n and derive_b_bits always finds b.  Whether a
    candidate verifies depends on a1 alone (_settled), so the a1 are
    settled once, while iota 0 walks _quotient, and each later iota reuses
    them: it only builds a2 and b = derive_b_bits(a), and a caller that
    stops at the first hit settles only the a1 before it.  Every other
    verified candidate of an iota family is an image of one yielded here
    under sigma and the complement (_expand).  For odd n >= 3 the family
    is empty (_settled), and nothing is walked.
    """
    half = 2 * n
    if n > 1 and n & 1:
        return
    verified: list[int] = []
    for iota in range(half):
        for a1 in verified if iota else _quotient(half):
            if not iota:
                if not _settled(a1, n):
                    continue
                verified.append(a1)
            a_bits = a1 | (kernels.derive_a2_bits(a1, iota, n) << half)
            yield iota, a_bits, kernels.derive_b_bits(a_bits, n)


def _s2_weight(h: int, half: int) -> int:
    """wt((1 + x) h) = wt(h + rotl(h, 1)), the k = 2 column of P(h).

    It is twice the number of cyclic runs of the half-word h.
    """
    return (h ^ ((h << 1 | h >> (half - 1)) & ((1 << half) - 1))).bit_count()


class _JoinTable(dict[tuple[int, ...], dict[tuple[int, ...], list[int]]]):
    """The profile table of the join, profiled one class at a time.

    Maps a class key P(h)[:2] = (wt h, wt((1 + x) h)), or (wt h,) at n = 1,
    to {P(h): the odd necklaces h with that profile, increasing}.  The
    representatives are the odd necklaces (_necklaces): P is invariant
    under rotation, since in GF(2)[x]/(x^(2n) + 1), S_k x^s h = x^s S_k h,
    and multiplying by x^s rotates a half-word, which keeps its weight.
    So wt(S_k x^s h) = wt(S_k h) for every k, and one profile per rotation
    class stands for all of its rotations (_row_hits expands them).

    One pass over the necklaces sorts the odd ones by class key, one
    rotate-and-xor each; a class is profiled the first time it is looked
    up, and kept.  A row whose target is K looks up only the class K[:2],
    and misses nothing: P(a1) = K implies P(a1)[:2] = K[:2].
    """

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n
        self.unprofiled: dict[tuple[int, ...], list[int]] = {}
        half = 2 * n
        for h in _necklaces(half):
            weight = h.bit_count()
            if weight & 1:
                key = (weight, _s2_weight(h, half)) if n > 1 else (weight,)
                self.unprofiled.setdefault(key, []).append(h)

    def __missing__(self, key: tuple[int, ...]) -> dict[tuple[int, ...], list[int]]:
        profiles: dict[tuple[int, ...], list[int]] = {}
        for h in self.unprofiled.pop(key, ()):
            profiles.setdefault(kernels.half_profile(h, self.n), []).append(h)
        self[key] = profiles
        return profiles


def _row_hits(a2: int, n: int, table: _JoinTable) -> list[tuple[int, int]]:
    """The (a, b) hits of the odd row a2, a increasing, by the profile join.

    a = a1 + x^(2n) a2 is a hit iff a1 is odd and P(a1) = 2n - P(a2) (the
    half-profile lemma of kernels_py).  The target K = 2n - P(a2) is looked
    up in its class K[:2] of table; the hits are the distinct rotations of
    the matching representatives, each of which matches too.
    """
    half = 2 * n
    key = tuple(half - w for w in kernels.half_profile(a2, n))
    reps = table[key[:2]].get(key, ())
    a1s = {rotl(h, s, half) for h in reps for s in range(half)}
    base = a2 << half
    return [(base | a1, kernels.derive_b_bits(base | a1, n)) for a1 in sorted(a1s)]


def _general(n: int, stop: int) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """(words covered so far, (a, b) hits below stop) per quotient row a2.

    The rows come from _quotient, a2 increasing: the rows of odd weight
    that are least in their class, the only rows that hold hits.  Every
    hit below the covered bound is found here or is an image of a hit
    found in an earlier row: a row's class representative is at most the
    row.  Only the row holding stop is cut short; its words below stop
    are all scanned, and the other rows of its class lie above it.  The
    last step is (stop, []), so the covered bound always reaches stop.

    Over the whole space the rows are joined by profile (_row_hits), with
    one _JoinTable, built when the first row is asked for and kept as long
    as this generator.  It profiles a class only when a row first needs
    it, so a caller that stops at the first hit profiles only the classes
    of the rows before it: at n = 7, 118 half_profile calls up to the first
    hit, rows included, for 586 odd necklaces.  Below a limit the words of
    each row are scanned (kernels_py.scan_general), which is also the
    oracle of the join.  A limit covers few rows, but the table's pass
    would sort every odd necklace, whatever the limit: search_general(16,
    2**40) covers only the rows a2 < 256, yet its table would sort about
    2^31 / 32 = 67M odd necklaces.
    """
    half = 2 * n
    space = 1 << (2 * half)
    last = (stop - 1) >> half
    table = _JoinTable(n) if stop == space else None
    for a2 in _quotient(half):
        if a2 > last:
            break
        end = min((a2 + 1) << half, stop)
        if table is None:
            yield end, kernels.scan_general(n, a2 << half, end)
        else:
            yield end, _row_hits(a2, n, table)
    yield stop, []


def search_k2(n: int, *, progress: Progress | None = None) -> list[TypeQCode]:
    """Structured search: iota in [0, 2n), a1 of odd weight, a2 derived.

    Every verified candidate is a code with kernel {0, u, kappa, kappa + u},
    kappa = kappa_vector(iota) (F5, analysis.structured_iota), except at
    n <= 2, where every code is linear and none has a kernel of dimension
    2.  Each quotient candidate stands for its whole orbit.
    """
    _check_n(n)
    half = 2 * n
    hits: list[Hit] = []
    for iota, a_bits, b_bits in _structured(n) if n >= 3 else ():
        hits += _expand(a_bits, b_bits, iota, n)
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
    has dimension 2.  With a limit, only the images below it are kept.
    Each orbit is expanded from its least member, which is below the limit
    whenever any of its images is, and lies in a quotient row: a hit is
    kept iff it is the least of its images (_expand).  The raw hits stream
    into the dedup, so memory holds one entry per code, not every raw hit.
    """
    stop = _stop(n, limit)

    def hits() -> Iterator[Hit]:
        raw = 0
        for covered, found in _general(n, stop):
            for a_bits, b_bits in found:
                images = _expand(a_bits, b_bits, structured_iota(a_bits, n), n)
                if min(h[1] for h in images) != a_bits:
                    continue
                kept = [h for h in images if h[1] < stop]
                raw += len(kept)
                yield from kept
            if progress is not None:
                progress(covered, raw)

    return _sorted_unique(hits())


class ItoScanRow(NamedTuple):
    """Existence record for one length 4n; exists is None when truncated."""

    n: int
    exists: bool | None
    witness: TypeQCode | None


def ito_scan(n_max: int, limit: int | None = None) -> list[ItoScanRow]:
    """Existence of a type-Q code for each n up to n_max.

    The witness is the first structured hit, else the first general hit.
    A truncated scan that finds nothing reports None (unknown), never
    False: only a completed enumeration can prove nonexistence.
    """
    rows = []
    for n in range(1, n_max + 1):
        stop = _stop(n, limit)
        hit = next(((a, b) for _, a, b in _structured(n)), None)
        if hit is None:
            hit = next((h for _, found in _general(n, stop) for h in found), None)
        if hit is None:
            exists = False if stop == 1 << (4 * n) else None
            witness = None
        else:
            exists = True
            witness = _code(n, *hit, structured_iota(hit[0], n))
        rows.append(ItoScanRow(n, exists, witness))
    return rows
