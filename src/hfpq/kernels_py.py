"""Pure-Python scan kernels: codeword enumeration and candidate checking.

Words are 4n-bit ints.  The generator pair (a, b) realizes a group of
order 8n under the propelinear product with the canonical permutations
(per-half rotation for a, full reversal for b); the table lists the word
of a^i at index i and of a^i b at index 4n+i.

Lemma (parity of a^(2n)): per half h, a^k = sum_{j<k} x^j a_h in
GF(2)[x]/(x^(2n)-1), and sum_{j<2n} x^j = u_h, so a^(2n) = wt(a_h) u_h.
Hence a^(2n) = u iff both halves have odd weight; for wt(a) = 2n that is
wt(a1) odd.  scan_general enumerates only those words and runs the a-only
power_words before deriving b; check_candidate is power_words followed by
coset_words.
"""

from __future__ import annotations

from .bitops import div_x_plus_1, reverse_bits


def codeword_table(a: int, b: int, n: int) -> tuple[int, ...]:
    """All 8n words generated by (a, b); no validity checks."""
    half = 2 * n
    length = 4 * n
    mask = (1 << half) - 1
    shift = half - 1
    words = [0] * (2 * length)
    v = 0
    for i in range(1, length):
        lo = v & mask
        hi = v >> half
        v = a ^ (
            (((lo << 1) | (lo >> shift)) & mask)
            | ((((hi << 1) | (hi >> shift)) & mask) << half)
        )
        words[i] = v
    rb = b
    for i in range(length):
        words[length + i] = words[i] ^ rb
        lo = rb & mask
        hi = rb >> half
        rb = (((lo << 1) | (lo >> shift)) & mask) | (
            (((hi << 1) | (hi >> shift)) & mask) << half
        )
    return tuple(words)


def power_words(a: int, n: int) -> list[int] | None:
    """The a-only half of check_candidate: words of a^0..a^(4n-1), or None.

    Accepts iff a has weight 2n, a^(2n) = u and every other power a^i
    (0 < i < 4n) has weight 2n.  The result has length 8n; indices 4n and
    up are left for coset_words to fill.
    """
    half = 2 * n
    length = 4 * n
    mask = (1 << half) - 1
    shift = half - 1
    u = (1 << length) - 1
    if a.bit_count() != half:
        return None
    words = [0]
    v = 0
    for i in range(1, length):
        lo = v & mask
        hi = v >> half
        v = a ^ (
            (((lo << 1) | (lo >> shift)) & mask)
            | ((((hi << 1) | (hi >> shift)) & mask) << half)
        )
        if i == half:
            if v != u:
                return None
        elif v.bit_count() != half:
            return None
        words.append(v)
    words += [0] * length
    return words


def coset_words(words: list[int], a: int, b: int, n: int) -> tuple[int, ...] | None:
    """The b half of check_candidate, given power_words(a, n): the full table or None.

    Accepts iff b has weight 2n, b^2 = u, b a = a^{-1} b as words, every
    word a^i b has weight 2n and all 8n words are distinct.  Fills
    words[4n:] in place.
    """
    half = 2 * n
    length = 4 * n
    mask = (1 << half) - 1
    shift = half - 1
    u = (1 << length) - 1
    if b.bit_count() != half:
        return None
    if b ^ reverse_bits(b, length) != u:
        return None
    # b * a must equal a^{4n-1} * b; pi_a^{4n-1} rotates each half right by 1.
    lo = b & mask
    hi = b >> half
    b_rot_back = ((lo >> 1) | ((lo & 1) << shift)) | (
        (((hi >> 1) | ((hi & 1) << shift))) << half
    )
    if b ^ reverse_bits(a, length) != words[length - 1] ^ b_rot_back:
        return None
    rb = b
    for i in range(length):
        w = words[i] ^ rb
        if w.bit_count() != half:
            return None
        words[length + i] = w
        lo = rb & mask
        hi = rb >> half
        rb = (((lo << 1) | (lo >> shift)) & mask) | (
            (((hi << 1) | (hi >> shift)) & mask) << half
        )
    if len(set(words)) != 2 * length:
        return None
    return tuple(words)


def check_candidate(a: int, b: int, n: int) -> tuple[int, ...] | None:
    """codeword_table(a, b, n) if (a, b) yields a type-Q HFP code, else None.

    Accepts iff a has order 4n with a^{2n} = u, b^2 = u, b a = a^{-1} b as
    words, all 8n words are distinct, and every word outside {e, u} has
    weight 2n (which makes the code Hadamard).  The a-only conditions are
    power_words, the rest coset_words.
    """
    words = power_words(a, n)
    if words is None:
        return None
    return coset_words(words, a, b, n)


def derive_b_bits(a: int, n: int) -> int | None:
    """The b word determined by a, first bit 0; None exactly when wt(a) is odd.

    Solves (x+1) b_i = a_i + x * rev(a_{i'}) per half and fixes the pairing
    of half-quotients by b^2 = u; the other valid b is the complement.

    With phi(p)(x) = p(x^-1) we have x * rev(p) = phi(p), so d1 = a1 +
    phi(a2) and d2 = phi(d1).  The division by x+1 is exact iff wt(d1) is
    even, and wt(d1) = wt(a) mod 2.  Applying phi to (x+1) q1 = d1 shows
    that x^-1 phi(q1) = rev(q1) solves (x+1) q = d2, whose solutions are
    q2 and q2 + u; so rev(q2) is q1 or q1 + u and a pairing always exists.
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
    q1 = div_x_plus_1(d1, half)
    q2 = div_x_plus_1(d2, half)
    if q1 == reverse_bits(q2, half):
        q2 ^= mask
    return q1 | (q2 << half)


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
    a^(2n) = u (module docstring).  The b word is derived only for the
    words whose powers pass.
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
            words = power_words(a, n)
            if words is not None:
                # wt(a) = 2n, so derive_b_bits never returns None here
                b = derive_b_bits(a, n)
                if coset_words(words, a, b, n) is not None:
                    hits.append((a, b))
            low = a1 & -a1
            ripple = a1 + low
            a1 = (((ripple ^ a1) >> 2) // low) | ripple
    return hits
