from __future__ import annotations

import random

import pytest

from hfpq import kernels_py
from hfpq.bitops import reverse_bits, rot_halves
from hfpq.core import BinaryWord, GroupElement, canonical_perm, prop_mul


def test_codeword_table_matches_perm_objects(golden):
    words = kernels_py.codeword_table(golden.a_vec.bits, golden.b_vec.bits, 6)
    acc = BinaryWord.zero(24)
    pa = canonical_perm(GroupElement(1, False), 6)
    for i in range(24):
        assert words[i] == acc.bits
        acc = prop_mul(golden.a_vec, pa, acc)
    for i in range(24):
        expect = prop_mul(
            BinaryWord(words[i], 24), canonical_perm(GroupElement(i, False), 6),
            golden.b_vec,
        )
        assert words[24 + i] == expect.bits


def test_check_candidate_accepts_reference(golden):
    out = kernels_py.check_candidate(golden.a_vec.bits, golden.b_vec.bits, 6)
    assert out == kernels_py.codeword_table(golden.a_vec.bits, golden.b_vec.bits, 6)


def test_check_candidate_rejects_tampering(golden):
    assert kernels_py.check_candidate(golden.a_vec.bits ^ 1, golden.b_vec.bits, 6) is None
    assert kernels_py.check_candidate(golden.a_vec.bits, golden.b_vec.bits ^ 3, 6) is None


def test_derive_b_bits_matches_reference(golden):
    assert kernels_py.derive_b_bits(golden.a_vec.bits, 6) == golden.b_vec.bits


def test_check_candidate_accepts_valid_64bit_code():
    from hfpq.search import search_k2
    from hfpq.transforms import double_code

    code = double_code(double_code(search_k2(4)[0]))
    assert code.length == 64
    a, b = code.a_vec.bits, code.b_vec.bits
    words = kernels_py.check_candidate(a, b, 16)
    assert words is not None
    assert words == kernels_py.codeword_table(a, b, 16)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_derive_b_bits_exists_iff_even_weight(n):
    # every a: None exactly for odd weight, otherwise b^2 = u as words
    length = 4 * n
    u = (1 << length) - 1
    for a in range(1 << length):
        b = kernels_py.derive_b_bits(a, n)
        if a.bit_count() & 1:
            assert b is None
        else:
            assert b is not None
            assert b ^ reverse_bits(b, length) == u


def _brute_scan(n, start, stop):
    """Reference scan: every a, weight check, derive_b_bits, check_candidate."""
    hits = []
    for a in range(start, stop):
        if a.bit_count() != 2 * n:
            continue
        b = kernels_py.derive_b_bits(a, n)
        if b is not None and kernels_py.check_candidate(a, b, n) is not None:
            hits.append((a, b))
    return hits


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_parity_lemma_power_2n(n):
    # a^(2n) = wt(a1) u1 + wt(a2) u2 for every word a, by direct iteration
    half = 2 * n
    mask = (1 << half) - 1
    for a in range(1 << (4 * n)):
        v = 0
        for _ in range(half):
            v = a ^ rot_halves(v, half)
        expect = (mask if (a & mask).bit_count() & 1 else 0) | (
            (mask << half) if (a >> half).bit_count() & 1 else 0
        )
        assert v == expect


def test_first_of_weight_exhaustive():
    for w in range(1, 9):
        of_weight = [x for x in range(1 << 9) if x.bit_count() == w]
        for lo in range(1 << 8):
            assert kernels_py.first_of_weight(lo, w) == min(
                x for x in of_weight if x >= lo
            )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_scan_general_matches_brute_force(n):
    space = 1 << (4 * n)
    row = 1 << (2 * n)
    assert kernels_py.scan_general(n, 0, space) == _brute_scan(n, 0, space)
    rng = random.Random(100 + n)
    for _ in range(60):
        # windows of up to three rows, starting and stopping mid-row
        start = rng.randrange(space)
        stop = min(space, start + rng.randrange(3 * row + 1))
        assert kernels_py.scan_general(n, start, stop) == _brute_scan(n, start, stop)
    for a2 in (1, row - 2):
        lo, hi = a2 * row + 3, a2 * row + row - 5
        assert kernels_py.scan_general(n, lo, hi) == _brute_scan(n, lo, hi)
    assert kernels_py.scan_general(n, 5, 5) == []


def test_scan_general_matches_brute_force_n5_window():
    # from mid-row (a2 = 522, weight 3) across a hit at a = 534767 and on
    # through the next four rows
    start = (522 << 10) + 100
    stop = start + 5000
    hits = kernels_py.scan_general(5, start, stop)
    assert hits == _brute_scan(5, start, stop)
    assert hits


def test_scan_general_n16_window_bounded_memory():
    import tracemalloc

    a2 = (1 << 17) - 1  # odd weight: the row holds words of weight 32
    start = (a2 << 32) | 0x5555_4000
    tracemalloc.start()
    try:
        hits = kernels_py.scan_general(16, start, start + 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert hits == _brute_scan(16, start, start + 4096)


def test_check_candidate_is_power_then_coset_words(golden):
    a, b = golden.a_vec.bits, golden.b_vec.bits
    words = kernels_py.power_words(a, 6)
    assert words[:24] == list(kernels_py.codeword_table(a, b, 6)[:24])
    assert kernels_py.coset_words(words, a, b, 6) == kernels_py.check_candidate(a, b, 6)
    assert kernels_py.power_words(a ^ 1, 6) is None
