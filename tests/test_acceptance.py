"""Acceptance criteria: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import random
import time

import pytest

from hfpq.analysis import analyze, compute_kernel, project_onto_support
from hfpq.core import BinaryWord, group_mul, type_q_table
from hfpq.search import ito_scan
from hfpq.transforms import (
    double_code,
    doubled_criterion_operand,
    rank_gcd_criterion,
    transpose_code,
)
from hfpq.typeq import (
    TypeQCode,
    all_codewords,
    codeword_ints,
    codeword_set,
    d1_in_coordinate_order,
    kappa_vector,
    verify_hadamard_group,
    verify_hfp,
)

from .conftest import GOLDEN_KAPPA
from .oracles import (
    canonical_perm,
    compose,
    element_vector,
    kernel_by_automorphism,
    rank_via_generators,
    squared_factorization,
)


def _report(criterion: int, label: str, started: float) -> None:
    print(f"ACCEPTANCE {criterion} ({label}): PASS in {time.perf_counter() - started:.2f}s")


@pytest.fixture(scope="module")
def corpus(golden, general_hits, k2_hits):
    """Codes under test for the oracle and axiom suites."""
    codes = [golden, transpose_code(golden)]
    doubled = double_code(golden)
    codes += [doubled, transpose_code(doubled)]
    for n in (1, 2, 3, 4):
        codes += general_hits[n]
    codes += k2_hits[6][::16]
    return codes


def test_criterion_1_golden_example(golden):
    t0 = time.perf_counter()
    assert verify_hfp(golden).ok
    rep = analyze(golden)
    assert rep.rank == 12
    assert rep.kernel_dim == 2
    dim, basis = compute_kernel(all_codewords(golden))
    assert dim == 2
    # kernel generator is the first-bit-zero representative of a^11 b
    from hfpq.core import GroupElement

    kv = element_vector(GroupElement(11, True), golden)
    rep_word = kv if kv.bit(1) == 0 else kv.complement()
    assert basis[1] == rep_word
    assert basis[1].to_string() == GOLDEN_KAPPA
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "golden example", t0)


def test_criterion_2_transpose(golden):
    t0 = time.perf_counter()
    t = transpose_code(golden)
    rep = analyze(t)
    assert rep.rank == 12
    assert rep.kernel_dim == 1
    assert codeword_set(transpose_code(t)) == codeword_set(golden)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, "transpose theorem", t0)


def test_criterion_3_doubling(golden):
    t0 = time.perf_counter()
    d = double_code(golden)
    rep = analyze(d)
    assert rep.length == 48
    assert rep.is_hfp
    assert rep.kernel_dim == 2
    assert rep.rank == 24
    rep_t = analyze(transpose_code(d))
    assert rep_t.kernel_dim == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(3, "doubling", t0)


def test_criterion_4_theorem_bounds(general_hits, k2_hits):
    t0 = time.perf_counter()
    checked = 0
    for hits in list(general_hits.values()) + list(k2_hits.values()):
        for code in hits:
            rep = analyze(code)
            assert rep.is_hfp
            assert rep.bound_violations == ()
            r, k, s = rep.rank, rep.kernel_dim, rep.s
            assert r <= (1 << (s + 1)) * rep.n_prime // (1 << k) + k - 1
            if not rep.is_linear:
                if s == 2:
                    assert r == rep.length - 1 and k == 1
                else:
                    assert r <= rep.length // 2 and k in (1, 2)
                assert rep.a_in_kernel is False
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    assert checked == sum(len(h) for h in general_hits.values()) + sum(
        len(h) for h in k2_hits.values()
    )
    _report(4, f"theorem bounds over {checked} codes", t0)


def test_criterion_5_ito_scan():
    t0 = time.perf_counter()
    rows = ito_scan(6)
    assert [row.n for row in rows] == [1, 2, 3, 4, 5, 6]
    assert all(row.exists is True for row in rows)
    assert all(verify_hfp(row.witness).ok for row in rows)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(5, "existence scan n<=6", t0)


def test_criterion_6_oracle_equivalence(corpus):
    t0 = time.perf_counter()
    k2_checked = 0
    for code in corpus:
        by_definition = compute_kernel(all_codewords(code))
        by_automorphism = kernel_by_automorphism(code)
        assert by_definition == by_automorphism
        rep = analyze(code)
        if rep.kernel_dim == 2:
            assert rank_via_generators(code) == rep.rank
            k2_checked += 1
    assert k2_checked > 0
    _report(6, f"oracle equivalence over {len(corpus)} codes", t0)


def test_criterion_7_gcd_soundness(k2_hits):
    t0 = time.perf_counter()
    checked = 0
    for n, hits in k2_hits.items():
        for code in hits:
            a1 = code.a_vec.bits & ((1 << (2 * code.n)) - 1)
            if rank_gcd_criterion(a1, code.iota, code.n):
                assert analyze(code).rank == 2 * code.n
            checked += 1
    rng = random.Random(20240117)
    for n in range(2, 7):
        half = 2 * n
        for _ in range(1000):
            a1 = rng.randrange(1 << half)
            k1 = rng.randrange(1 << half)
            iota = rng.randrange(half)
            assert doubled_criterion_operand(a1, k1, iota, n) == squared_factorization(
                a1, k1, iota, n
            )
    _report(7, f"gcd criterion over {checked} codes + 5000 identities", t0)


def test_criterion_8_axiom_property_suite(corpus):
    t0 = time.perf_counter()
    for code in corpus:
        n = code.n
        words = codeword_ints(code)
        u = (1 << code.length) - 1
        from hfpq.core import GroupElement

        gens = (GroupElement(1, False), GroupElement(0, True))
        for g in gens:
            for h in gens:
                assert compose(canonical_perm(g, n), canonical_perm(h, n)) == (
                    canonical_perm(group_mul(g, h, n), n)
                )
        for idx, w in enumerate(words):
            g = GroupElement(idx % (4 * n), idx >= 4 * n)
            if w in (0, u):
                continue
            assert w.bit_count() == 2 * n
            assert canonical_perm(g, n).fixed_points() == ()
        table = type_q_table(n)
        d1 = d1_in_coordinate_order(code)
        assert verify_hadamard_group(table, d1, 2 * n).ok
        d1_inv = [table.inv(i) for i in d1]
        assert verify_hadamard_group(table, d1_inv, 2 * n).ok
        d1_set = frozenset(d1)
        for x in range(table.order):
            if x in (0, 2 * n):  # the elements e and u
                continue
            inter = sum(1 for d in d1_set if table.product(d, x) in d1_set)
            assert inter == 2 * n
        from hfpq.analysis import kernel_ints

        for z in kernel_ints(words):
            if z in (0, u):
                continue
            proj = project_onto_support(all_codewords(code), BinaryWord(z, code.length))
            dists = {(a ^ b).weight for a in proj for b in proj if a != b}
            assert dists <= {n, 2 * n}
    _report(8, f"axiom suite over {len(corpus)} codes", t0)
