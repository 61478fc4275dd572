"""Timing spans around hfpq's public functions, installed from outside.

Each wrapped function is replaced in every hfpq module that holds it, so
callers that imported it by name (``from .analysis import kernel_ints``)
or reach it through module globals (``kernels_py.scan_general`` calling
``check_candidate``) go through the span too.  Spans are aggregated in
memory per name and per (caller, callee) edge; a span's self time is its
duration minus the durations of the spans it directly caused.
"""

from __future__ import annotations

import sys
import time
from typing import Callable

ROOT = "<pass>"


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts: dict[str, int] = {}

    def as_dict(self) -> dict:
        return {"calls": self.calls, "total_s": self.total_s,
                "self_s": self.self_s, **self.counts}


Counter = Callable[[SpanStats, tuple, object], None]


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.edges: dict[str, int] = {}
        # one [name, child seconds] frame per open span
        self._stack: list[list] = [[ROOT, 0.0]]

    def wrap(self, name: str, fn: Callable, count: Counter | None = None) -> Callable:
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        def span(*args, **kwargs):
            parent = stack[-1]
            edge = f"{parent[0]}>{name}"
            edges[edge] = edges.get(edge, 0) + 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - frame[1]
            if count is not None:
                count(stats, args, out)
            return out

        span.__wrapped__ = fn
        return span

    def report(self) -> dict:
        return {"spans": {k: v.as_dict() for k, v in self.stats.items()},
                "edges": dict(self.edges)}


def bump(stats: SpanStats, key: str, by: int = 1) -> None:
    stats.counts[key] = stats.counts.get(key, 0) + by


def replace_everywhere(original: Callable, replacement: Callable) -> int:
    """Rebind every hfpq module attribute that is `original`; return how many."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "hfpq" or mod_name.startswith("hfpq.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


def _count_scan(stats: SpanStats, args: tuple, out) -> None:
    _, start, stop = args
    bump(stats, "candidates", stop - start)
    bump(stats, "hits", len(out))


def _count_none(key: str) -> Counter:
    def count(stats: SpanStats, args: tuple, out) -> None:
        if out is None:
            bump(stats, key)
    return count


def _count_accepted(stats: SpanStats, args: tuple, out) -> None:
    if out is not None:
        bump(stats, "accepted")


def install(tracer: Tracer, level: str) -> list[str]:
    """Wrap the layer boundaries; return the span names hidden from view.

    level "boundary" wraps only kernels.scan_general (one span per 4096
    candidates); level "full" wraps every layer boundary.  Under a
    compiled backend the calls that scan_general makes inside the
    extension cannot be seen, which the returned list says.
    """
    from hfpq import analysis, kernels, kernels_py, search, transforms, typeq

    targets: list[tuple[str, Callable, Counter | None]] = [
        ("kernels.scan_general", kernels.scan_general, _count_scan),
    ]
    hidden: list[str] = []
    if level == "full":
        pure = kernels.BACKEND == "pure"
        inner = kernels_py if pure else kernels
        if not pure:
            hidden = ["kernels.derive_b_bits inside kernels.scan_general",
                      "kernels.check_candidate inside kernels.scan_general"]
        targets += [
            ("kernels.derive_b_bits", inner.derive_b_bits, _count_none("rejected")),
            ("kernels.check_candidate", inner.check_candidate, _count_accepted),
            ("kernels.codeword_table", kernels.codeword_table, None),
            ("typeq.derive_a2", typeq.derive_a2, None),
            ("typeq.codeword_ints", typeq.codeword_ints, None),
            ("typeq.build_matrix", typeq.build_matrix, None),
            ("typeq.derive_b", typeq.derive_b, None),
            ("analysis.kernel_ints", analysis.kernel_ints, None),
            ("analysis.verify_hfp", analysis.verify_hfp, None),
            ("analysis.rank_of_ints", analysis.rank_of_ints, None),
            ("analysis.is_linear_code", analysis.is_linear_code, None),
            ("analysis.analyze", analysis.analyze, None),
            ("transforms.double_code", transforms.double_code, None),
            ("transforms.transpose_code", transforms.transpose_code, None),
        ]
        # The searches themselves form the "search" layer; dedup runs inside
        # it, so it is counted but not given a span of its own.
        for fn in (search.search_general, search.search_k2, search.ito_scan):
            targets.append(("search", fn, None))
        dedup = tracer.stats.setdefault("search.dedup", SpanStats())
        original_dedup = search._sorted_unique

        def counted_dedup(codes):
            codes = list(codes)
            out = original_dedup(codes)
            bump(dedup, "raw_hits", len(codes))
            bump(dedup, "unique", len(out))
            return out

        replace_everywhere(original_dedup, counted_dedup)
    for name, fn, count in targets:
        if replace_everywhere(fn, tracer.wrap(name, fn, count)) == 0:
            raise RuntimeError(f"no hfpq module holds {name}")
    return hidden
