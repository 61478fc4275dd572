"""One library pass of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py '{"workload": ..., "seed": ..., "mode": ...}'

mode "plain" imports hfpq, prepares the inputs (both timed as setup_s) and
runs one timed pass; "boundary" and "full" run it under spans (spans.py).
A fresh process per pass keeps typeq's codeword cache cold, as it is for
a user running the CLI.  The pass's answers are checked after the clock
stops; the result is one JSON line on standard output.
"""

from __future__ import annotations

import time

# setup_s counts from here: importing hfpq and preparing the inputs.
_T0 = time.perf_counter()

import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import expected as ex  # noqa: E402

import hfpq  # noqa: E402,F401
from hfpq import analysis, cli, kernels, search, transforms, typeq  # noqa: E402
from hfpq.core import BinaryWord  # noqa: E402
from hfpq.gf2poly import Gf2Poly  # noqa: E402


class Pass:
    """Times and counts the library calls of a pass; a call that raises ends it."""

    def __init__(self) -> None:
        self.op_s: list[float] = []

    @property
    def done(self) -> int:
        return len(self.op_s)

    def call(self, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.op_s.append(time.perf_counter() - t0)
        return out


def a_strings(codes) -> list[str]:
    return [c.a_vec.to_string() for c in codes]


def theorem_failures(codes) -> list[str]:
    """Codes that fail verify_hfp or violate a classify bound."""
    bad = []
    for code in codes:
        report = analysis.analyze(code)
        if not report.is_hfp or report.bound_violations:
            bad.append(f"{code.a_vec.to_string()}: hfp={report.is_hfp} "
                       f"violations={list(report.bound_violations)}")
    return bad


# --- inputs ---------------------------------------------------------------

def chain_start(seed: int) -> typeq.TypeQCode:
    """Seed 0: the embedded example; otherwise a random structured n=6
    candidate that verifies with kernel dimension 2."""
    n = ex.CHAIN_N
    if seed == 0:
        return typeq.TypeQCode(n, BinaryWord.from_string(cli.EXAMPLE_A),
                               BinaryWord.from_string(cli.EXAMPLE_B),
                               cli.EXAMPLE_IOTA)
    rng = random.Random(seed)
    half = 2 * n
    while True:
        iota = rng.randrange(half)
        a1 = rng.randrange(1 << half) | 1
        if a1.bit_count() % 2 == 0:
            a1 ^= 2
        a2 = typeq.derive_a2(Gf2Poly(a1, half), iota, n).coeffs
        a_vec = BinaryWord(a1 | (a2 << half), 4 * n)
        try:
            code = typeq.make_code(n, a_vec)
        except typeq.NotTypeQCandidate:
            continue
        report = analysis.analyze(code)
        if report.is_hfp and not report.bound_violations and report.kernel_dim == 2:
            return code


def prepare(workload: str, seed: int):
    return chain_start(seed) if workload == "transform-chain" else None


# --- passes: library calls only, answers checked afterwards ---------------

def run_pass(workload: str, p: Pass, start) -> dict:
    if workload == "scan-general":
        return {"codes": p.call(search.search_general, ex.SCAN_N)}
    if workload == "search-k2":
        return {n: p.call(search.search_k2, n) for n in ex.K2_NS}
    if workload == "ito-scan":
        return {"rows": p.call(search.ito_scan, ex.ITO_N_MAX)}
    steps = []
    code = start
    for _ in range(ex.CHAIN_DOUBLINGS):
        doubled = p.call(transforms.double_code, code)
        report = p.call(analysis.analyze, doubled)
        transposed = p.call(transforms.transpose_code, doubled)
        t_report = p.call(analysis.analyze, transposed)
        steps.append((code, doubled, report, transposed, t_report))
        code = doubled
    return {"steps": steps}


# --- gates: (op index, message) for every wrong answer ---------------------

def gate(workload: str, out: dict, seed: int, full: bool) -> list[tuple[int, str]]:
    want = ex.EXPECTED[workload]
    bad: list[tuple[int, str]] = []
    if workload == "scan-general":
        codes = out["codes"]
        if len(codes) != want["codes"]:
            bad.append((0, f"{len(codes)} codes, expected {want['codes']}"))
        if ex.digest(sorted(a_strings(codes))) != want["digest"]:
            bad.append((0, "code set digest differs"))
        if full:
            bad += [(0, m) for m in theorem_failures(codes)]
    elif workload == "search-k2":
        for i, n in enumerate(ex.K2_NS):
            codes = out[n]
            if len(codes) != want["codes"][n]:
                bad.append((i, f"n={n}: {len(codes)} codes, expected {want['codes'][n]}"))
            if ex.digest(sorted(a_strings(codes))) != want["digest"][n]:
                bad.append((i, f"n={n}: code set digest differs"))
            if full:
                bad += [(i, m) for m in theorem_failures(codes)]
    elif workload == "ito-scan":
        rows = out["rows"]
        exists = [r.exists for r in rows]
        if exists != want["exists"]:
            bad.append((0, f"exists={exists}"))
        witnesses = [r.witness for r in rows if r.witness is not None]
        if ex.digest(a_strings(witnesses)) != want["digest"]:
            bad.append((0, "witness digest differs"))
        bad += [(0, m) for m in theorem_failures(witnesses)]
    else:
        chain = []
        for k, (_, doubled, report, transposed, t_report) in enumerate(out["steps"]):
            length = 48 << k
            at = 4 * k
            chain += [doubled.a_vec.to_string(), transposed.a_vec.to_string()]
            if doubled.length != length or transposed.length != length:
                bad.append((at, f"step {k}: length {doubled.length}, expected {length}"))
            for idx, rep in ((at + 1, report), (at + 3, t_report)):
                if not rep.is_hfp or rep.bound_violations:
                    bad.append((idx, f"L={length}: hfp={rep.is_hfp} "
                                     f"violations={list(rep.bound_violations)}"))
            if report.kernel_dim != want["doubled_kernel_dim"]:
                bad.append((at + 1, f"L={length}: doubled kernel dim {report.kernel_dim}"))
            if seed == 0:
                if report.rank != length // 2:
                    bad.append((at + 1, f"L={length}: doubled rank {report.rank}"))
                if t_report.rank != length // 2:
                    bad.append((at + 3, f"L={length}: transpose rank {t_report.rank}"))
                if t_report.kernel_dim != want["seed0_transpose_kernel_dim"]:
                    bad.append((at + 3, f"L={length}: transpose kernel dim "
                                        f"{t_report.kernel_dim}"))
        if seed == 0 and ex.digest(chain) != want["seed0_digest"]:
            bad.append((ex.OPS[workload] - 1, "seed-0 chain digest differs"))
    return bad


def raw_hit_failures(workload: str, raw: int) -> list[tuple[int, str]]:
    """Searches: hits before dedup, as counted by the traced dedup."""
    want = ex.EXPECTED[workload].get("raw_hits")
    if want is None or raw == want:
        return []
    return [(0, f"{raw} raw hits, expected {want}")]


def codes_produced(workload: str, out: dict) -> int:
    """Unique verified codes a pass produced (built and analysed, for the chain)."""
    if workload == "scan-general":
        return len(out["codes"])
    if workload == "search-k2":
        return sum(len(out[n]) for n in ex.K2_NS)
    if workload == "ito-scan":
        return sum(1 for r in out["rows"] if r.witness is not None)
    return 2 * len(out["steps"])


def cli_expectation(out: dict, path: str) -> dict:
    """Write the last chain step's input for the CLI and what it must give."""
    start, doubled, report, transposed, _ = out["steps"][-1]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(cli.format_code_file(start))
    return {"double_a": doubled.a_vec.to_string(),
            "double_b": doubled.b_vec.to_string(),
            "rank": report.rank, "kernel_dim": report.kernel_dim,
            "transpose_a": transposed.a_vec.to_string()}


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    workload, seed, mode = job["workload"], job["seed"], job["mode"]
    start = prepare(workload, seed)
    result: dict = {
        "setup_s": time.perf_counter() - _T0,
        "env": {"backend": kernels.BACKEND, "have_compiled": kernels.HAVE_COMPILED},
    }
    tracer = None
    if mode in ("boundary", "full"):
        import spans

        tracer = spans.Tracer()
        result["hidden_spans"] = spans.install(tracer, mode)
    p = Pass()
    out = None
    t0 = time.perf_counter()
    try:
        out = run_pass(workload, p, start)
    except Exception as exc:  # a raising call is a failed operation
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["wall_s"] = time.perf_counter() - t0
    result["op_s"] = p.op_s
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # snapshot before the gates, which call into hfpq again
    info = typeq._codeword_ints.cache_info()
    result["cache"] = {"hits": info.hits, "misses": info.misses}
    if tracer is not None:
        result["trace"] = tracer.report()
    failures = [] if out is None else gate(workload, out, seed, job.get("full_check", False))
    if out is not None and mode == "full":
        raw = result["trace"]["spans"]["search.dedup"].get("raw_hits", 0)
        failures += raw_hit_failures(workload, raw)
    result["failed"] = ex.OPS[workload] - p.done + len({i for i, _ in failures})
    result["failures"] = [m for _, m in failures][:20]
    if out is not None:
        result["codes"] = codes_produced(workload, out)
        if job.get("cli_input"):
            result["cli_expect"] = cli_expectation(out, job["cli_input"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
