"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

1. One short run of every workload, untraced and traced, must be correct
   and emit exactly the metrics BENCHMARK.json names, with their units.
2. Every correctness gate must fail when its expected value is perturbed:
   the library gates (worker.gate, and the raw-hit count from the spans)
   and the CLI gates (run.search_cli_failures, run.chain_cli_failures).

Takes about 90 s on a 2-core x86 VM; it is not part of a benchmark run.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import expected as ex  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def perturbed(value):
    """Copies of `value` with one leaf changed, each with a label."""
    if isinstance(value, dict):
        for k, v in value.items():
            for label, changed in perturbed(v):
                out = dict(value)
                out[k] = changed
                yield f"{k}.{label}" if label else str(k), out
    elif isinstance(value, list):
        for i, v in enumerate(value):
            for label, changed in perturbed(v):
                yield f"[{i}]{label}", value[:i] + [changed] + value[i + 1:]
    elif isinstance(value, bool):
        yield "", not value
    elif isinstance(value, int):
        yield "", value + 1
    elif isinstance(value, str):
        yield "", value[:-1] + ("0" if value[-1:] != "0" else "1")


def check_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[kind]}
        for workload in ex.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=300)
            name = f"{workload} --trace {trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{name}: no result line ({proc.stderr.strip()[-200:]})")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(proc.returncode == 0 and result["correct"] and result["failed"] == 0,
                   f"{name}: correct, no failed operations")
            expect(got == want, f"{name}: emits every named metric with its unit")
            if trace == 0:
                expect(all(v["value"] > 0 for v in result["metrics"].values()),
                       f"{name}: every end-to-end metric is above zero")


def check_library_gates() -> None:
    tracer = spans.Tracer()
    spans.install(tracer, "full")
    dedup = tracer.stats["search.dedup"].counts
    for workload in ex.WORKLOADS:
        raw_before = dedup.get("raw_hits", 0)
        out = worker.run_pass(workload, worker.Pass(), worker.prepare(workload, 0))
        raw = dedup.get("raw_hits", 0) - raw_before
        true_want = ex.EXPECTED[workload]
        expect(worker.gate(workload, out, 0, True) == []
               and worker.raw_hit_failures(workload, raw) == [],
               f"{workload}: library gates pass on the real answer")
        for label, want in perturbed(true_want):
            ex.EXPECTED[workload] = want
            try:
                failed = worker.gate(workload, out, 0, False) + worker.raw_hit_failures(workload, raw)
            finally:
                ex.EXPECTED[workload] = true_want
            expect(bool(failed), f"{workload}: library gate fails when {label} is perturbed")


def check_cli_gates(work: Path) -> None:
    for workload in ("scan-general", "search-k2"):
        proc, _, found = run.Run(workload, 0, 0, work).search_cli()
        lines = proc.stdout.splitlines()
        true_want = ex.EXPECTED[workload]
        expect(run.search_cli_failures(workload, lines, found, true_want) == [],
               f"{workload}: CLI gates pass on the real output")
        for label, want in perturbed(true_want):
            if label.startswith("raw_hits"):
                continue  # raw hits are not visible through the CLI
            expect(bool(run.search_cli_failures(workload, lines, found, want)),
                   f"{workload}: CLI gate fails when {label} is perturbed")
    r = run.Run("transform-chain", 0, 0, work)
    result, _ = r.worker("plain", full_check=True)
    _, _, outputs = r.chain_cli()
    true_want = result["cli_expect"]
    expect(r.failed == 0 and run.chain_cli_failures(*outputs, true_want) == [],
           "transform-chain: CLI gates pass on the real output")
    for label, want in perturbed(copy.deepcopy(true_want)):
        expect(bool(run.chain_cli_failures(*outputs, want)),
               f"transform-chain: CLI gate fails when {label} is perturbed")


def main() -> int:
    work = ROOT / ".perfbench_work" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        check_library_gates()
        check_cli_gates(work)
        check_metric_names()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
