"""hfpq benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program measured is the source tree next to this
directory (``src/hfpq``), imported through PYTHONPATH with whichever scan
backend hfpq selects itself.  Workloads (see BENCHMARK.json for why each
exists):

  scan-general     search_general(5): all 2^20 generator words.
  search-k2        search_k2(6): 24,576 structured candidates.
  ito-scan         ito_scan(8): latency to the first code at each length.
  transform-chain  double a length-24 kernel-dimension-2 code five times;
                   analyze and transpose at each length (up to 768).

Every library pass runs in a fresh single-threaded worker process
(worker.py), so typeq's codeword cache starts cold as it does for a CLI
user, and passes never overlap.  One cycle is a library pass followed by
the same work through ``python3 -m hfpq`` as a subprocess; cycles repeat
until --seconds have passed.  Every pass and every CLI command is checked
against exact expected results (expected.py).

--trace 0 prints the end-to-end metrics: medians over the run's passes of
setup_s (import hfpq and prepare inputs, in a fresh process), wall_s (one
library pass), codes_per_s (unique verified codes per second of wall_s),
cli_wall_s (the same work through the CLI; ito-scan has no CLI command, so
there it is the whole worker process timed from outside) and peak_rss_mb
(peak resident memory of the worker).  --trace 1 adds to each cycle a pass
with spans around every layer boundary (spans.py) and prints the per-layer
metrics.  The line before the result holds the full record: environment,
every sample, tail percentiles where the sample count supports one, the
candidate rates and the failed-operation ratio.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import expected as ex  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 60
# no cycle starts that would end past this, whatever --seconds says
RUN_LIMIT_S = 150
CANDIDATES = {"scan-general": ex.SCAN_CANDIDATES, "search-k2": ex.K2_CANDIDATES}
CHAIN_COMMANDS = ("double", "analyze", "transpose")


def tail(values: list[float]) -> dict | None:
    """Highest whole percentile with at least ten samples above it."""
    if len(values) < 20:
        return None
    q = int(100 * (1 - 10 / len(values)))
    return {"percentile": q,
            "value": statistics.quantiles(values, n=100, method="inclusive")[q - 1]}


class Run:
    """One run of one workload: its cycles, their samples and any failures."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.env: dict = {}
        self.hidden_spans: list[str] = []
        self.cli_input = work / "chain_in.code" if workload == "transform-chain" else None
        self.cli_expect: dict | None = None
        self.child_env = dict(os.environ)
        old = self.child_env.get("PYTHONPATH")
        self.child_env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
        self.s: dict[str, list] = {k: [] for k in (
            "setup_s", "wall_s", "codes_per_s", "cli_wall_s", "rss_mb", "boundary", "full")}

    # --- processes ---------------------------------------------------------

    def _child(self, argv: list[str], cwd: Path) -> tuple[subprocess.CompletedProcess | None, float]:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=cwd, env=self.child_env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        return proc, time.perf_counter() - t0

    def _fail(self, ops: int, message: str) -> None:
        self.failed += ops
        if len(self.failures) < 20:
            self.failures.append(message)

    def worker(self, mode: str, full_check: bool = False) -> tuple[dict | None, float]:
        job = {"workload": self.workload, "seed": self.seed, "mode": mode,
               "full_check": full_check}
        if full_check and self.cli_input is not None:
            job["cli_input"] = str(self.cli_input)
        proc, wall = self._child([sys.executable, str(HERE / "worker.py"), json.dumps(job)], ROOT)
        ops = ex.OPS[self.workload]
        self.attempted += ops
        if proc is None or proc.returncode != 0:
            detail = "timed out" if proc is None else proc.stderr.strip()[-400:]
            self._fail(ops, f"{mode} worker failed: {detail}")
            return None, wall
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            self._fail(ops, f"{mode} worker printed no result")
            return None, wall
        self.env = self.env or result["env"]
        self.failed += result["failed"]
        for m in result["failures"]:
            self._fail(0, f"{mode} pass: {m}")
        if "error" in result:
            self._fail(0, f"{mode} pass raised {result['error']}")
        if mode == "full":
            self.hidden_spans = result["hidden_spans"]
        if "cli_expect" in result:
            self.cli_expect = result["cli_expect"]
        return result, wall

    def hfpq_cli(self, *args: str) -> tuple[subprocess.CompletedProcess | None, float]:
        self.attempted += 1
        proc, wall = self._child([sys.executable, "-m", "hfpq", *args], self.work)
        if proc is None or proc.returncode != 0:
            detail = "timed out" if proc is None else f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
            self._fail(1, f"hfpq {' '.join(args)}: {detail}")
            return None, wall
        return proc, wall

    # --- CLI passes -----------------------------------------------------------

    def cli_pass(self, lib_outside_wall: float | None) -> float | None:
        """Wall time of the workload's CLI commands, or None if one failed.

        ito-scan has no CLI command: its figure is the whole library worker
        process (interpreter start, import, pass, exit) timed from outside.
        """
        if self.workload == "ito-scan":
            return lib_outside_wall
        if self.workload == "transform-chain":
            return self._chain_cli_pass()
        proc, wall, found = self.search_cli()
        if proc is None:
            return None
        bad = search_cli_failures(self.workload, proc.stdout.splitlines(), found,
                                  ex.EXPECTED[self.workload])
        if bad:
            self._fail(1, f"hfpq search: {'; '.join(bad)}")
            return None
        return wall

    def search_cli(self) -> tuple[subprocess.CompletedProcess | None, float, dict[int, list[str]]]:
        """Run the workload's `hfpq search`; return the sorted `a` of its code files per n."""
        out = self.work / "cli-out"
        shutil.rmtree(out, ignore_errors=True)
        family, counts, _ = search_spec(self.workload, ex.EXPECTED[self.workload])
        args = ["search", *[x for n in counts for x in ("--n", str(n))], "-o", str(out)]
        if family == "k2":
            args.append("--k2-only")
        proc, wall = self.hfpq_cli(*args)
        found = {n: sorted(read_code_file(f).get("a", "")
                           for f in out.glob(f"hfpq_n{n}_{family}_*.code")) for n in counts}
        shutil.rmtree(out, ignore_errors=True)
        return proc, wall, found

    def _chain_cli_pass(self) -> float | None:
        if self.cli_expect is None or not self.cli_input.is_file():
            self.attempted += len(CHAIN_COMMANDS)
            self._fail(len(CHAIN_COMMANDS), "no chain input for the CLI step")
            return None
        total, ran, outputs = self.chain_cli()
        bad = chain_cli_failures(*outputs, self.cli_expect)
        for i in sorted({i for i, _ in bad} & ran):  # a failed command is counted already
            self._fail(1, f"hfpq {CHAIN_COMMANDS[i]}: "
                          + "; ".join(m for j, m in bad if j == i))
        return total if len(ran) == len(CHAIN_COMMANDS) and not bad else None

    def chain_cli(self) -> tuple[float, set[int], tuple[dict, dict, dict]]:
        """Run double, analyze, transpose on the chain's last input.

        Returns their total wall time, the indices of the commands that
        exited 0, and the doubled code file, the analyze report and the
        transposed code file as key=value dicts.
        """
        doubled, transposed = self.work / "doubled.code", self.work / "transposed.code"
        for stale in (doubled, transposed):
            stale.unlink(missing_ok=True)
        commands = (("double", str(self.cli_input), "-o", str(doubled)),
                    ("analyze", str(doubled)),
                    ("transpose", str(doubled), "-o", str(transposed)))
        total, ran, analyzed = 0.0, set(), {}
        for i, args in enumerate(commands):
            proc, wall = self.hfpq_cli(*args)
            total += wall
            if proc is not None:
                ran.add(i)
                if args[0] == "analyze":
                    analyzed = key_values(proc.stdout)
        return total, ran, (read_code_file(doubled), analyzed, read_code_file(transposed))

    # --- the run ----------------------------------------------------------

    def measure(self, trace: bool) -> None:
        t_start = time.perf_counter()
        first = True
        while True:
            t_cycle = time.perf_counter()
            result, outside = self.worker("boundary" if trace else "plain", full_check=first)
            # the full check (and the chain's CLI input) waits for a pass that completes
            first = result is None or "codes" not in result
            if not first and trace:
                self.s["boundary"].append(result)
            elif not first:
                self.s["setup_s"].append(result["setup_s"])
                self.s["wall_s"].append(result["wall_s"])
                self.s["codes_per_s"].append(result["codes"] / result["wall_s"])
                self.s["rss_mb"].append(result["rss_mb"])
            if trace:
                traced, _ = self.worker("full")
                if traced is not None and "trace" in traced:
                    self.s["full"].append(traced)
            cli_wall = self.cli_pass(None if first else outside)
            if cli_wall is not None:
                self.s["cli_wall_s"].append(cli_wall)
            # start another cycle only if one like the last still fits
            now = time.perf_counter()
            if now - t_start + (now - t_cycle) > min(self.seconds, RUN_LIMIT_S):
                break

    def end_to_end(self) -> dict:
        s = self.s
        return {
            "setup_s": (median(s["setup_s"]), "s"),
            "wall_s": (median(s["wall_s"]), "s"),
            "codes_per_s": (median(s["codes_per_s"]), "1/s"),
            "cli_wall_s": (median(s["cli_wall_s"]), "s"),
            "peak_rss_mb": (median(s["rss_mb"]), "MB"),
        }

    def per_layer(self) -> dict:
        full, boundary = self.s["full"], self.s["boundary"]
        spans = [f["trace"]["spans"] for f in full]

        def calls(name: str) -> int:
            return spans[0].get(name, {}).get("calls", 0)

        def count(name: str, key: str) -> int:
            return spans[0].get(name, {}).get(key, 0)

        def self_s(name: str) -> float:
            return median([sp.get(name, {}).get("self_s", 0.0) for sp in spans])

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        m: dict[str, tuple[float, str]] = {}
        for name in ("kernels.scan_general", "kernels.derive_b_bits", "kernels.check_candidate",
                     "kernels.codeword_table", "typeq.derive_a2", "typeq.codeword_ints",
                     "typeq.build_matrix", "typeq.derive_b", "analysis.kernel_ints",
                     "analysis.verify_hfp", "analysis.rank_of_ints", "analysis.is_linear_code",
                     "analysis.analyze", "transforms.double_code", "transforms.transpose_code"):
            m[f"{name}.calls"] = (calls(name), "count")
            m[f"{name}.self_s"] = (self_s(name), "s")
        m["kernels.scan_general.candidates"] = (count("kernels.scan_general", "candidates"), "count")
        m["kernels.scan_general.hits"] = (count("kernels.scan_general", "hits"), "count")
        per_candidate = []
        for b in boundary:
            scan = b["trace"]["spans"]["kernels.scan_general"]
            if scan.get("candidates"):
                per_candidate.append(scan["total_s"] / scan["candidates"] * 1e9)
        m["kernels.scan.ns_per_candidate"] = (median(per_candidate) if per_candidate else 0.0, "ns")
        m["kernels.derive_b_bits.reject_ratio"] = (
            ratio(count("kernels.derive_b_bits", "rejected"), calls("kernels.derive_b_bits")), "ratio")
        m["kernels.check_candidate.accept_ratio"] = (
            ratio(count("kernels.check_candidate", "accepted"), calls("kernels.check_candidate")), "ratio")
        cache = full[0]["cache"]
        m["typeq.codeword_cache.hit_ratio"] = (
            ratio(cache["hits"], cache["hits"] + cache["misses"]), "ratio")
        m["search.self_s"] = (self_s("search"), "s")
        raw, unique = count("search.dedup", "raw_hits"), count("search.dedup", "unique")
        m["search.dedup.raw_hits"] = (raw, "count")
        m["search.dedup.unique"] = (unique, "count")
        m["search.dedup.unique_ratio"] = (ratio(unique, raw), "ratio")
        plain = median([b["wall_s"] for b in boundary])
        # the chain's CLI commands redo only its last double, analyze, transpose
        same_work = (median([sum(b["op_s"][-4:-1]) for b in boundary])
                     if self.workload == "transform-chain" else plain)
        m["cli.overhead_s"] = (median(self.s["cli_wall_s"]) - same_work, "s")
        m["trace.overhead_ratio"] = (median([f["wall_s"] for f in full]) / plain, "ratio")
        return m

    def record(self, trace: bool, load_at_start: tuple, cpu: int) -> dict:
        s = self.s
        walls = s["wall_s"] or [b["wall_s"] for b in s["boundary"]]
        rec = {
            "workload": self.workload, "seed": self.seed, "trace": int(trace),
            "seconds": self.seconds,
            "env": {**self.env, "python": platform.python_version(),
                    "numpy": package_version("numpy"),
                    "nproc": os.cpu_count(), "loadavg_at_start": list(load_at_start),
                    "git_sha": git_sha(), "source_sha256": source_digest(),
                    "HFPQ_PURE_PYTHON": os.environ.get("HFPQ_PURE_PYTHON")},
            "cold_passes": "each library pass runs in a fresh process",
            "pinned_cpu": cpu,
            "samples": {k: len(v) for k, v in s.items()},
            "wall_s": {"median": median(walls) if walls else None, "tail": tail(walls),
                       "values": walls},
            "cli_wall_s": {"values": s["cli_wall_s"], "tail": tail(s["cli_wall_s"])},
            "attempted": self.attempted, "failed": self.failed,
            "ops_failed_ratio": self.failed / self.attempted if self.attempted else None,
            "failures": self.failures,
        }
        if walls and self.workload in CANDIDATES:
            rec["candidates_per_s"] = CANDIDATES[self.workload] / median(walls)
        if trace:
            rec["hidden_spans"] = self.hidden_spans
            if s["full"]:
                rec["edges"] = s["full"][0]["trace"]["edges"]
        return rec


def key_values(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def read_code_file(path: Path) -> dict[str, str]:
    try:
        return key_values(path.read_text(encoding="ascii"))
    except OSError:
        return {}


def search_spec(workload: str, want: dict) -> tuple[str, dict[int, int], dict[int, str]]:
    """(family, codes per n, digest per n) of a search workload."""
    if workload == "scan-general":
        return "general", {ex.SCAN_N: want["codes"]}, {ex.SCAN_N: want["digest"]}
    return "k2", want["codes"], want["digest"]


def search_cli_failures(workload: str, lines: list[str], found: dict[int, list[str]],
                        want: dict) -> list[str]:
    """Check `hfpq search` output: summary lines and the sorted `a` of the code files."""
    family, counts, digests = search_spec(workload, want)
    bad = []
    for n, count in counts.items():
        if f"n={n} family={family} hits={count}" not in lines:
            bad.append(f"n={n}: no summary line with hits={count}")
        a = found.get(n, [])
        if len(a) != count:
            bad.append(f"n={n}: {len(a)} code files, expected {count}")
        if ex.digest(a) != digests[n]:
            bad.append(f"n={n}: code file digest differs")
    return bad


def chain_cli_failures(doubled: dict, analyzed: dict, transposed: dict,
                       want: dict) -> list[tuple[int, str]]:
    """(command index, message) where the CLI chain step disagrees with the library."""
    bad = []
    if (doubled.get("a"), doubled.get("b")) != (want["double_a"], want["double_b"]):
        bad.append((0, "doubled code differs from double_code"))
    for key in ("rank", "kernel_dim"):
        if analyzed.get(key) != str(want[key]):
            bad.append((1, f"{key}={analyzed.get(key)}, expected {want[key]}"))
    if analyzed.get("is_hfp") != "true":
        bad.append((1, f"is_hfp={analyzed.get('is_hfp')}"))
    if transposed.get("a") != want["transpose_a"]:
        bad.append((2, "transposed code differs from transpose_code"))
    return bad


def package_version(name: str) -> str | None:
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


def git_sha() -> str | None:
    """None in a checkout without git metadata; source_sha256 names the code then."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    """sha256 over src/ (paths and contents), naming the code measured."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=ex.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "hfpq" / "__init__.py").is_file():
        print(f"error: no hfpq source tree at {SRC}", file=sys.stderr)
        return 2
    # exit through SystemExit, so subprocess.run kills and reaps a running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    load = os.getloadavg()
    # One CPU for this process and every child it starts: passes never
    # overlap, and none is moved between CPUs while it is timed.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds, work)
    try:
        run.measure(bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    correct = run.failed == 0
    metrics = {}
    try:
        values = run.per_layer() if args.trace else run.end_to_end()
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    except (statistics.StatisticsError, IndexError, KeyError, ZeroDivisionError) as exc:
        correct = False
        run.failures.append(f"no metrics: {type(exc).__name__}: {exc}")
    print(json.dumps({"record": run.record(bool(args.trace), load, cpu)}))
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
