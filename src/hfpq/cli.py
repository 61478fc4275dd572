"""Command-line front end: code files, analysis reports, transforms, search.

Code file format (ASCII, newline-terminated, bit position 1 leftmost):

    HFPQ v1
    n=6
    a=111111011010101001000000
    b=010101110000111100010101
    iota=11

n and iota are ASCII decimal digits, with no sign, space or underscore.
b and iota are optional; b is re-derived and cross-checked when present,
and iota is cross-checked against the exponent read off the code's kernel.
Exit codes: 0 success, 1 mathematical verification failure, 2 parse error,
3 theorem bound violated by an analysis (an implementation bug).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import NamedTuple, Sequence

from .analysis import AnalysisReport, IndexingInconsistency, analyze, code_iota
from .core import BinaryWord
from .search import search_general, search_k2
from .transforms import double_code, transpose_code
from .typeq import TypeQCode, VerificationError, build_matrix, derive_b

HEADER = "HFPQ v1"

EXAMPLE_N = 6
EXAMPLE_A = "111111011010101001000000"
EXAMPLE_B = "010101110000111100010101"
EXAMPLE_IOTA = 11


class CodeFileError(ValueError):
    """Malformed code file; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1) -> None:
        super().__init__(message)
        self.line = line
        self.column = column


class CodeFile(NamedTuple):
    n: int
    a: BinaryWord
    b: BinaryWord | None
    iota: int | None


def _is_decimal(text: str) -> bool:
    # ASCII digits only: int() would also take a sign, spaces, "_" and the
    # digits of other scripts
    return text.isascii() and text.isdigit()


def parse_code_file(text: str) -> CodeFile:
    lines = text.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise CodeFileError(f"missing header line {HEADER!r}", 1)
    fields: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if "=" not in line:
            raise CodeFileError("expected key=value", lineno)
        key, value = line.split("=", 1)
        if key not in ("n", "a", "b", "iota"):
            raise CodeFileError(f"unknown key {key!r}", lineno)
        if key in fields:
            raise CodeFileError(f"duplicate key {key!r}", lineno)
        fields[key] = (value, lineno)

    def _int_field(key: str) -> tuple[int, int]:
        value, lineno = fields[key]
        if not _is_decimal(value):
            raise CodeFileError(f"{key} is not a decimal integer", lineno, len(key) + 2)
        return int(value), lineno

    if "n" not in fields:
        raise CodeFileError("missing n", len(lines))
    n, n_line = _int_field("n")
    if n < 1:
        raise CodeFileError("n must be >= 1", n_line)
    if "a" not in fields:
        raise CodeFileError("missing a", len(lines))

    def _word_field(key: str) -> BinaryWord:
        value, lineno = fields[key]
        for col, c in enumerate(value, start=1):
            if c not in "01":
                raise CodeFileError(f"{key} has a non-binary character", lineno,
                                    col + len(key) + 1)
        if len(value) != 4 * n:
            raise CodeFileError(
                f"{key} has length {len(value)}, expected {4 * n}", lineno
            )
        return BinaryWord.from_string(value)

    a = _word_field("a")
    b = _word_field("b") if "b" in fields else None
    iota = None
    if "iota" in fields:
        iota, iota_line = _int_field("iota")
        if not 0 <= iota < 2 * n:
            raise CodeFileError(f"iota out of range [0, {2 * n})", iota_line)
    return CodeFile(n, a, b, iota)


def format_code_file(code: TypeQCode) -> str:
    lines = [HEADER, f"n={code.n}", f"a={code.a_vec.to_string()}",
             f"b={code.b_vec.to_string()}"]
    if code.iota is not None:
        lines.append(f"iota={code.iota}")
    return "\n".join(lines) + "\n"


def code_from_file(cf: CodeFile) -> TypeQCode:
    """Build the code, deriving b and cross-checking a supplied b and iota."""
    derived = derive_b(cf.a, cf.n)
    if cf.b is not None and cf.b not in (derived, derived.complement()):
        raise VerificationError("b does not match the derivation from a")
    code = TypeQCode(cf.n, cf.a, cf.b if cf.b is not None else derived, cf.iota)
    if cf.iota is not None:
        iota = code_iota(code)
        if iota != cf.iota:
            raise VerificationError(
                f"iota={cf.iota} given, but the kernel gives iota={iota}"
            )
    return code


def load_code(path: str) -> TypeQCode:
    data = Path(path).read_bytes()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        lines = data[: exc.start].split(b"\n")
        raise CodeFileError("non-ASCII byte", len(lines), len(lines[-1]) + 1) from None
    return code_from_file(parse_code_file(text))


def report_lines(report: AnalysisReport) -> list[str]:
    basis = ";".join(w.to_string() for w in report.kernel_basis)
    lines = [
        f"length={report.length}",
        f"s={report.s}",
        f"n_prime={report.n_prime}",
        f"rank={report.rank}",
        f"kernel_dim={report.kernel_dim}",
        f"kernel_basis={basis}",
        f"is_linear={str(report.is_linear).lower()}",
        f"is_hfp={str(report.is_hfp).lower()}",
    ]
    if report.failure is not None:
        lines.append(f"failure={report.failure}")
        lines.append(f"witness={report.witness}")
    return lines


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="ascii")


def cmd_example(args: argparse.Namespace) -> int:
    code = TypeQCode(
        EXAMPLE_N,
        BinaryWord.from_string(EXAMPLE_A),
        BinaryWord.from_string(EXAMPLE_B),
        EXAMPLE_IOTA,
    )
    _write_output(format_code_file(code), args.output)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    code = load_code(args.path)
    report = analyze(code)
    for line in report_lines(report):
        print(line)
    if report.bound_violations:
        print(
            "error: theorem bound violated (implementation bug): "
            + "; ".join(report.bound_violations),
            file=sys.stderr,
        )
        return 3
    return 0 if report.is_hfp else 1


def cmd_transform(args: argparse.Namespace) -> int:
    out = args.transform(load_code(args.path))
    _write_output(format_code_file(out), args.output)
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    lines = [w.to_string() for w in build_matrix(load_code(args.path)).row_words()]
    if args.format == "pm1":
        pm1 = str.maketrans({"0": "+1 ", "1": "-1 "})
        lines = [line.translate(pm1)[:-1] for line in lines]
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


class _Progress:
    """Search progress on stderr: at most one line per second, then the last.

    raw_hits counts verified hits before deduplication by the kernel coset
    a + K(C), one key per code.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.printed_at = time.monotonic()
        self.pending: str | None = None

    def __call__(self, scanned: int, raw_hits: int) -> None:
        self.pending = f"search n={self.n}: scanned={scanned} raw_hits={raw_hits}"
        now = time.monotonic()
        if now - self.printed_at >= 1.0:
            self.flush()
            self.printed_at = now

    def flush(self) -> None:
        if self.pending is not None:
            print(self.pending, file=sys.stderr)
            self.pending = None


def cmd_search(args: argparse.Namespace) -> int:
    out_dir = Path(args.output) if args.output else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    family = "k2" if args.k2_only else "general"
    for n in args.n:
        progress = _Progress(n)
        if args.k2_only:
            hits = search_k2(n, progress=progress)
        else:
            hits = search_general(n, args.limit, progress=progress)
        progress.flush()
        for i, code in enumerate(hits):
            text = format_code_file(code)
            if out_dir is None:
                sys.stdout.write(text + "\n")
            else:
                (out_dir / f"hfpq_n{n}_{family}_{i:03d}.code").write_text(
                    text, encoding="ascii"
                )
        print(f"n={n} family={family} hits={len(hits)}")
    return 0


def _positive_int(text: str) -> int:
    # a leading "-" passes here, so that -1 gets the range message
    if not _is_decimal(text.removeprefix("-")):
        raise argparse.ArgumentTypeError(f"{text!r} is not a decimal integer")
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfpq",
        description="Hadamard full propelinear codes of type Q over GF(2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("example", help="emit the embedded length-24 code")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("analyze", help="verify and report rank/kernel")
    p.add_argument("path")
    p.set_defaults(func=cmd_analyze)

    for name, transform, text in (
        ("transpose", transpose_code, "code of the transposed matrix"),
        ("double", double_code, "doubling construction (kernel dim 2)"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("path")
        p.add_argument("-o", "--output", default=None)
        p.set_defaults(func=cmd_transform, transform=transform)

    p = sub.add_parser("search", help="exhaustive search for one or more n")
    p.add_argument("--n", type=_positive_int, action="append", required=True)
    family = p.add_mutually_exclusive_group()
    family.add_argument("--k2-only", action="store_true")
    family.add_argument("--limit", type=_positive_int, default=None,
                        help="scan only the first LIMIT generator words")
    p.add_argument("-o", "--output", default=None,
                   help="directory for one code file per hit")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("export", help="write the Hadamard matrix rows")
    p.add_argument("path")
    p.add_argument("--format", choices=("01", "pm1"), default="01")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CodeFileError as exc:
        print(f"error: line {exc.line}, col {exc.column}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexingInconsistency) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
