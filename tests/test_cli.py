from __future__ import annotations

import contextlib
import dataclasses
import io
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hfpq import cli
from hfpq.cli import (
    CodeFileError,
    code_from_file,
    format_code_file,
    main,
    parse_code_file,
)
from hfpq.core import BinaryWord
from hfpq.typeq import TypeQCode, codeword_set

GOLDEN_FILE = """HFPQ v1
n=6
a=111111011010101001000000
b=010101110000111100010101
iota=11
"""


@pytest.fixture()
def golden_path(tmp_path):
    path = tmp_path / "golden.code"
    path.write_text(GOLDEN_FILE, encoding="ascii")
    return str(path)


def test_example_output(capsys):
    assert main(["example"]) == 0
    assert capsys.readouterr().out == GOLDEN_FILE


def test_parse_round_trip():
    cf = parse_code_file(GOLDEN_FILE)
    code = code_from_file(cf)
    assert format_code_file(code) == GOLDEN_FILE


def test_parse_accepts_minimal_file():
    cf = parse_code_file("HFPQ v1\nn=6\na=111111011010101001000000\n")
    code = code_from_file(cf)
    assert code.b_vec.to_string() == "010101110000111100010101"
    assert code.iota is None


def test_parse_errors_carry_position():
    with pytest.raises(CodeFileError) as info:
        parse_code_file("HFPQ v2\nn=6\n")
    assert info.value.line == 1
    with pytest.raises(CodeFileError) as info:
        parse_code_file("HFPQ v1\nn=6\na=111111011010101001x00000\n")
    assert info.value.line == 3
    assert info.value.column == 21
    with pytest.raises(CodeFileError):
        parse_code_file("HFPQ v1\nn=6\na=1111\n")
    with pytest.raises(CodeFileError):
        parse_code_file("HFPQ v1\nn=6\na=" + "0" * 24 + "\niota=12\n")


def test_analyze_reference_report(golden_path, capsys):
    assert main(["analyze", golden_path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "length=24",
        "s=3",
        "n_prime=3",
        "rank=12",
        "kernel_dim=2",
        "kernel_basis=111111111111111111111111;010101010101101010101010",
        "is_linear=false",
        "is_hfp=true",
    ]


def test_analyze_corrupt_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.code"
    path.write_text("HFPQ v1\nn=6\na=11111101101010100100000x\n", encoding="ascii")
    assert main(["analyze", str(path)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_analyze_non_ascii_file_exits_2(tmp_path, capsys):
    path = tmp_path / "accent.code"
    path.write_bytes(b"HFPQ v1\nn=6\na=1111\xc3\xa91011010101001000000\n")
    assert main(["analyze", str(path)]) == 2
    assert "line 3, col 7" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_search_nonpositive_n_exits_2(n, capsys):
    with pytest.raises(SystemExit) as info:
        main(["search", f"--n={n}"])
    assert info.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_search_nonpositive_limit_exits_2(limit, capsys):
    with pytest.raises(SystemExit) as info:
        main(["search", "--n", "2", f"--limit={limit}"])
    assert info.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_search_k2_only_with_limit_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["search", "--n", "2", "--k2-only", "--limit", "5"])
    assert info.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def _fake_clock(monkeypatch, step):
    ticks = iter(step * i for i in range(10**6))
    monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=lambda: next(ticks)))


def test_search_progress_throttled_by_time(monkeypatch, capsys):
    # 16 chunks at n=4, 0.4 s apart: a line every third chunk, then the last
    _fake_clock(monkeypatch, 0.4)
    assert main(["search", "--n", "4"]) == 0
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert [int(line.split("scanned=")[1].split()[0]) for line in lines] == [
        3 * 4096, 6 * 4096, 9 * 4096, 12 * 4096, 15 * 4096, 16 * 4096,
    ]
    assert lines[-1] == "search n=4: scanned=65536 raw_hits=1024"
    assert captured.out.splitlines()[-1] == "n=4 family=general hits=384"


def test_search_progress_final_line_only_when_fast(monkeypatch, capsys):
    _fake_clock(monkeypatch, 0.0)
    assert main(["search", "--n", "4"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "search n=4: scanned=65536 raw_hits=1024",
    ]
    assert main(["search", "--n", "3", "--n", "4", "--k2-only"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "search n=3: scanned=192 raw_hits=0",
        "search n=4: scanned=1024 raw_hits=512",
    ]


def test_analyze_missing_file_exits_2(tmp_path):
    assert main(["analyze", str(tmp_path / "absent.code")]) == 2


def test_analyze_b_mismatch_exits_1(tmp_path, capsys):
    path = tmp_path / "mismatch.code"
    path.write_text(
        "HFPQ v1\nn=6\na=111111011010101001000000\nb=010101110000111100010110\n",
        encoding="ascii",
    )
    assert main(["analyze", str(path)]) == 1


def test_analyze_non_code_exits_1(tmp_path, capsys):
    path = tmp_path / "junk.code"
    path.write_text("HFPQ v1\nn=2\na=10000000\n", encoding="ascii")
    assert main(["analyze", str(path)]) == 1


def test_analyze_bound_violation_exits_3(golden_path, monkeypatch, capsys):
    real = cli.analyze

    def violating(code):
        return dataclasses.replace(real(code), bound_violations=("rank <= 1",))

    monkeypatch.setattr(cli, "analyze", violating)
    assert main(["analyze", golden_path]) == 3
    err = capsys.readouterr().err
    assert err == "error: theorem bound violated (implementation bug): rank <= 1\n"


def test_transpose_command(golden_path, tmp_path, capsys):
    out = tmp_path / "t.code"
    assert main(["transpose", golden_path, "-o", str(out)]) == 0
    assert main(["analyze", str(out)]) == 0
    report = capsys.readouterr().out
    assert "rank=12" in report
    assert "kernel_dim=1" in report


def test_double_command(golden_path, tmp_path, capsys):
    out = tmp_path / "d.code"
    assert main(["double", golden_path, "-o", str(out)]) == 0
    text = out.read_text(encoding="ascii")
    assert "n=12" in text
    assert "iota=22" in text
    assert main(["analyze", str(out)]) == 0
    report = capsys.readouterr().out
    assert "rank=24" in report
    assert "kernel_dim=2" in report


def test_export_01_round_trip(golden_path, tmp_path):
    out = tmp_path / "rows.txt"
    assert main(["export", golden_path, "-o", str(out)]) == 0
    rows = out.read_text(encoding="ascii").splitlines()
    assert len(rows) == 24
    words = {BinaryWord.from_string(r).bits for r in rows}
    words |= {BinaryWord.from_string(r).complement().bits for r in rows}
    golden = code_from_file(parse_code_file(GOLDEN_FILE))
    assert words == codeword_set(golden)


def test_export_pm1_format(golden_path, capsys):
    assert main(["export", golden_path, "--format", "pm1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["+1"] * 24
    assert all(tok in ("+1", "-1") for line in lines for tok in line.split())
    assert all(line.split().count("-1") == 12 for line in lines[1:])


def test_search_k2_only_length12_empty(capsys):
    assert main(["search", "--n", "3", "--k2-only"]) == 0
    out = capsys.readouterr().out
    assert "n=3 family=k2 hits=0" in out


def test_search_writes_code_files(tmp_path, capsys):
    out_dir = tmp_path / "hits"
    assert main(["search", "--n", "1", "-o", str(out_dir)]) == 0
    files = sorted(out_dir.glob("*.code"))
    assert len(files) == 1
    assert main(["analyze", str(files[0])]) == 0
    report = capsys.readouterr().out
    assert "is_linear=true" in report
    assert "rank=3" in report


def test_search_multiple_n_summaries(capsys):
    assert main(["search", "--n", "1", "--n", "2", "--limit", "256"]) == 0
    out = capsys.readouterr().out
    assert "n=1 family=general hits=1" in out
    assert "n=2 family=general hits=" in out


def test_search_stdout_code_files_parse(capsys):
    assert main(["search", "--n", "4", "--k2-only"]) == 0
    out = capsys.readouterr().out
    blocks = [b for b in out.split("\n\n") if b.startswith("HFPQ")]
    assert len(blocks) == 128
    for block in blocks[:4]:
        parse_code_file(block + "\n")


# (a, b) of real codes (n = 1, 2, 3 and a k2 code with iota 7 at n = 4),
# so that most fuzzed files get past derive_b and into the transforms
_REAL = (
    ("0101", "0011"),
    ("00010111", "01001101"),
    ("000111001011", "010110100101"),
    ("0000101100101111", "0101111010000101"),
)
_JUNK = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)


def _flip(draw, word: str) -> str:
    i = draw(st.integers(0, len(word) - 1))
    return word[:i] + "10"[int(word[i])] + word[i + 1:]


@st.composite
def _code_files(draw):
    """Real code files with faults: each part may be broken, moved or lost."""

    def fault() -> bool:
        return draw(st.integers(0, 7)) == 7

    a, b = draw(st.sampled_from(_REAL))
    n = len(a) // 4
    if fault():
        a = draw(st.text("01", max_size=17))
    elif fault():
        a = _flip(draw, a)
    lines = [f"n={draw(st.integers(-1, 5)) if fault() else n}", f"a={a}"]
    if draw(st.booleans()):
        if fault():
            b = draw(st.text("01", max_size=17))
        elif fault():
            b = _flip(draw, b)
        elif draw(st.booleans()):
            b = "".join("10"[int(c)] for c in b)
        lines.append(f"b={b}")
    if draw(st.booleans()):
        # both ends are one past the range [0, 2n)
        lines.append(f"iota={draw(st.integers(-1, 2 * n))}")
    lines = draw(st.permutations(lines))
    if fault():
        del lines[draw(st.integers(0, len(lines) - 1))]
    if fault():
        lines.append(draw(st.sampled_from(lines)))
    if fault():
        lines.insert(draw(st.integers(0, len(lines))), draw(_JUNK))
    if not fault():
        lines.insert(0, cli.HEADER)
    return "\n".join(lines) + "\n"


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=_code_files())
def test_fuzz_code_files(text, tmp_path):
    try:
        parse_code_file(text)
    except CodeFileError:
        pass
    path = tmp_path / "fuzz.code"
    path.write_text(text, encoding="ascii")
    for command in ("analyze", "transpose", "double"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            assert main([command, str(path)]) in (0, 1, 2)
