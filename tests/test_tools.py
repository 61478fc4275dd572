from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC_SIZE = Path(__file__).resolve().parent.parent / "tools" / "src_size.py"


def _src_size(path: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SRC_SIZE), str(path)],
                          capture_output=True, text=True)


def _sizes(path: Path) -> dict[str, int]:
    run = _src_size(path)
    assert run.returncode == 0, run.stderr
    return {key: int(value) for key, value in
            (line.split("=") for line in run.stdout.splitlines())}


def test_src_size_counts_docstrings_as_lines_only(tmp_path):
    source = tmp_path / "pkg" / "mod.py"
    source.parent.mkdir()
    source.write_text("def f():\n    return 1\n", encoding="utf-8")
    plain = _sizes(source.parent)
    source.write_text('def f():\n    """One line."""\n    return 1\n',
                      encoding="utf-8")
    documented = _sizes(source.parent)
    assert set(plain) == {"lines", "unparse_bytes", "marshal_bytes"}
    assert plain["lines"] == 2
    assert documented["lines"] == 3
    assert documented["unparse_bytes"] == plain["unparse_bytes"] > 0


def test_src_size_rejects_a_path_that_is_not_a_directory(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("x = 1\n", encoding="utf-8")
    for path in (source, tmp_path / "missing"):
        run = _src_size(path)
        assert run.returncode == 2
        assert "is not a directory" in run.stderr
