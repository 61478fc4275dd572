"""The benchmark's traced runs wrap hfpq functions by name; they must exist."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_span_targets_exist():
    # spans.install raises when a wrapped name is missing from every hfpq
    # module, which would fail each traced benchmark run.  A fresh process
    # keeps the wrappers out of this test session.
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
        "import spans\n"
        "spans.install(spans.Tracer(), 'full')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
