"""The value types are NamedTuples: cheap to import, validated, immutable."""

from __future__ import annotations

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from hfpq.core import BinaryWord, GroupTable
from hfpq.gf2poly import Gf2Poly
from hfpq.typeq import TypeQCode

from .oracles import Perm

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_dataclasses_or_inspect():
    # every CLI process pays for the import; dataclasses pulls in inspect,
    # ast, dis and tokenize.  -I -S keeps site hooks out of the count, and
    # -B keeps the fresh interpreter from writing bytecode caches.
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import hfpq, hfpq.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", script],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_WORD = BinaryWord(0b0110, 4)

# (a valid value, a field, a value of it the checks reject, the message)
VALIDATED = [
    pytest.param(BinaryWord(0b0110, 4), "bits", 1 << 4,
                 "bits exceed word length", id="BinaryWord"),
    pytest.param(Perm((1, 2, 0)), "images", (0, 0, 2),
                 "not a bijection", id="Perm"),
    pytest.param(GroupTable(((0, 1), (1, 0)), 0), "mul", ((0, 1), (1,)),
                 "not square", id="GroupTable"),
    pytest.param(Gf2Poly(0b101, 3), "coeffs", 1 << 3,
                 "longer than modulus degree", id="Gf2Poly"),
    pytest.param(TypeQCode(1, _WORD, _WORD, 1), "iota", 2,
                 r"iota 2 out of range \[0, 2\)", id="TypeQCode"),
]


@pytest.mark.parametrize("value, field, bad, message", VALIDATED)
def test_validated_value_type_contract(value, field, bad, message):
    cls = type(value)
    fields = dict(zip(value._fields, value))
    with pytest.raises(ValueError, match=message):
        cls(**{**fields, field: bad})
    with pytest.raises(ValueError, match=message):
        value._replace(**{field: bad})
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 0
    twin = cls(**fields)
    assert twin == value and twin is not value
    assert hash(twin) == hash(value)
    restored = pickle.loads(pickle.dumps(value))
    assert type(restored) is cls and restored == value
