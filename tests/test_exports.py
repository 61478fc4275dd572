"""The package's public names: hfpq.__all__ lists each bound name once."""

from __future__ import annotations

import hfpq


def test_all_names_are_bound_once():
    names = hfpq.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    assert [n for n in names if not hasattr(hfpq, n)] == []
