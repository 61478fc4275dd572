"""Backend selection for the scan kernels.

The compiled extension (_fastscan, Cython) handles words up to 64 bits;
kernels_py is the always-available pure-Python twin.  Set HFPQ_PURE_PYTHON=1
to force the pure backend.
"""

from __future__ import annotations

import os

from . import kernels_py

try:
    from . import _fastscan  # type: ignore[attr-defined]
except ImportError:
    _fastscan = None

HAVE_COMPILED = _fastscan is not None
BACKEND = (
    "compiled"
    if HAVE_COMPILED and os.environ.get("HFPQ_PURE_PYTHON") != "1"
    else "pure"
)

_COMPILED_MAX_N = 16

# pure-Python in every backend
codeword_table = kernels_py.codeword_table
power_words = kernels_py.power_words
coset_words = kernels_py.coset_words
derive_a2_bits = kernels_py.derive_a2_bits


def _impl(n: int):
    if BACKEND == "compiled" and n <= _COMPILED_MAX_N:
        return _fastscan
    return kernels_py


def check_candidate(a: int, b: int, n: int) -> tuple[int, ...] | None:
    return _impl(n).check_candidate(a, b, n)


def derive_b_bits(a: int, n: int) -> int | None:
    return _impl(n).derive_b_bits(a, n)


def scan_general(n: int, start: int, stop: int) -> list[tuple[int, int]]:
    # the counter in the compiled loop must stay below 2^64
    impl = _impl(n) if stop < (1 << 64) else kernels_py
    return impl.scan_general(n, start, stop)
