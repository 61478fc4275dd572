"""The scan kernels used by search and typeq: the pure-Python kernels_py."""

from __future__ import annotations

from .kernels_py import (
    check_candidate,
    codeword_table,
    coset_words,
    derive_a2_bits,
    derive_b_bits,
    power_words,
    scan_general,
)

# one backend; the run records of the benchmark harness still name it
BACKEND = "pure"
HAVE_COMPILED = False
