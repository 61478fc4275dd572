"""Hadamard full propelinear codes of type Q over GF(2)."""

from .analysis import (
    AnalysisReport,
    analyze,
    classify,
    compute_kernel,
    project_onto_support,
)
from .core import BinaryWord, GroupElement, GroupTable, group_mul
from .gf2poly import Gf2Poly
from .search import ItoScanRow, ito_scan, search_general, search_k2
from .transforms import (
    DoubleGcdCheck,
    double_code,
    double_gcd_check,
    rank_gcd_criterion,
    transpose_code,
)
from .typeq import (
    HadamardMatrixQ,
    NotHadamardGroup,
    NotTypeQCandidate,
    TypeQCode,
    Verdict,
    build_matrix,
    construct_from_group,
    derive_a2,
    derive_b,
    kappa_vector,
    make_code,
    verify_hadamard_group,
    verify_hfp,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BinaryWord",
    "DoubleGcdCheck",
    "Gf2Poly",
    "GroupElement",
    "GroupTable",
    "HadamardMatrixQ",
    "ItoScanRow",
    "NotHadamardGroup",
    "NotTypeQCandidate",
    "TypeQCode",
    "Verdict",
    "analyze",
    "build_matrix",
    "classify",
    "compute_kernel",
    "construct_from_group",
    "derive_a2",
    "derive_b",
    "double_code",
    "double_gcd_check",
    "group_mul",
    "ito_scan",
    "kappa_vector",
    "make_code",
    "project_onto_support",
    "rank_gcd_criterion",
    "search_general",
    "search_k2",
    "transpose_code",
    "verify_hadamard_group",
    "verify_hfp",
]
