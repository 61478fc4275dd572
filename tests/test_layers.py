"""Layering of src/hfpq, read from the sources with ast.

Each module imports its package siblings at module level, so the import
graph is visible and the modules load in one order: core, gf2poly,
kernels, typeq, analysis, transforms and search, cli.  The permutation
objects of the group action live in tests/oracles.py, not in the package.
"""

from __future__ import annotations

import ast
from pathlib import Path

import hfpq

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hfpq"

# the permutation-object model of the group action, kept as a test oracle
ORACLE_ONLY = {
    "Perm",
    "apply_perm",
    "compose",
    "prop_mul",
    "pi_a",
    "pi_b",
    "canonical_perm",
    "group_inv",
    "group_pow",
    "element",
    "u_element",
    "IDENTITY",
    # the sigma action as a set, beside search._expand (oracles.orbit)
    "_orbit",
    "_sigma",
    # a column of given rows, one bit per row (oracles.column)
    "_column",
    # the power test with its own parity check, beside first_violation
    # (oracles.powers_ok)
    "powers_ok",
    # the join table profiled at once, beside search._JoinTable
    # (oracles.profile_table)
    "_profile_table",
    # the loops that whole-int arithmetic replaced, and the remainder that
    # only they use (oracles.poly_mul_by_bit and the rest)
    "poly_mul_by_bit",
    "poly_gcd_by_divmod",
    "interleave_by_zip",
    "kappa_by_sum",
    "poly_mod",
}


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _relative_imports(tree: ast.Module) -> list[ast.ImportFrom]:
    return [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level]


def _siblings(node: ast.ImportFrom) -> list[str]:
    """Package modules named by `from .x import ...` or `from . import x`."""
    if node.module:
        return [node.module.split(".")[0]]
    return [alias.name for alias in node.names]


def _defined_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_relative_imports_are_module_level():
    late = [
        f"{name}.py:{node.lineno}"
        for name, tree in _trees().items()
        for node in _relative_imports(tree)
        if node not in tree.body
    ]
    assert late == []


def test_import_graph_is_acyclic():
    trees = _trees()
    graph = {
        name: {m for node in _relative_imports(tree) for m in _siblings(node)}
        for name, tree in trees.items()
    }
    assert set().union(*graph.values()) <= set(graph)
    # repeatedly take the modules whose siblings are all placed
    order: list[str] = []
    while len(order) < len(graph):
        ready = sorted(m for m in graph if m not in order and graph[m] <= set(order))
        assert ready, f"import cycle among {sorted(set(graph) - set(order))}"
        order += ready


def test_group_action_has_one_model():
    # no module, core included, defines the moved names or the row labels
    gone = ORACLE_ONLY | {"CoordinateIndex"}
    defined = {name: _defined_names(tree) & gone for name, tree in _trees().items()}
    assert {name: found for name, found in defined.items() if found} == {}
    assert set(hfpq.__all__) & gone == set()
