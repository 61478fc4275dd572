"""Print the size of a Python source tree in three measures.

    python3 tools/src_size.py [DIR]        (default: src/hfpq)

- lines: the newline count of every *.py file under DIR, as wc -l counts;
- unparse bytes: the UTF-8 length of ast.unparse of each file with its
  module, class and function docstrings removed, so comments, blank lines
  and formatting do not count;
- marshal bytes: the length of marshal.dumps of each file compiled at
  optimize=2, which also drops docstrings and asserts; each file is
  compiled under its bare name, so the figure does not depend on where
  the tree lies.

Each measure is summed over the files.
"""

from __future__ import annotations

import ast
import marshal
import sys
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def strip_docstrings(tree: ast.Module) -> ast.Module:
    for node in ast.walk(tree):
        if not isinstance(node, _SCOPES):
            continue
        body = node.body
        first = body[0] if body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(
            first.value.value, str
        ):
            body.pop(0)
            if not body:
                body.append(ast.Pass())
    return tree


def sizes(root: Path) -> tuple[int, int, int]:
    lines = unparsed = marshalled = 0
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines += source.count("\n")
        tree = strip_docstrings(ast.parse(source, str(path)))
        unparsed += len(ast.unparse(tree).encode("utf-8"))
        marshalled += len(marshal.dumps(compile(source, path.name, "exec", optimize=2)))
    return lines, unparsed, marshalled


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/hfpq")
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return 2
    lines, unparsed, marshalled = sizes(root)
    print(f"lines={lines}")
    print(f"unparse_bytes={unparsed}")
    print(f"marshal_bytes={marshalled}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
