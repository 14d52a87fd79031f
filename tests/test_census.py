"""Reference census: every function and class under ``src/`` is used.

A name-based AST scan over the repository's code trees.  A definition
counts as referenced when its name appears anywhere in them as a name,
an attribute, an imported name, a keyword argument or a string literal
that is exactly an identifier (``getattr`` targets, tracer wrap lists).
Dunder methods are called by the interpreter and are skipped.  The scan
over-approximates use (any same-named reference counts): what it flags
has no reference by name anywhere.  This file itself is left out of the
scan.
"""

from __future__ import annotations

import ast
from pathlib import Path

HERE = Path(__file__).resolve()
ROOT = HERE.parents[1]
TREES = ("src", "tests", "benchmarks", "perfbench", "scripts", "examples")


def _referenced_names(tree: ast.AST) -> set[str]:
    docstrings = {
        id(node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in docstrings):
            names.add(node.value)
    return names


def _definitions(tree: ast.AST, prefix: str = ""):
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node.name
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node, f"{prefix}{node.name}.")


def unreferenced_definitions() -> list[str]:
    referenced: set[str] = set()
    definitions = []
    for tree_name in TREES:
        for path in sorted((ROOT / tree_name).rglob("*.py")):
            if path.resolve() == HERE:
                continue  # this file's own helper names are not uses
            tree = ast.parse(path.read_text(), str(path))
            referenced |= _referenced_names(tree)
            if tree_name == "src":
                rel = path.relative_to(ROOT)
                definitions += [(f"{rel}:{qual}", name) for qual, name in _definitions(tree)]
    return sorted(
        where for where, name in definitions
        if name not in referenced and not (name.startswith("__") and name.endswith("__"))
    )


def test_every_src_definition_is_referenced():
    assert unreferenced_definitions() == []
