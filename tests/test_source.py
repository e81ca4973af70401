"""Checks on the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mindeg"


def test_no_assert_statements():
    """Invariants raise ConsistencyError; an assert would vanish under python -O."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert len(list(PACKAGE.glob("*.py"))) >= 13
    assert found == []


def test_packed_weyl_format_stays_in_weyl():
    """Only weyl.py reads WeylElement.images or the packing helpers."""
    helpers = {"_pack", "_unpack"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "weyl.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            attr = getattr(node, "attr", None)
            name = getattr(node, "id", None) or getattr(node, "name", None)
            if attr == "images" or attr in helpers or name in helpers:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert found == []


def test_no_function_local_imports():
    """Every import of the package sits at module top, where a cycle would show."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for func in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []
