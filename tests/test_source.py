"""Checks on the package source itself."""

import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mindeg"
BENCH_SPANS = PACKAGE.parents[1] / "perfbench" / "spans.py"


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


def test_benchmark_bindings_name_package_functions():
    """Every function perfbench/spans.py binds exists, and every cache it reads
    has cache_info; the file is parsed, not imported."""
    tree = ast.parse(BENCH_SPANS.read_text(), filename=str(BENCH_SPANS))
    lists = {node.targets[0].id: ast.literal_eval(node.value)
             for node in tree.body
             if isinstance(node, ast.Assign) and len(node.targets) == 1
             and getattr(node.targets[0], "id", None) in ("SPANS", "COUNTED", "CACHES")}
    assert set(lists) == {"SPANS", "COUNTED", "CACHES"}
    missing, uncached = [], []
    for name, entries in lists.items():
        assert entries, name
        for _, module, fn in entries:
            obj = getattr(importlib.import_module(f"mindeg.{module}"), fn, None)
            if not callable(obj):
                missing.append(f"{name}: mindeg.{module}.{fn}")
            elif name == "CACHES" and not hasattr(obj, "cache_info"):
                uncached.append(f"mindeg.{module}.{fn}")
    assert missing == []
    assert uncached == []
