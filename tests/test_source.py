"""Checks on the package source itself."""

import ast
import importlib
import subprocess
import sys
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


# The function-local imports the package keeps, as "file:function: import",
# each with the reason it is not at module top.
LOCAL_IMPORTS = {
    "report.py:_run_cases: from concurrent.futures import ProcessPoolExecutor":
        "only a sweep with --workers N > 1 reads the pool, and importing it loads "
        "multiprocessing, pickle, socket, subprocess and logging: about 40 % of the "
        "package's import time, which every cold serial run would pay",
}


def test_no_function_local_imports():
    """Every import of the package sits at module top, where a cycle would
    show, except those in LOCAL_IMPORTS."""
    found = [f"{path.name}:{func.name}: {ast.unparse(node)}"
             for path in sorted(PACKAGE.glob("*.py"))
             for func in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert sorted(found) == sorted(LOCAL_IMPORTS)


def _loaded_by_importing_the_cli(tops: tuple[str, ...]) -> list[str]:
    """The modules under the top-level names tops that a fresh `python -I`
    has loaded once it has imported mindeg.cli from this source tree."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import mindeg.cli; "
            "print(mindeg.__file__); "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] in {tops!r}))")
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(PACKAGE.parent)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    where, loaded = proc.stdout.splitlines()
    assert Path(where).parent == PACKAGE
    return ast.literal_eval(loaded)


def test_importing_the_cli_loads_no_process_pool():
    """A fresh interpreter that imports mindeg.cli has not loaded
    concurrent.futures or multiprocessing; only a parallel sweep does."""
    assert _loaded_by_importing_the_cli(("concurrent", "multiprocessing")) == []


def test_importing_the_cli_loads_no_dataclasses():
    """No module of the package imports dataclasses, and a fresh interpreter
    that imports mindeg.cli has loaded neither dataclasses nor inspect (which
    dataclasses imports, with ast, dis and tokenize: most of the package's
    import time when its classes were dataclasses). The records are
    NamedTuples and the value types plain classes."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Import) and any(
                 a.name.split(".")[0] == "dataclasses" for a in node.names)
             or isinstance(node, ast.ImportFrom) and node.level == 0
             and (node.module or "").split(".")[0] == "dataclasses"]
    assert found == []
    assert _loaded_by_importing_the_cli(("dataclasses", "inspect")) == []


def test_exported_names_exist():
    """Every name in mindeg.__all__ and in each module's __all__ is bound."""
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "mindeg" if path.stem == "__init__" else f"mindeg.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_benchmark_bindings_name_package_functions():
    """Every function perfbench/spans.py binds exists, and every cache it reads
    is a memo that stores nothing, around the function's own body, not a
    second memo; the file is parsed, not imported."""
    tree = ast.parse(BENCH_SPANS.read_text(), filename=str(BENCH_SPANS))
    lists = {node.targets[0].id: ast.literal_eval(node.value)
             for node in tree.body
             if isinstance(node, ast.Assign) and len(node.targets) == 1
             and getattr(node.targets[0], "id", None) in ("SPANS", "COUNTED", "CACHES")}
    assert set(lists) == {"SPANS", "COUNTED", "CACHES"}
    missing, not_counting_only = [], []
    for name, entries in lists.items():
        assert entries, name
        for _, module, fn in entries:
            obj = getattr(importlib.import_module(f"mindeg.{module}"), fn, None)
            if not callable(obj):
                missing.append(f"{name}: mindeg.{module}.{fn}")
            elif name == "CACHES" and not (
                    hasattr(obj, "cache_info") and obj.cache_parameters()["maxsize"] == 0
                    and obj.__wrapped__.__name__ == fn
                    and not hasattr(obj.__wrapped__, "cache_info")):
                not_counting_only.append(f"mindeg.{module}.{fn}")
    assert missing == []
    assert not_counting_only == []


def test_only_entry_reads_whether_a_table_is_held():
    """One function chooses between the table and the local path: in src/,
    only curve_nbhd._entry reads _minimal.holds, so no other query can fork
    its own choice. A read is named by its top-level function or class."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                value = getattr(node, "value", None)
                if (isinstance(node, ast.Attribute) and node.attr == "holds"
                        and "_minimal" in (getattr(value, "id", None),
                                           getattr(value, "attr", None))):
                    found.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert found == ["curve_nbhd._entry"]


# Every module-global memo in the package, as module.function. State that
# has an owner is held on it (root_system.held); a memo stays here only for
# the reason given with it. A new memo joins this list only with its
# measured reuse on the sweeps and queries.
MEMOS = {
    # perfbench/spans.py reads their hit and miss counters (its CACHES), so
    # they stay memos until ROADMAP items 3 and 4 unbind and drop them; all
    # seven are lru_cache(maxsize=0) and store nothing, so no entry keeps a
    # case's parabolic and its tables alive or answers a degree equal to its
    # key, and each one keyed by a degree checks it in its own body
    "cascade.cascade_roots", "curve_nbhd.maximal_roots", "curve_nbhd.greedy_decomposition",
    "curve_nbhd.curve_neighborhood_element", "curve_nbhd.is_minimal_degree",
    "parabolic.project_coroot", "weyl.reduced_word",
    # the interning table: one system per type, so that systems, roots and
    # Weyl elements compare by identity and unpickle to the same system
    "root_system._build",
    # argument-less: the one so7 matrix model, which has no owner to hold it
    "so7.build_tables", "so7.subalgebra_bases",
}


def _memo_decorator(node) -> bool:
    """True for @lru_cache, @cache, their functools. forms and calls of them."""
    if isinstance(node, ast.Call):
        node = node.func
    name = getattr(node, "attr", None) or getattr(node, "id", None)
    return name in ("lru_cache", "cache")


def test_memo_inventory():
    """The functions decorated with a functools memo are exactly MEMOS."""
    found = [f"{path.stem}.{node.name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and any(_memo_decorator(d) for d in node.decorator_list)]
    assert len(found) == len(set(found))
    assert set(found) == MEMOS


# Every cached_property of RootSystem and Parabolic, each with readers in
# src/ ("module.function" or "module.Class.method"). Each is a fact about a
# type or a parabolic, kept once on its owner. A property that copied
# another store, such as the functionals or the reflection words of
# RootSystem.root_data or the Levi roots of Parabolic.levi_positions, would
# be a second place to keep in step; a new property joins this list only
# with its reader.
CACHED_PROPERTIES = {
    "RootSystem.root_table": ("curve_nbhd._root_table", "root_system.RootSystem.pairing_row"),
    "RootSystem.positive_columns": ("root_system.RootSystem.pairing_row",),
    "RootSystem.root_supports": ("parabolic.Parabolic.levi_positions",),
    "RootSystem.highest_root": ("cli.cmd_roots",),
    "Parabolic.positions": ("parabolic.Parabolic.w_p", "curve_nbhd._minimal"),
    "Parabolic.quotient_positions": ("parabolic.Parabolic.check_degree", "curve_nbhd._root_table"),
    "Parabolic.levi_positions": ("parabolic.Parabolic.levi_mask", "tangent_directions._row_context"),
    "Parabolic.levi_positive": ("parabolic.Parabolic.c1_weights",
                                "tangent_directions._root_directions"),
    "Parabolic.levi_mask": ("parabolic.Parabolic.outside_mask",),
    "Parabolic.outside_mask": ("parabolic.Parabolic.outside_levi", "tangent_directions._row_context"),
    "Parabolic.negative_outside_mask": ("curve_nbhd._root_table", "tangent_directions._row_context"),
    "Parabolic.w_p": ("curve_nbhd._minimal",),
    "Parabolic.c1_weights": ("parabolic.c1_pairing", "tangent_directions._row_context"),
}


def _attribute_reads() -> dict[str, set[str]]:
    """attribute name -> the functions and methods of src/ that read it, as
    "module.function" or "module.Class.method"."""
    reads = {}

    def visit(node, stem: str, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{owner}.{child.name}"
            elif isinstance(child, ast.Attribute):
                reads.setdefault(child.attr, set()).add(owner)
            visit(child, stem, name)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, path.stem)
    return reads


def test_cached_property_inventory():
    """The cached_propertys of RootSystem and Parabolic are exactly
    CACHED_PROPERTIES, and each listed reader reads its property."""
    found = []
    for stem, cls in (("root_system", "RootSystem"), ("parabolic", "Parabolic")):
        path = PACKAGE / f"{stem}.py"
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ClassDef) and node.name == cls:
                found += [f"{cls}.{f.name}" for f in node.body
                          if isinstance(f, ast.FunctionDef)
                          and any(getattr(d, "id", None) == "cached_property"
                                  for d in f.decorator_list)]
    assert len(found) == len(set(found))
    assert set(found) == set(CACHED_PROPERTIES)
    reads = _attribute_reads()
    unread = [f"{prop}: {reader}" for prop, readers in CACHED_PROPERTIES.items()
              for reader in readers if reader not in reads.get(prop.split(".")[1], ())]
    assert unread == []


# Public names that nothing in src/ reads and perfbench does not bind, each
# with the reason it stays in the package rather than in tests/oracles.py.
NO_PRODUCT_READER = {
    "tangent_directions.pair_map_is_injective":
        "lemma check of acceptance 6, to run on every sweep row (ROADMAP item 1)",
    "tangent_directions.coroot_pairing_bound_holds":
        "lemma check of acceptance 6, to run on every sweep row (ROADMAP item 1)",
    "tangent_directions.weighted_pair_count_identity_holds":
        "lemma check of acceptance 6, to run on every sweep row (ROADMAP item 1)",
    "report.run_sweep":
        "the library's serial sweep as one list of CaseReports, the data that emit "
        "writes; the CLI streams sweep_rows, and the hash pins and acceptance 2 "
        "hold the stream's bytes to it",
    "cascade.is_sos":
        "the oracle of the strong-orthogonality check the full-flag search and "
        "the local path make on each cascade; acceptance 5 and test_cascade read it",
    "curve_nbhd.is_p_cosmall":
        "acceptance 6 checks the P-cosmall pairings with it; ROADMAP item 1 gives "
        "it a root-table path or moves it to tests/oracles.py",
}


def _definitions_of(name: str, tree) -> list:
    """The top-level statements of a module that define name."""
    return [node for node in tree.body
            if getattr(node, "name", None) == name
            or any(getattr(t, "id", None) == name for t in getattr(node, "targets", ()))]


def test_every_public_name_has_a_product_reader():
    """Each name in a submodule's __all__ is read somewhere in src/ outside its
    own definition, is bound by perfbench/spans.py, or is in NO_PRODUCT_READER.
    A helper that only the tests read belongs in tests/oracles.py."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    bench = ast.parse(BENCH_SPANS.read_text(), filename=str(BENCH_SPANS))
    bound = {entry[-1]
             for node in bench.body
             if isinstance(node, ast.Assign)
             and getattr(node.targets[0], "id", None) in ("SPANS", "COUNTED", "CACHES")
             for entry in ast.literal_eval(node.value)}
    reads = {}  # name -> the ids of the ast.Name nodes that read it
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                reads.setdefault(n.id, set()).add(id(n))
    unread = []
    for stem, tree in trees.items():
        if stem == "__init__":
            continue
        for name in getattr(importlib.import_module(f"mindeg.{stem}"), "__all__", ()):
            own = {id(n) for d in _definitions_of(name, tree) for n in ast.walk(d)}
            read = bool(reads.get(name, set()) - own)
            if not (read or name in bound or f"{stem}.{name}" in NO_PRODUCT_READER):
                unread.append(f"{stem}.{name}")
    assert unread == []
