"""The benchmark's trace targets and the package's exports resolve.

``perfbench/spans.py`` wraps the package's entry points by module and name;
a rename or a call that bypasses the module-level name would silently drop
a layer from the benchmark's traced runs.  Every other module-level name of
the package is either exported or used inside it: no dead helpers.  The
brute-force oracles import none of the package's private names.
"""
from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import hellymetric
from hellymetric import king_grid, to_edge_list
from hellymetric.cli import main

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
ORACLES = Path(__file__).resolve().parent / "oracles.py"
PACKAGE = Path(hellymetric.__file__).resolve().parent


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    assert spec is not None and spec.loader is not None
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_trace_targets_are_callable() -> None:
    for module, name, _span in _spans_module().ENTRY_POINTS:
        importlib.import_module(module)
        assert callable(getattr(sys.modules[module], name, None)), (module, name)


def test_traced_commands_reach_every_layer(tmp_path, capsys) -> None:
    spans = _spans_module()
    path = tmp_path / "king.edges"
    path.write_text(to_edge_list(king_grid(3, 3)), encoding="utf-8")
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_main = sys.modules["hellymetric.cli"].main
        assert traced_main is not main
        assert traced_main(["analyze", str(path)]) == 0
        assert traced_main(["verify", str(path)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    _self_s, calls = tracer.layer_totals()
    assert set(calls) == {span for _m, _n, span in spans.ENTRY_POINTS}


def test_package_exports_resolve() -> None:
    for name in hellymetric.__all__:
        assert getattr(hellymetric, name, None) is not None, name


def test_every_module_level_name_is_exported_or_used() -> None:
    # a def, class or assigned name at module level that the package
    # neither exports nor loads anywhere is a dead helper
    defined: dict[str, str] = {}
    loaded: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            defined.update((name, path.name) for name in names if name[:2] != "__")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, ast.alias):
                loaded.add(node.name)
    dead = {
        name: module
        for name, module in defined.items()
        if name not in hellymetric.__all__ and name not in loaded
    }
    assert not dead, dead


def test_only_distances_reads_the_power_cache() -> None:
    # the distance bands and the power cache they are cut from have one
    # owner: no other module names DistanceMatrix.power_rows or its cache
    cache = {"power_rows", "_power_rows"}
    readers: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute) and node.attr in cache
                or isinstance(node, ast.Name) and node.id in cache
            ):
                readers.add(path.name)
    assert readers == {"distances.py"}, readers


def test_only_the_traced_pair_functions_run_a_witness_part() -> None:
    # the witness parts are named only inside the two entry points that
    # perfbench traces, so a reader of the values alone never pays for a
    # witness it drops
    parts = {"_witness_pass", "_witness"}
    readers: set[tuple[str, str, str]] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name in parts:
                    readers.add((path.name, getattr(top, "name", "<module>"), name))
    assert readers == {
        ("hyperbolicity.py", "hyperbolicity", "_witness_pass"),
        ("hyperbolicity.py", "interval_thinness", "_witness"),
    }, readers


def test_oracles_import_no_private_package_name() -> None:
    # the oracles check the package's results, so they import none of its
    # private helpers: a shared helper would make an oracle agree with the
    # code it checks
    private = []
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        private += [
            name
            for name in names
            if name.split(".")[0] == "hellymetric"
            and any(part.startswith("_") for part in name.split("."))
        ]
    assert not private, private
