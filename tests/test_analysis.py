"""One analysis context per command: each quantity is computed once, and
the witnesses only where a report prints them."""
from __future__ import annotations

import importlib
import sys
from collections import Counter

import pytest

from hellymetric import (
    Analysis,
    Graph,
    complete_graph,
    cycle_graph,
    helly,
    hyperbolicity,
    interval_thinness,
    king_grid,
    path_graph,
)
from hellymetric.report import build_analysis, verify_claims

from oracles import brute_thinness, random_tree, tie_scan_hyperbolicity
from test_helly_kernels import seeded_gnp
from test_helly_local import ladder_shapes

# the package re-exports a function under the module's name
scan_module = importlib.import_module("hellymetric.hyperbolicity")

# (module, function) pairs whose calls are counted
COUNTED = (
    ("hellymetric.hyperbolicity", "hyperbolicity"),
    ("hellymetric.hyperbolicity", "interval_thinness"),
    ("hellymetric.hyperbolicity", "_scan_value"),
    ("hellymetric.hyperbolicity", "_thinness_value"),
    ("hellymetric.detect", "detect_H1"),
    ("hellymetric.detect", "detect_H2"),
    ("hellymetric.detect", "detect_H1_or_H3"),
    ("hellymetric.detect", "_certify"),
    ("hellymetric.detect", "resolve_window_quadruple"),
)
SCANS = ("hyperbolicity", "interval_thinness", "_scan_value", "_thinness_value")


@pytest.fixture
def calls(monkeypatch) -> list[tuple[str, int, int | None]]:
    """(function, id of the graph, probe parameter) of every counted call;
    the parameter is None where the first argument after the graph is no int.

    Every module of the package that holds a counted function gets the
    counting wrapper, whichever name it imported the function under.
    """
    log: list[tuple[str, int, int | None]] = []
    modules = [
        m
        for key, m in list(sys.modules.items())
        if key == "hellymetric" or key.startswith("hellymetric.")
    ]
    for mod_name, name in COUNTED:
        orig = getattr(sys.modules[mod_name], name)

        def counted(g, *args, _orig=orig, _name=name, **kwargs):
            k = args[0] if args and isinstance(args[0], int) else None
            log.append((_name, id(g), k))
            return _orig(g, *args, **kwargs)

        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    monkeypatch.setattr(m, key, counted)
    return log


def test_verify_claims_computes_each_quantity_once(calls) -> None:
    results = verify_claims(king_grid(6, 7))
    assert {r.status for r in results} == {"PASS"}
    counts = Counter((name, k) for name, _, k in calls)
    assert counts[("_thinness_value", None)] == 1
    assert counts[("_scan_value", None)] == 1
    # verify prints no witness, so neither witness part runs
    assert counts[("interval_thinness", None)] == 0
    assert counts[("hyperbolicity", None)] == 0
    # verify prints no copy either: the probes at tau = 5 and at every
    # threshold of the Thm4 claims are decided by their pattern scans alone,
    # so no detector and no certification step runs
    assert {name for name, _, _ in calls} <= set(SCANS)
    assert max(counts.values()) == 1


@pytest.mark.parametrize("p,q", [(3, 3), (4, 5)])
def test_build_analysis_scans_each_graph_once(calls, p: int, q: int) -> None:
    g = king_grid(p, q)
    report = build_analysis(g)
    assert report.routes.agree
    counts = Counter(calls)
    assert counts and max(counts.values()) == 1
    scans = Counter((name, gid == id(g)) for name, gid, _ in calls if name in SCANS)
    # the input graph: both scans with their witnesses, each through its value part
    expected = Counter((name, True) for name in SCANS)
    if "skipped" not in report.hull:
        # the hull graph: its hyperbolicity value alone
        expected[("_scan_value", False)] = 1
    assert scans == expected


@pytest.mark.parametrize("g", [king_grid(3, 3), cycle_graph(5)], ids=["king_3x3", "C5"])
def test_build_analysis_checks_each_interval_condition_once(monkeypatch, g) -> None:
    """is_helly and the pseudo-modular verdict share one (a)/(b') pass."""
    kernel = helly._interval_violation
    graphs: dict[int, object] = {}  # keeps every counted graph alive
    runs: Counter[tuple[int, int]] = Counter()

    def counted(h, dm, gap):
        graphs[id(h)] = h
        runs[(id(h), gap)] += 1
        return kernel(h, dm, gap)

    monkeypatch.setattr(helly, "_interval_violation", counted)
    report = build_analysis(g)
    assert report.is_pseudo_modular == report.is_helly
    assert runs[(id(g), 1)] == 1
    assert max(runs.values()) == 1


# ---------------------------------------------------------------------------
# the values read without a witness equal those of the (value, witness) pairs
# ---------------------------------------------------------------------------

def assert_values_match_pairs(g: Graph) -> Analysis:
    """``hb`` and ``tau`` from the value parts alone, against the pairs."""
    a = Analysis(g)
    hb, tau = a.hb, a.tau
    # no pair was computed first, so neither value came from one
    assert "hyperbolicity" not in vars(a) and "thinness" not in vars(a)
    assert hb == hyperbolicity(g, dm=a.dm)[0], g.name
    assert tau == interval_thinness(g, dm=a.dm)[0], g.name
    return a


def test_values_match_the_pairs_on_the_ladder_and_seeded_graphs() -> None:
    for g in ladder_shapes() + seeded_gnp():
        assert_values_match_pairs(g)


@pytest.mark.parametrize(
    "g",
    [complete_graph(1), complete_graph(6), path_graph(9), random_tree(40, 4)],
    ids=["K1", "K6", "P9", "tree40"],
)
def test_block_graphs_are_zero_with_no_scan(monkeypatch, g: Graph) -> None:
    def forbidden(*args, **kwargs):
        raise AssertionError("a block graph reached the value pass")

    monkeypatch.setattr(scan_module, "_value_pass", forbidden)
    a = assert_values_match_pairs(g)
    assert a.hb.doubled == a.tau == 0


def test_values_match_the_oracles_on_atlas(atlas_graphs) -> None:
    for g in atlas_graphs:
        a = Analysis(g)
        assert a.hb == tie_scan_hyperbolicity(g, a.dm)[0], g.edges()
        assert a.tau == brute_thinness(g), g.edges()
