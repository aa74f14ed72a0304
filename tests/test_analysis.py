"""One analysis context per command: each quantity is computed once."""
from __future__ import annotations

import sys
from collections import Counter

import pytest

from hellymetric import cycle_graph, helly, king_grid
from hellymetric.report import build_analysis, verify_claims

# (module, function) pairs whose calls are counted
COUNTED = (
    ("hellymetric.hyperbolicity", "hyperbolicity"),
    ("hellymetric.hyperbolicity", "interval_thinness"),
    ("hellymetric.detect", "detect_H2"),
    ("hellymetric.detect", "detect_H1_or_H3"),
)


@pytest.fixture
def calls(monkeypatch) -> list[tuple[str, int, int | None]]:
    """(function, id of the graph, probe parameter) of every counted call.

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
            log.append((_name, id(g), args[0] if args else None))
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
    assert counts[("interval_thinness", None)] == 1
    assert counts[("hyperbolicity", None)] == 1
    assert counts[("detect_H1_or_H3", 2)] == 1  # the odd-tau probe, tau = 5
    assert max(counts.values()) == 1


@pytest.mark.parametrize("p,q", [(3, 3), (4, 5)])
def test_build_analysis_scans_each_graph_once(calls, p: int, q: int) -> None:
    report = build_analysis(king_grid(p, q))
    assert report.routes.agree
    counts = Counter(calls)
    assert counts and max(counts.values()) == 1
    scanned = [gid for name, gid, _ in calls if name == "hyperbolicity"]
    # the input graph, plus its hull when the hull phase ran
    assert len(scanned) == (1 if "skipped" in report.hull else 2)


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
