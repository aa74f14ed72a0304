"""Injective hull: extremal functions, hull graph, embedding, validation."""
from __future__ import annotations

import pytest

from hellymetric import (
    Analysis,
    HalfInt,
    HullBudgetError,
    apsp,
    build_obstruction,
    complete_graph,
    cycle_graph,
    extremal_functions,
    hull,
    hull_validate,
    hyperbolicity,
    king_grid,
    path_graph,
    random_connected_graph,
)

from oracles import brute_extremal_functions

VALIDATE_KEYS = {
    "hull_is_helly",
    "embedding_isometric",
    "hyperbolicity_preserved",
    "covering_radius",
    "obstruction_decisions_match",
}


# ---------------------------------------------------------------------------
# extremal functions
# ---------------------------------------------------------------------------

def test_single_edge_extremals() -> None:
    assert extremal_functions(complete_graph(2)) == [(0, 1), (1, 0)]


def test_single_vertex_extremals() -> None:
    assert extremal_functions(path_graph(1)) == [(0,)]


def test_four_cycle_gains_exactly_the_center() -> None:
    funcs = extremal_functions(cycle_graph(4))
    assert len(funcs) == 5
    assert (1, 1, 1, 1) in funcs
    dm = apsp(cycle_graph(4))
    for v in range(4):
        assert tuple(int(x) for x in dm.dist[v]) in funcs


@pytest.mark.parametrize(
    "g",
    [
        cycle_graph(4),
        cycle_graph(5),
        cycle_graph(6),
        path_graph(5),
        complete_graph(4),
        random_connected_graph(5, 0.4, 7),
        random_connected_graph(6, 0.3, 11),
        random_connected_graph(6, 0.5, 23),
    ],
)
def test_extremal_functions_match_bruteforce(g) -> None:
    assert extremal_functions(g) == brute_extremal_functions(g)


def test_extremal_functions_satisfy_defining_equations() -> None:
    g = cycle_graph(7)
    dm = apsp(g)
    for f in extremal_functions(g):
        for u in range(g.n):
            assert f[u] == max(dm.d(u, v) - f[v] for v in range(g.n))


# ---------------------------------------------------------------------------
# hull graphs
# ---------------------------------------------------------------------------

def test_hull_of_four_cycle_is_the_4_wheel() -> None:
    res = hull(cycle_graph(4))
    hg = res.graph
    assert hg.n == 5 and hg.m == 8
    assert hg.name == "hull(C4)"
    center = res.functions.index((1, 1, 1, 1))
    assert hg.degree(center) == 4
    assert sorted(hg.degree(v) for v in range(5)) == [3, 3, 3, 3, 4]
    assert len(set(res.embedding)) == 4 and center not in res.embedding


def test_hull_of_five_cycle_is_the_5_wheel() -> None:
    res = hull(cycle_graph(5))
    hg = res.graph
    assert hg.n == 6 and hg.m == 10
    hubs = [v for v in range(6) if hg.degree(v) == 5]
    assert len(hubs) == 1
    value, _ = hyperbolicity(hg)
    assert value == HalfInt(1)  # 1/2, same as the 5-cycle itself


def test_helly_graphs_are_their_own_hulls() -> None:
    for g in (
        king_grid(3, 3),
        path_graph(6),
        complete_graph(5),
        build_obstruction("H2", 0, 0).graph,
        build_obstruction("H3", 0, 0).graph,
    ):
        res = hull(g)
        assert res.graph.n == g.n
        assert sorted(res.embedding) == list(range(g.n))
        dm = apsp(g)
        rows = sorted(tuple(int(x) for x in dm.dist[v]) for v in range(g.n))
        assert list(res.functions) == rows


def test_hull_is_idempotent() -> None:
    # hull(C6) has eight eccentricity-2 vertices, pushing the second
    # enumeration's search bound past the default budget; raise it explicitly.
    for g in (cycle_graph(4), cycle_graph(5), cycle_graph(6)):
        first = hull(g).graph
        second = hull(first, budget=10**9).graph
        assert second.n == first.n and second.m == first.m


def test_embedding_is_isometric_directly() -> None:
    g = cycle_graph(6)
    res = hull(g)
    dm = apsp(g)
    hdm = apsp(res.graph)
    for u in range(g.n):
        for v in range(g.n):
            assert hdm.d(res.embedding[u], res.embedding[v]) == dm.d(u, v)


# ---------------------------------------------------------------------------
# validation bundle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("g", [cycle_graph(4), cycle_graph(5), cycle_graph(9)])
def test_hull_validate_all_checks_pass(g) -> None:
    checks = hull_validate(Analysis(g))
    assert set(checks) == VALIDATE_KEYS
    assert all(checks.values())


def test_hull_validate_preserves_fractional_value() -> None:
    g = cycle_graph(9)
    res = hull(g)
    value, _ = hyperbolicity(res.graph)
    assert value == HalfInt(3)  # 3/2, matching the 9-cycle
    checks = hull_validate(Analysis(g), result=res)
    assert checks["hyperbolicity_preserved"]


def test_hull_validate_accepts_precomputed_result() -> None:
    g = cycle_graph(5)
    res = hull(g)
    a = Analysis(g)
    assert hull_validate(a, result=res) == hull_validate(a)


# ---------------------------------------------------------------------------
# budget control
# ---------------------------------------------------------------------------

def test_budget_argument_blocks_large_enumerations() -> None:
    with pytest.raises(HullBudgetError, match="exceeds budget"):
        extremal_functions(cycle_graph(9), budget=100)
    with pytest.raises(HullBudgetError):
        hull(cycle_graph(9), budget=100)


def test_budget_env_var_is_honored(monkeypatch) -> None:
    monkeypatch.setenv("HELLYMETRIC_HULL_BUDGET", "10")
    with pytest.raises(HullBudgetError):
        hull(cycle_graph(6))
    # an explicit argument overrides the environment
    res = hull(cycle_graph(6), budget=10_000_000)
    assert res.graph.n >= 6
