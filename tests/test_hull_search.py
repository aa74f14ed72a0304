"""The block search for extremal functions against its oracles.

``box_extremal_functions`` enumerates the literal candidate box and
``dfs_extremal_functions`` runs the same prunes one partial function at a
time; the block search must return exactly their lists.
"""
from __future__ import annotations

import importlib
import tracemalloc
from math import prod

import pytest

from hellymetric import (
    HullBudgetError,
    apsp,
    cycle_graph,
    extremal_functions,
    hull,
    random_connected_graph,
)
from hellymetric.hull import DEFAULT_HULL_BUDGET

from oracles import box_extremal_functions, dfs_extremal_functions

# the package re-exports a function under the module's name
hull_module = importlib.import_module("hellymetric.hull")


def _search_space(g) -> int:
    return prod(int(e) + 1 for e in apsp(g).ecc)


def _gnp_under_default_budget(per_n: int = 8) -> list:
    """Seeded G(n, 0.3), n 9..12, that the default budget lets through."""
    out = []
    for n in range(9, 13):
        seed = 0
        kept = 0
        while kept < per_n:
            seed += 1
            g = random_connected_graph(n, 0.3, seed)
            if _search_space(g) <= DEFAULT_HULL_BUDGET:
                out.append(g)
                kept += 1
    return out


GNP = _gnp_under_default_budget()
CYCLES = [cycle_graph(k) for k in (4, 5, 6, 9)]
ALL_CYCLES = [cycle_graph(k) for k in range(4, 10)]
# far past the default budget: boxes of about 10^15 and 10^24 cells
LARGER = [random_connected_graph(25, 0.2, 1), random_connected_graph(30, 4 / 29, 1)]


def _rows(dm) -> list[tuple[int, ...]]:
    return sorted(tuple(int(x) for x in dm.dist[v]) for v in range(dm.n))


# ---------------------------------------------------------------------------
# differential: pruned search == box enumeration + filter
# ---------------------------------------------------------------------------

def test_search_matches_box_on_atlas(atlas_graphs) -> None:
    for g in atlas_graphs:
        assert extremal_functions(g) == box_extremal_functions(g), g.name


@pytest.mark.parametrize("g", GNP, ids=lambda g: g.name)
def test_search_matches_box_on_gnp(g) -> None:
    assert extremal_functions(g) == box_extremal_functions(g)


@pytest.mark.parametrize("g", CYCLES, ids=lambda g: g.name)
def test_search_matches_box_on_cycles(g) -> None:
    assert extremal_functions(g) == box_extremal_functions(g)


# ---------------------------------------------------------------------------
# differential: block search == one-node-at-a-time search
# ---------------------------------------------------------------------------

def test_search_matches_dfs_on_atlas(atlas_graphs) -> None:
    for g in atlas_graphs:
        assert extremal_functions(g) == dfs_extremal_functions(g), g.name


@pytest.mark.parametrize("g", GNP, ids=lambda g: g.name)
def test_search_matches_dfs_on_gnp(g) -> None:
    assert extremal_functions(g) == dfs_extremal_functions(g)


@pytest.mark.parametrize("g", ALL_CYCLES, ids=lambda g: g.name)
def test_search_matches_dfs_on_cycles(g) -> None:
    assert extremal_functions(g) == dfs_extremal_functions(g)


@pytest.mark.parametrize("g", LARGER, ids=lambda g: g.name)
def test_search_matches_dfs_past_the_default_budget(g) -> None:
    assert extremal_functions(g, budget=10**30) == dfs_extremal_functions(
        g, budget=10**30
    )


def test_one_row_blocks_change_nothing(monkeypatch) -> None:
    graphs = GNP[::4] + ALL_CYCLES + LARGER[:1]
    before = [hull(g, budget=10**30) for g in graphs]
    # with a one-cell cap every block of two or more rows is halved before
    # it expands, and the edge build takes one row per block
    monkeypatch.setattr(hull_module, "_CELLS", 1)
    for g, old in zip(graphs, before):
        new = hull(g, budget=10**30)
        assert new.functions == old.functions, g.name
        assert new.embedding == old.embedding, g.name
        assert new.graph.edges() == old.graph.edges(), g.name
        assert extremal_functions(g, budget=10**30) == list(old.functions), g.name


def test_search_peak_allocation_is_bounded() -> None:
    # 446 hull points; the search peaks near 4.8 MB with the 2^20-cell cap,
    # and its temporaries do not grow with the number of points
    g = random_connected_graph(40, 5 / 39, 1)
    dm = apsp(g)
    tracemalloc.start()
    try:
        funcs = extremal_functions(g, dm=dm, budget=10**30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(funcs) == 446
    assert peak < 8 * 2**20


@pytest.mark.parametrize("g", CYCLES[:3] + GNP[:2], ids=lambda g: g.name)
def test_budget_refuses_the_same_inputs(g) -> None:
    space = _search_space(g)
    assert extremal_functions(g, budget=space) == box_extremal_functions(
        g, budget=space
    )
    for run in (extremal_functions, box_extremal_functions):
        with pytest.raises(HullBudgetError, match="exceeds budget"):
            run(g, budget=space - 1)


# ---------------------------------------------------------------------------
# exactness properties
# ---------------------------------------------------------------------------

def test_helly_hulls_are_their_own_hulls(hull_corpus) -> None:
    # the worst-case box prod(ecc+1) of a 14-vertex hull can pass the
    # default budget although the hull has just 14 points; lift the pre-check
    for hg in hull_corpus:
        dm = apsp(hg)
        assert extremal_functions(hg, dm=dm, budget=10**30) == _rows(dm)


@pytest.mark.parametrize("g", GNP, ids=lambda g: g.name)
def test_search_returns_exactly_extremal_functions(g) -> None:
    dm = apsp(g)
    d = dm.d
    n = g.n
    funcs = extremal_functions(g, dm=dm)
    assert len(set(funcs)) == len(funcs)
    assert set(_rows(dm)) <= set(funcs)
    for f in funcs:
        for u in range(n):
            assert f[u] == max(d(u, v) - f[v] for v in range(n))
            for v in range(u + 1, n):
                assert f[u] + f[v] >= d(u, v)
