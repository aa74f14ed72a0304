"""The pruned extremal-function search against the literal box enumeration."""
from __future__ import annotations

from math import prod

import pytest

from hellymetric import (
    HullBudgetError,
    apsp,
    cycle_graph,
    extremal_functions,
    random_connected_graph,
)
from hellymetric.hull import DEFAULT_HULL_BUDGET

from oracles import box_extremal_functions


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
