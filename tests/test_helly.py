from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    EnumerationBudgetError,
    brute_is_helly,
    helly_bruteforce,
    loop_ball_bits,
)

from hellymetric import (
    Graph,
    MedianSearchError,
    apsp,
    build_obstruction,
    complete_graph,
    cycle_graph,
    find_median,
    is_helly,
    is_pseudo_modular,
    king_grid,
    path_graph,
)
from hellymetric.graphs import random_connected_graph
from hellymetric.halfint import HalfInt


def star(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


# ---------------------------------------------------------------------------
# is_helly / helly_bruteforce
# ---------------------------------------------------------------------------

def test_complete_graphs_trees_are_helly() -> None:
    assert is_helly(complete_graph(5))
    assert is_helly(path_graph(6))
    assert is_helly(star(4))


def test_king_grids_are_helly() -> None:
    for p, q in ((2, 2), (3, 4), (4, 4)):
        assert is_helly(king_grid(p, q))


def test_c4_fails_with_unit_disk_witness() -> None:
    chk = is_helly(cycle_graph(4))
    assert not chk
    assert chk.counterexample is not None
    dm = apsp(cycle_graph(4))
    disks = chk.counterexample
    # witness family pairwise intersects but has empty intersection
    masks = [loop_ball_bits(dm, c.center, c.radius) for c in disks]
    inter = (1 << 4) - 1
    for mk in masks:
        inter &= mk
    assert inter == 0
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            assert masks[i] & masks[j]


def test_odd_cycles_are_not_helly() -> None:
    for n in (5, 7, 9):
        assert not is_helly(cycle_graph(n))
        if n == 5:
            assert not helly_bruteforce(cycle_graph(5))


def test_bruteforce_rejects_oversized_disk_families() -> None:
    with pytest.raises(EnumerationBudgetError):
        helly_bruteforce(cycle_graph(9))


def test_bruteforce_matches_independent_oracle_on_samples() -> None:
    for seed in range(1, 25):
        g = random_connected_graph(6, 0.4, seed)
        assert helly_bruteforce(g) == brute_is_helly(g)


# ---------------------------------------------------------------------------
# pseudo-modularity
# ---------------------------------------------------------------------------

def test_helly_graphs_are_pseudo_modular() -> None:
    for g in (king_grid(3, 3), path_graph(5), complete_graph(4)):
        assert is_pseudo_modular(g)


def test_c5_is_not_pseudo_modular() -> None:
    chk = is_pseudo_modular(cycle_graph(5))
    assert not chk
    assert chk.counterexample is not None and len(chk.counterexample) == 3


# ---------------------------------------------------------------------------
# find_median
# ---------------------------------------------------------------------------

def test_median_of_star_leaves_is_center() -> None:
    g = star(3)
    res = find_median(g, 1, 2, 3)
    assert res.variant == "vertex" and res.vertex == 0
    assert res.products == (HalfInt(2), HalfInt(2), HalfInt(2))


def test_median_of_triangle_is_the_triangle() -> None:
    res = find_median(complete_graph(3), 0, 1, 2)
    assert res.variant == "triangle"
    assert res.triangle == (0, 1, 2)
    assert all(p == HalfInt(1) for p in res.products)


def test_median_of_sun_tips_is_triangle_variant() -> None:
    s4 = build_obstruction("H3", 0, 0)
    g = s4.graph
    dm = apsp(g)
    tips = [v for v in range(g.n) if g.degree(v) == 2]
    assert len(tips) == 4
    # any three tips span distances {2, 2, 3}, so the products are half-integral
    x, y, z = tips[0], tips[1], tips[2]
    assert sorted((dm.d(x, y), dm.d(x, z), dm.d(y, z))) == [2, 2, 3]
    res = find_median(g, x, y, z, dm=dm)
    assert res.variant == "triangle"
    assert res.triangle is not None
    tx, ty, tz = res.triangle
    assert dm.d(x, tx) == res.products[0].floor()
    assert dm.d(y, ty) == res.products[1].floor()
    assert dm.d(z, tz) == res.products[2].floor()


def test_median_fails_on_plain_odd_cycle() -> None:
    with pytest.raises(MedianSearchError):
        find_median(cycle_graph(5), 0, 1, 3)


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=200))
def test_triple_test_matches_bruteforce(seed: int) -> None:
    g = random_connected_graph(7, 0.35, seed)
    try:
        brute = helly_bruteforce(g)
    except EnumerationBudgetError:
        return
    assert bool(is_helly(g)) == brute


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=200))
def test_median_products_sum_to_distances(seed: int) -> None:
    g = random_connected_graph(7, 0.5, seed)
    dm = apsp(g)
    if not is_helly(g, dm=dm):
        return
    x, y, z = 0, g.n // 2, g.n - 1
    if len({x, y, z}) < 3:
        return
    res = find_median(g, x, y, z, dm=dm)
    px, py, pz = res.products
    assert px.doubled + py.doubled == 2 * dm.d(x, y)
    assert py.doubled + pz.doubled == 2 * dm.d(y, z)
    assert px.doubled + pz.doubled == 2 * dm.d(x, z)
