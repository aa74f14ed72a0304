"""The per-level batched interval thinness against two oracles.

The literal pair loop checks small inputs; the per-source batch over a
reordered n x n matrix (``reorder_thinness``) checks inputs too big for
it.  Both the value and the witness must agree: the witness contract (first
endpoints x < y reaching tau, row-major first pair of that slice) is what
the reports print, so a batch that found tau from a different pair would
change every report that names it.
"""
from __future__ import annotations

import tracemalloc

import pytest

from hellymetric import (
    Graph,
    apsp,
    build_obstruction,
    cycle_graph,
    interval_thinness,
    king_grid,
    random_connected_graph,
)

from oracles import pair_loop_thinness, reorder_thinness


def assert_same(g: Graph) -> None:
    dm = apsp(g)
    assert interval_thinness(g, dm=dm) == pair_loop_thinness(g, dm), g.name


def assert_same_as_reorder(g: Graph) -> None:
    dm = apsp(g)
    assert interval_thinness(g, dm=dm) == reorder_thinness(g, dm=dm), g.name


def test_batched_matches_pair_loop_on_atlas(atlas_graphs) -> None:
    for g in atlas_graphs:
        assert_same(g)


def test_batched_matches_pair_loop_on_seeded_random_graphs() -> None:
    for seed in range(300):
        assert_same(random_connected_graph(6 + seed % 11, 0.2 + 0.05 * (seed % 7), seed))


@pytest.mark.parametrize("n", [30, 37, 44, 51, 60])
def test_batched_matches_pair_loop_on_sparse_gnp(n: int) -> None:
    # the benchmark's non-Helly regime: average degree about 5
    assert_same(random_connected_graph(n, 5 / (n - 1), n))


@pytest.mark.parametrize("n", range(3, 14))
def test_batched_matches_pair_loop_on_cycles(n: int) -> None:
    assert_same(cycle_graph(n))


def test_batched_matches_pair_loop_on_king_grids() -> None:
    for p in range(1, 9):
        for q in range(p, 9):
            assert_same(king_grid(p, q))


def test_batched_matches_pair_loop_on_hull_corpus(hull_corpus) -> None:
    for g in hull_corpus:
        assert_same(g)


@pytest.mark.parametrize("p", [12, 20, 30])
def test_batched_matches_reorder_on_large_king_grids(p: int) -> None:
    assert_same_as_reorder(king_grid(p, p))


@pytest.mark.parametrize("family", ["H1", "H2", "H3"])
@pytest.mark.parametrize("k", [6, 9, 12])
def test_batched_matches_reorder_on_obstructions(family: str, k: int) -> None:
    assert_same_as_reorder(build_obstruction(family, k).graph)


@pytest.mark.parametrize("n", [150, 250])
def test_batched_matches_reorder_on_large_sparse_gnp(n: int) -> None:
    assert_same_as_reorder(random_connected_graph(n, 5 / (n - 1), n))


def test_thinness_peak_allocation_stays_below_one_matrix_copy() -> None:
    # The 900 x 900 distance matrix of king 30x30 is 1.6 MB as int16 and
    # 3.2 MB as int32; a reordered int32 copy per source plus its float32
    # membership matrix peaks near 13 MB.  The per-level gathers hold only
    # one level's rows at a time, near 0.5 MB.
    g = king_grid(30, 30)
    dm = apsp(g)
    tracemalloc.start()
    try:
        value, w = interval_thinness(g, dm=dm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 28 and w.endpoints == (13, 884)
    assert peak < 2 * 2**20
