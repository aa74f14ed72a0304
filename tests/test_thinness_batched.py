"""The per-source batched interval thinness against the literal pair loop.

Both the value and the witness must agree: the witness contract (first
endpoints x < y reaching tau, row-major first pair of that slice) is what
the reports print, so a batch that found tau from a different pair would
change every report that names it.
"""
from __future__ import annotations

import pytest

from hellymetric import (
    Graph,
    apsp,
    cycle_graph,
    interval_thinness,
    king_grid,
    random_connected_graph,
)

from oracles import pair_loop_thinness


def assert_same(g: Graph) -> None:
    dm = apsp(g)
    assert interval_thinness(g, dm=dm) == pair_loop_thinness(g, dm), g.name


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

