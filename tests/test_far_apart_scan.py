"""The two-pass far-apart hyperbolicity scan against two oracle scans.

The scan pairs only far-apart pairs, so its value must equal the all-pairs
value, and its witness must be a maximizer of the all-pairs scan whose
largest-sum pairing is two far-apart pairs: the lexicographically smallest
such quadruple.  Its value and witness must also equal those of the one-pass
scan that keeps every tie of the running best, whatever that scan's thread
count.
"""
from __future__ import annotations

import pytest

from hellymetric import (
    Graph,
    apsp,
    cycle_graph,
    hyperbolicity,
    king_grid,
    path_graph,
    random_connected_graph,
)

from oracles import (
    all_pairs_hyperbolicity,
    far_apart_pairs,
    far_apart_witness,
    tie_scan_hyperbolicity,
)


def top_pairing(
    q: tuple[int, int, int, int], sums: tuple[int, int, int]
) -> tuple[tuple[int, int], tuple[int, int]]:
    u, v, w, x = q
    pairings = (((u, v), (w, x)), ((u, w), (v, x)), ((u, x), (v, w)))
    return pairings[sums.index(max(sums))]


def assert_same(g: Graph) -> None:
    dm = apsp(g)
    value, w = hyperbolicity(g, dm=dm)
    assert (value, w) == tie_scan_hyperbolicity(g, dm), g.name
    assert value == all_pairs_hyperbolicity(g, dm)[0], g.name
    assert w.delta == value
    if value.doubled == 0:
        assert w.quadruple == (0, 0, 0, 0)
        return
    # a maximizer under the oracle's distances, two far-apart pairs on top
    u, v, wq, x = w.quadruple
    assert u < v < wq < x
    sums = (dm.d(u, v) + dm.d(wq, x), dm.d(u, wq) + dm.d(v, x), dm.d(u, x) + dm.d(v, wq))
    assert w.sums == sums
    top = sorted(sums)
    assert top[2] - top[1] == value.doubled
    far = far_apart_pairs(g)
    assert set(top_pairing(w.quadruple, sums)) <= far, g.name
    if g.n <= 9:
        assert w.quadruple == far_apart_witness(g), g.name


def test_far_apart_scan_matches_all_pairs_on_atlas(atlas_graphs) -> None:
    for g in atlas_graphs:
        assert_same(g)


def test_far_apart_scan_matches_all_pairs_on_seeded_random_graphs() -> None:
    for seed in range(300):
        assert_same(random_connected_graph(6 + seed % 11, 0.2 + 0.05 * (seed % 7), seed))


@pytest.mark.parametrize("n", range(30, 61))
def test_far_apart_scan_matches_all_pairs_on_sparse_gnp(n: int) -> None:
    # the benchmark's non-Helly regime: average degree about 5
    assert_same(random_connected_graph(n, 5 / (n - 1), n))


@pytest.mark.parametrize("n", range(4, 14))
def test_far_apart_scan_matches_all_pairs_on_cycles(n: int) -> None:
    assert_same(cycle_graph(n))


def test_far_apart_scan_matches_all_pairs_on_king_grids() -> None:
    for p in range(1, 9):
        for q in range(p, 9):
            assert_same(king_grid(p, q))


def test_far_apart_scan_matches_all_pairs_on_hull_corpus(hull_corpus) -> None:
    for g in hull_corpus:
        assert_same(g)


def test_witness_is_thread_independent(hull_corpus) -> None:
    graphs = hull_corpus[:50] + [
        random_connected_graph(n, 5 / (n - 1), n) for n in range(30, 61, 6)
    ] + [king_grid(5, 8), king_grid(8, 8)]
    for g in graphs:
        dm = apsp(g)
        assert tie_scan_hyperbolicity(g, dm, threads=2) == hyperbolicity(g, dm=dm)


def test_far_apart_pairs_of_a_path_are_its_ends() -> None:
    # on a path only the two ends have no neighbour farther from each other
    assert far_apart_pairs(path_graph(5)) == {(0, 4)}
    assert far_apart_pairs(cycle_graph(4)) == {(0, 2), (1, 3)}


def test_king_12x30_scans_fast_and_certifies_its_value() -> None:
    # the all-pairs scan needs about two minutes here; the far-apart scan
    # keeps 664 of its 64,620 pairs
    g = king_grid(12, 30)
    dm = apsp(g)
    value, w = hyperbolicity(g, dm=dm)
    assert value.doubled == 11
    a, b, c, d = w.quadruple
    assert w.sums == (dm.d(a, b) + dm.d(c, d), dm.d(a, c) + dm.d(b, d), dm.d(a, d) + dm.d(b, c))
    top = sorted(w.sums)
    assert top[2] - top[1] == 11
