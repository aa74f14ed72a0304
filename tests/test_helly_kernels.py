"""The batched Helly-side kernels against their loop oracles.

``DistanceMatrix.first_quadruple`` walks the bit rows of its distance
bands, with or without a predicate, ``helly._interval_violation`` tests
conditions (a) and (b') a block of vertices at a time,
``helly._clique_helly_fails`` tests (c) on an inline bit walk and
``helly._undominated_c4`` tests (d) with one scanner call.  Each must
return exactly what the loops it replaced return
(``pair_loop_scan_quadruples``, ``vertex_loop_interval_violation``,
``list_walk_clique_helly_fails`` and ``list_walk_undominated_c4`` in
``oracles``), the interval blocks tiled under a cell cap.
"""
from __future__ import annotations

import importlib
import math
import tracemalloc
from typing import Callable

import pytest

from oracles import (
    list_walk_clique_helly_fails,
    list_walk_undominated_c4,
    pair_loop_scan_quadruples,
    vertex_loop_interval_violation,
)
from test_helly_local import ladder_shapes, octahedron
from test_hull_search import GNP

from hellymetric import Graph, apsp, build_obstruction, hull, is_helly, king_grid
from hellymetric.distances import DistanceMatrix
from hellymetric.graphs import random_connected_graph

helly = importlib.import_module("hellymetric.helly")


def scan_parameters(dm: DistanceMatrix) -> list[tuple[tuple[int, int], ...]]:
    """The sun-tip triple and every probe triple that can fire on ``dm``."""
    out = [((3, 3), (2, 2), (3, 3))]
    for k in range(dm.diam // 2 + 1):
        diag, lo = 2 * k + 2, 2 * k + 3
        out.append(((diag, diag), (k + 1, k + 1), (diag, diag)))  # H1
        out.append(((diag, diag), (k + 1, k + 1), (diag - 1, diag)))  # H2
        out.append(((lo, lo + 1), (0, k + 2), (lo, dm.diam)))  # H1 or H3
    return out


def subdivided(g: Graph) -> Graph:
    """Every edge split by a new vertex: bipartite, so (a) holds vacuously,
    and every cycle of g becomes one of length at least 6, which fails (b')."""
    edges = []
    for i, (a, b) in enumerate(g.edges()):
        edges += [(a, g.n + i), (g.n + i, b)]
    return Graph(g.n + g.m, edges, name=f"sub({g.name})")


def seeded_gnp() -> list[Graph]:
    """Seeded G(n, 5/(n-1)), n 30..117, and G(n, 0.3), n 8..17."""
    return [
        random_connected_graph(n, prob or 5 / (n - 1), seed)
        for seed in range(30)
        for n, prob in ((30 + 3 * seed, None), (8 + seed % 10, 0.3))
    ]


def non_pseudo_modular() -> list[Graph]:
    """The seeded G(n, p) that fail (a) or (b'), and subdivided ones that
    fail (b') alone."""
    graphs = []
    for seed in range(30):
        pair = SEEDED[2 * seed:2 * seed + 2]
        graphs += [g for g in pair if not helly.is_pseudo_modular(g)]
        if seed % 3 == 0:
            graphs.append(subdivided(random_connected_graph(12 + seed, 0.2, seed)))
    return graphs


def sun_with_apex() -> Graph:
    """The 3-sun (inner triangle 0-1-2, each outer vertex 3, 4, 5 adjacent
    to two inner ones) plus a vertex 6 adjacent to all six."""
    sun = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (1, 4), (2, 4), (0, 5), (2, 5)]
    return Graph(7, sun + [(v, 6) for v in range(6)], name="3-sun+apex")


LADDER = ladder_shapes()
LARGE = [king_grid(p, p) for p in (12, 20, 25)] + [
    build_obstruction(fam, k, k).graph
    for fam, lo in (("H1", 1), ("H2", 0), ("H3", 0))
    for k in range(lo, 13)
]
SEEDED = seeded_gnp()
RANDOM = non_pseudo_modular()


def assert_scans_match(graphs: list[Graph]) -> None:
    for g in graphs:
        dm = apsp(g)
        for outer, side, inner in scan_parameters(dm):
            want = pair_loop_scan_quadruples(dm, outer, side, inner)
            got = dm.first_quadruple(outer, side, inner)
            assert got == want, (g.name, outer, side, inner)


def first_three_rejected() -> Callable[[int, int, int, int], bool]:
    calls: list[tuple[int, ...]] = []

    def accept(*quad: int) -> bool:
        calls.append(quad)
        return len(calls) > 3

    return accept


def even_sum(*quad: int) -> bool:
    return sum(quad) % 2 == 0


def assert_predicate_scans_match(graphs: list[Graph]) -> None:
    for g in graphs:
        dm = apsp(g)
        for bands in scan_parameters(dm):
            for make in (first_three_rejected, lambda: even_sum):
                want = pair_loop_scan_quadruples(dm, *bands, make())
                assert dm.first_quadruple(*bands, make()) == want, (g.name, bands)


def assert_intervals_match(graphs: list[Graph]) -> None:
    for g in graphs:
        dm = apsp(g)
        for gap in (1, 2):
            want = vertex_loop_interval_violation(g, dm, gap)
            assert helly._interval_violation(g, dm, gap) == want, (g.name, gap)


def test_random_inputs_fail_both_conditions() -> None:
    # the corpus must reach both kernels' violation paths, and (b') alone
    assert len(RANDOM) >= 40
    dms = [apsp(g) for g in RANDOM]
    assert any(helly._interval_violation(g, dm, 1) for g, dm in zip(RANDOM, dms))
    assert any(
        helly._interval_violation(g, dm, 2)
        and not helly._interval_violation(g, dm, 1)
        for g, dm in zip(RANDOM, dms)
    )


def test_scan_matches_the_pair_loop_on_the_ladder() -> None:
    assert_scans_match(LADDER + RANDOM)


def test_scan_matches_the_pair_loop_on_large_inputs() -> None:
    assert_scans_match(LARGE)


def test_scan_with_a_predicate_matches_the_pair_loop() -> None:
    assert_predicate_scans_match(LADDER + SEEDED)


def test_scan_calls_the_predicate_in_the_pair_loop_order() -> None:
    # a predicate that accepts nothing sees every fitting quadruple once
    for g in LADDER[::4] + SEEDED[::6]:
        dm = apsp(g)
        for bands in scan_parameters(dm):
            want: list[tuple[int, ...]] = []
            got: list[tuple[int, ...]] = []
            assert pair_loop_scan_quadruples(dm, *bands, lambda *q: want.append(q)) is None
            assert dm.first_quadruple(*bands, lambda *q: got.append(q)) is None
            assert got == want, (g.name, bands)


def test_interval_violation_matches_the_vertex_loop() -> None:
    assert_intervals_match(LADDER + LARGE + RANDOM)


# (cells, first): a first-block floor of 1 starts from one v, one of 2^30
# (at least n^3 cells, id suffix "-all") from every v
CAPS = [pytest.param(cells, 1, id=str(cells)) for cells in (1, 200, 5_000)] + [
    pytest.param(cells, 1 << 30, id=f"{cells}-all") for cells in (1, 200, 5_000, 1 << 18)
]


@pytest.mark.parametrize("cells,first", CAPS)
def test_tiny_caps_match_the_loops(monkeypatch, cells, first) -> None:
    # cells = 1 takes one v per block with its partners one at a time, the
    # middle caps cut blocks short, and 2^18 leaves each graph one block
    monkeypatch.setattr(helly, "_BLOCK_CELLS", cells)
    monkeypatch.setattr(helly, "_FIRST_CELLS", first)
    assert_intervals_match(LADDER[::5] + RANDOM[::3] + [king_grid(9, 11)])


def test_early_exit_stays_small() -> None:
    # seed-1 G(1000, (ln n + 3)/n) fails (a) at v = 0: the first block is
    # one v, not the whole floor of rows
    n = 1000
    g = random_connected_graph(n, (math.log(n) + 3) / n, 1)
    dm = apsp(g)
    tracemalloc.start()
    try:
        found = helly._interval_violation(g, dm, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found == vertex_loop_interval_violation(g, dm, 1)
    assert found is not None and found[1].center == 0
    assert peak < 2**20


def assert_cliques_and_squares_match(graphs: list[Graph]) -> tuple[int, int]:
    """(c) and (d) equal their oracles; how many graphs fail each."""
    fails = [0, 0]
    for g in graphs:
        dm = apsp(g)
        for i, (fast, oracle) in enumerate((
            (helly._clique_helly_fails, list_walk_clique_helly_fails),
            (helly._undominated_c4, list_walk_undominated_c4),
        )):
            got = fast(g, dm)
            assert got == oracle(g, dm), (g.name, fast.__name__)
            fails[i] += got is not None
    return fails[0], fails[1]


def test_clique_and_square_scans_match_on_helly_inputs() -> None:
    assert assert_cliques_and_squares_match(LADDER + LARGE) == (0, 0)


def test_clique_and_square_scans_match_on_hulls() -> None:
    hulls = [hull(g).graph for g in GNP]
    assert len(hulls) == 32
    assert assert_cliques_and_squares_match(hulls) == (0, 0)


def test_clique_and_square_scans_match_on_random_graphs() -> None:
    # called directly, so the non-pseudo-modular graphs reach both failing
    # paths too
    cliques, squares = assert_cliques_and_squares_match(SEEDED)
    assert cliques >= 10 and squares >= 40, (cliques, squares)


def test_universal_vertex_outside_the_triangle() -> None:
    # no vertex of the inner triangle is universal for its extended
    # triangle, so the member loop runs, and finds the apex 6; on the
    # octahedron the member loop finds no universal vertex
    g = sun_with_apex()
    adj = g.adj_bits
    cl = [row | (1 << v) for v, row in enumerate(adj)]
    ext = (adj[0] & adj[1]) | (adj[0] & adj[2]) | (adj[1] & adj[2])
    assert ext == (1 << 7) - 1
    assert [ext & ~cl[t] != 0 for t in (0, 1, 2, 6)] == [True, True, True, False]
    assert assert_cliques_and_squares_match([g, octahedron()]) == (1, 0)
    assert is_helly(g)


def test_square_condition_skips_a_dominated_cycle_and_its_revisit() -> None:
    # the 4-cycle 0-1-2-3 is dominated by its hub 4, which the edge 4-5 joins
    # to the bare 4-cycle 5-6-7-8; the scanner meets the first cycle at x = 0
    # and again at x = 1 with y = 0 < x, and both are rejected
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)] + [(4, v) for v in range(4)]
    edges += [(4, 5), (5, 6), (6, 7), (7, 8), (5, 8)]
    g = Graph(9, edges)
    dm = apsp(g)
    seen: list[tuple[int, ...]] = []
    assert dm.first_quadruple((2, 2), (1, 1), (2, 2), lambda *q: seen.append(q)) is None
    assert seen == [(0, 1, 2, 3), (1, 0, 3, 2), (5, 6, 7, 8), (6, 5, 8, 7)]
    found = helly._undominated_c4(g, dm)
    assert found is not None and [c.center for c in found] == [5, 6, 7, 8]
    assert found == list_walk_undominated_c4(g, dm)


def test_square_condition_packs_bounded_blocks() -> None:
    # a 4-cycle 0-1-2-3 whose vertex 1 is also the centre of a star: (d)
    # fails on its first 4-cycle, and the distance-2 rows come from the
    # square's rows, packed under _UNPACK_BYTES, never from an n x n
    # boolean matrix (16 MB here)
    n = 4000
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)] + [(1, v) for v in range(4, n)]
    g = Graph(n, edges)
    dm = apsp(g)
    tracemalloc.start()
    try:
        found = helly._undominated_c4(g, dm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found is not None and [c.center for c in found] == [0, 1, 2, 3]
    assert peak < n * n


def test_kernels_peak_allocation_is_capped() -> None:
    # king 30 x 30: the int16 matrix alone is 1.6 MB.  The two scans cache
    # seven powers of 900 bit rows (0.8 MB in all), each packed from one
    # 0.8 MB boolean block, and cut one band of 900 rows per distinct range
    # of a call; the interval blocks hold at most 2^18 padded cells.
    g = king_grid(30, 30)
    dm = apsp(g)
    probes = [((8, 8), (4, 4), (8, 8)), ((15, 16), (0, 8), (15, 29))]
    tracemalloc.start()
    try:
        found = [dm.first_quadruple(*p) for p in probes]
        verdicts = [helly._interval_violation(g, dm, gap) for gap in (1, 2)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found == [(4, 120, 244, 128), (7, 210, 457, 225)]
    assert verdicts == [None, None]
    assert peak < 8 * 2**20
