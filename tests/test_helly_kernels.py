"""The batched Helly-side kernels against their loop oracles.

``detect._scan_quadruples`` walks the bit rows of its distance bands, and
``helly._interval_violation`` tests conditions (a) and (b') a block of
vertices at a time.  Both must return exactly what the loops they replaced
return (``pair_loop_scan_quadruples`` and
``vertex_loop_interval_violation`` in ``oracles``), the interval blocks
tiled under a cell cap.
"""
from __future__ import annotations

import importlib
import tracemalloc

import pytest

from oracles import pair_loop_scan_quadruples, vertex_loop_interval_violation
from test_helly_local import ladder_shapes

from hellymetric import Graph, apsp, build_obstruction, king_grid
from hellymetric.distances import DistanceMatrix
from hellymetric.graphs import random_connected_graph

helly = importlib.import_module("hellymetric.helly")
detect = importlib.import_module("hellymetric.detect")


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


def non_pseudo_modular() -> list[Graph]:
    """Seeded G(n, 5/(n-1)) and G(n, 0.3) that fail (a) or (b'), and
    subdivided ones that fail (b') alone."""
    graphs = []
    for seed in range(30):
        for n, prob in ((30 + 3 * seed, None), (8 + seed % 10, 0.3)):
            g = random_connected_graph(n, prob or 5 / (n - 1), seed)
            if not helly.is_pseudo_modular(g):
                graphs.append(g)
        if seed % 3 == 0:
            graphs.append(subdivided(random_connected_graph(12 + seed, 0.2, seed)))
    return graphs


LADDER = ladder_shapes()
LARGE = [king_grid(p, p) for p in (12, 20, 25)] + [
    build_obstruction(fam, k, k).graph
    for fam, lo in (("H1", 1), ("H2", 0), ("H3", 0))
    for k in range(lo, 13)
]
RANDOM = non_pseudo_modular()


def assert_scans_match(graphs: list[Graph]) -> None:
    for g in graphs:
        dm = apsp(g)
        for outer, side, inner in scan_parameters(dm):
            want = pair_loop_scan_quadruples(dm, outer, side, inner)
            got = detect._scan_quadruples(dm, outer, side, inner)
            assert got == want, (g.name, outer, side, inner)


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


def test_interval_violation_matches_the_vertex_loop() -> None:
    assert_intervals_match(LADDER + LARGE + RANDOM)


@pytest.mark.parametrize("cells", [1, 200, 5_000])
def test_tiny_caps_match_the_loops(monkeypatch, cells) -> None:
    # one v per block with its partners one at a time, then blocks cut short
    monkeypatch.setattr(helly, "_BLOCK_CELLS", cells)
    assert_intervals_match(LADDER[::5] + RANDOM[::3] + [king_grid(9, 11)])


def test_kernels_peak_allocation_is_capped() -> None:
    # king 30 x 30: the int16 matrix alone is 1.6 MB.  The two scans cache
    # seven powers of 900 bit rows (0.8 MB in all), each packed from one
    # 0.8 MB boolean block, and cut three bands of 900 rows per call; the
    # interval blocks hold at most 2^18 padded cells.
    g = king_grid(30, 30)
    dm = apsp(g)
    probes = [((8, 8), (4, 4), (8, 8)), ((15, 16), (0, 8), (15, 29))]
    tracemalloc.start()
    try:
        found = [detect._scan_quadruples(dm, *p) for p in probes]
        verdicts = [helly._interval_violation(g, dm, gap) for gap in (1, 2)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found == [(4, 120, 244, 128), (7, 210, 457, 225)]
    assert verdicts == [None, None]
    assert peak < 8 * 2**20
