"""The packed distance layer against loop oracles and networkx.

``apsp`` runs one of two kernels, chosen by ``_all_sources_pays``: a BFS
from every source at once on packed 64-bit frontier rows, or one bitset
BFS per source.  Each input here is checked under both kernels, and the
test pins which one ``apsp`` picks.  The power bitmasks, and the disk and
band bitmasks the quadruple scanner cuts from them, are checked against a
plain loop over the vertices.
"""
from __future__ import annotations

import importlib
import tracemalloc

import networkx as nx
import numpy as np
import pytest

from hellymetric import (
    Graph,
    apsp,
    build_obstruction,
    cycle_graph,
    king_grid,
    path_graph,
    random_connected_graph,
)
from hellymetric.detect import _band_rows
from hellymetric.distances import _all_sources, _all_sources_pays, _bfs_row
from hellymetric.graphs import DisconnectedGraphError
from hellymetric.report import build_analysis, verify_claims

from oracles import all_distances, loop_ball_bits, to_networkx

distances = importlib.import_module("hellymetric.distances")
graphs = importlib.import_module("hellymetric.graphs")
# the package re-exports a function under the module's name
scan_module = importlib.import_module("hellymetric.hyperbolicity")

GNP = [random_connected_graph(n, 5 / (n - 1), n) for n in range(50, 151, 10)]
KINGS = [king_grid(p, q) for p, q in ((5, 5), (6, 11), (12, 12), (20, 20))]
LONG = [path_graph(60), path_graph(200), cycle_graph(640)]


def oracle_matrix(g: Graph) -> np.ndarray:
    out = np.zeros((g.n, g.n), dtype=np.int16)
    for (u, v), d in all_distances(g).items():
        out[u, v] = d
    return out


def networkx_matrix(g: Graph) -> np.ndarray:
    out = np.zeros((g.n, g.n), dtype=np.int16)
    for u, row in nx.all_pairs_shortest_path_length(to_networkx(g)):
        for v, d in row.items():
            out[u, v] = d
    return out


def picks_all_sources(g: Graph, ref: np.ndarray) -> bool:
    return _all_sources_pays(g.n, g.m, 2 * int(ref[0].max()) + 1)


def assert_both_kernels(g: Graph) -> np.ndarray:
    ref = oracle_matrix(g)
    assert np.array_equal(ref, networkx_matrix(g)), g.name
    assert np.array_equal(apsp(g).dist, ref), g.name
    assert np.array_equal(_all_sources(g), ref), g.name
    assert np.array_equal(np.array([_bfs_row(g, s) for s in range(g.n)]), ref), g.name
    return ref


@pytest.mark.parametrize("g", GNP + KINGS, ids=lambda g: g.name)
def test_all_sources_kernel_on_short_diameters(g: Graph) -> None:
    ref = assert_both_kernels(g)
    assert picks_all_sources(g, ref)


@pytest.mark.parametrize("g", LONG, ids=lambda g: g.name)
def test_per_source_kernel_on_long_paths_and_cycles(g: Graph) -> None:
    ref = assert_both_kernels(g)
    assert not picks_all_sources(g, ref)


@pytest.mark.parametrize("n", [1, 2])
def test_one_and_two_vertices(n: int) -> None:
    g = path_graph(n)
    assert np.array_equal(apsp(g).dist, oracle_matrix(g))
    if n == 2:
        assert np.array_equal(_all_sources(g), oracle_matrix(g))


def test_the_tiny_inputs_keep_the_per_source_kernel() -> None:
    # G(n, 0.3) with n 9..12 has few levels, but the all-sources kernel's
    # fixed cost per level outweighs its n^2 cells
    for seed in range(40):
        g = random_connected_graph(9 + seed % 4, 0.3, seed)
        assert not picks_all_sources(g, oracle_matrix(g)), g.name


@pytest.mark.parametrize(
    "g",
    [
        # shaped like inputs of each kernel, plus a second component
        Graph(66, king_grid(8, 8).edges() + [(64, 65)]),
        Graph(101, random_connected_graph(100, 0.05, 3).edges()),
        Graph(203, path_graph(200).edges() + [(200, 201), (201, 202)]),
        Graph(5, [(1, 2), (2, 3), (3, 4)]),
    ],
)
def test_disconnected_input_is_refused_before_either_kernel(g: Graph) -> None:
    # the BFS from vertex 0 that sizes the dispatch also checks connectivity
    with pytest.raises(DisconnectedGraphError, match="vertex 0 cannot reach"):
        apsp(g)


def test_tiny_gather_and_unpack_tiles_change_nothing(monkeypatch) -> None:
    inputs = GNP[:4] + KINGS[:2] + [cycle_graph(30)]
    untiled = [(_all_sources(g), scan_module._far_apart(g, apsp(g).dist)) for g in inputs]
    # chunks of 1, 3 and 8 adjacency rows: every vertex, then some, has its
    # neighbours split over two chunks; the write-back goes a row at a time
    for cap in (1, 24, 64):
        monkeypatch.setattr(graphs, "_GATHER_BYTES", cap)
        monkeypatch.setattr(distances, "_UNPACK_BYTES", 1)
        for g, (dist, far) in zip(inputs, untiled):
            g = Graph(g.n, g.edges())  # a fresh CSR
            assert np.array_equal(_all_sources(g), dist), (cap, g.name)
            assert np.array_equal(scan_module._far_apart(g, dist), far), (cap, g.name)


def test_gather_peak_follows_its_cap(monkeypatch) -> None:
    # about 27,000 adjacency rows of 5 words: the whole gather is over 1 MB
    # and the distance matrix 180 KB; a 64 KB cap keeps the kernel under 0.5 MB
    g = random_connected_graph(300, 0.3, 1)
    assert 2 * g.m * 40 > 2**20
    monkeypatch.setattr(graphs, "_GATHER_BYTES", 1 << 16)
    monkeypatch.setattr(distances, "_UNPACK_BYTES", 1 << 16)
    _all_sources(g)  # builds the CSR arrays outside the measurement
    tracemalloc.start()
    try:
        dist = _all_sources(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(dist, oracle_matrix(g))
    assert peak < 2**19


@pytest.mark.parametrize(
    "g",
    [path_graph(1), path_graph(7), cycle_graph(9), king_grid(3, 5), random_connected_graph(13, 0.3, 2)],
    ids=lambda g: g.name,
)
def test_ball_bits_and_power_rows_match_the_loop(g: Graph) -> None:
    # n = 7, 9, 13 and 15 are not multiples of 8, so the packed rows end in padding
    dm = apsp(g)
    for c in range(g.n):
        ecc = int(dm.ecc[c])
        for r in (*range(ecc + 1), ecc + 1, ecc + 9):
            assert _band_rows(dm, 0, r)[c] == loop_ball_bits(dm, c, r), (c, r)
    for lo in range(1, dm.diam + 2):
        for hi in range(lo, dm.diam + 3):
            want = [
                loop_ball_bits(dm, v, hi) & ~loop_ball_bits(dm, v, lo - 1)
                for v in range(g.n)
            ]
            assert _band_rows(dm, lo, hi) == want, (lo, hi)
    for ell in range(dm.diam + 3):
        want = [loop_ball_bits(dm, v, ell) & ~(1 << v) for v in range(g.n)]
        assert dm.power_rows(ell) == want, ell


def test_power_rows_packed_in_blocks_match_the_loop(monkeypatch) -> None:
    # a 30-byte cap packs the 13 rows two at a time, so the cleared diagonal
    # sits at a different offset in every block
    monkeypatch.setattr(distances, "_UNPACK_BYTES", 30)
    g = random_connected_graph(13, 0.3, 2)
    dm = apsp(g)
    for ell in range(dm.diam + 2):
        want = [loop_ball_bits(dm, v, ell) & ~(1 << v) for v in range(g.n)]
        assert dm.power_rows(ell) == want, ell


def test_helly_analysis_never_packs_the_empty_power(monkeypatch) -> None:
    # every band from distance 1 is a power's own rows, so the empty graph's
    # all-false n x n mask is never packed
    cached: set[int] = set()
    power_rows = distances.DistanceMatrix.power_rows

    def recorded(self, ell):
        rows = power_rows(self, ell)
        cached.update(self._power_rows)
        return rows

    monkeypatch.setattr(distances.DistanceMatrix, "power_rows", recorded)
    kings = [king_grid(p, q) for p, q in ((2, 2), (2, 5), (3, 3), (5, 8), (8, 8))]
    families = [build_obstruction(f, 1).graph for f in ("H1", "H2", "H3")]
    for g in kings + families:
        assert build_analysis(g).routes.agree, g.name
        assert all(c.status == "PASS" for c in verify_claims(g)), g.name
    assert cached and 0 not in cached
