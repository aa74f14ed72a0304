"""The packed distance layer against loop oracles and networkx.

``apsp`` runs one kernel, a BFS from every source at once on packed 64-bit
frontier rows; a level with few set frontier words writes back only their
cells, any other level every unreached cell.  Its matrices are checked
against the pure-Python BFS and networkx on inputs of short and of long
diameter, and on inputs whose levels switch between the two write-backs.
The far-apart pairs that its BFS levels mark are checked against the
pure-Python oracle.  The power bitmasks, and the disk and band bitmasks the
quadruple scanner cuts from them, are checked against a plain loop over the
vertices.
"""
from __future__ import annotations

import importlib
import re
import tracemalloc

import networkx as nx
import numpy as np
import pytest

from hellymetric import (
    DistanceMatrix,
    Graph,
    apsp,
    build_obstruction,
    cycle_graph,
    king_grid,
    path_graph,
    random_connected_graph,
)
from hellymetric.distances import _SPARSE, _all_sources
from hellymetric.graphs import DisconnectedGraphError
from hellymetric.report import build_analysis, verify_claims

from oracles import (
    all_distances,
    far_apart_pairs,
    fold_far_apart,
    loop_ball_bits,
    to_networkx,
)

distances = importlib.import_module("hellymetric.distances")
graphs = importlib.import_module("hellymetric.graphs")

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


def level_kinds(dist: np.ndarray) -> str:
    """Per BFS level from depth 1, 's' when its frontier's set words make it
    sparse by the word count alone, else 'D'."""
    n = dist.shape[0]
    words = (n + 63) // 64
    v, s = np.indices(dist.shape)
    # one key per distinct (depth, row, word) of the frontier words
    keys = np.unique((dist.astype(np.int64) * n + v) * words + s // 64)
    counts = np.bincount(keys // (n * words))[1:]
    return "".join("s" if 64 * _SPARSE * c < n * n else "D" for c in counts)


def assert_matches_oracles(g: Graph) -> None:
    ref = oracle_matrix(g)
    assert np.array_equal(ref, networkx_matrix(g)), g.name
    assert np.array_equal(apsp(g).dist, ref), g.name


@pytest.mark.parametrize("g", GNP + KINGS, ids=lambda g: g.name)
def test_all_sources_kernel_on_short_diameters(g: Graph) -> None:
    assert_matches_oracles(g)


@pytest.mark.parametrize("g", LONG, ids=lambda g: g.name)
def test_all_sources_kernel_on_long_paths_and_cycles(g: Graph) -> None:
    assert_matches_oracles(g)


def clique_with_tail(k: int, t: int) -> Graph:
    """K_k with a path of t more vertices hung off its last vertex."""
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    return Graph(k + t, edges + [(v, v + 1) for v in range(k - 1, k + t - 1)], name=f"K{k}+P{t}")


def test_levels_switch_from_sparse_to_dense_and_back() -> None:
    # the first dense level after a run of sparse ones adds a lag above 1
    # to every unreached cell, and the sparse levels after it store depths
    # above the value the dense level left there
    g = clique_with_tail(20, 580)
    kinds = level_kinds(oracle_matrix(g))
    assert re.fullmatch("s+D+s+", kinds), kinds
    assert_matches_oracles(g)
    u, v = apsp(g).far_apart_pairs()
    assert list(zip(u.tolist(), v.tolist())) == sorted(far_apart_pairs(g))


def double_broom(leaves: int, length: int) -> Graph:
    """A path 0..length with ``leaves`` leaves on each end vertex."""
    path = [(v, v + 1) for v in range(length)]
    a = [(0, length + 1 + i) for i in range(leaves)]
    b = [(length, length + 1 + leaves + i) for i in range(leaves)]
    return Graph(length + 1 + 2 * leaves, path + a + b, name=f"broom({leaves},{length})")


def test_a_long_run_of_sparse_levels_is_cut_by_a_dense_one() -> None:
    # 269 sparse levels run from depth 3 to the leaf-to-leaf pairs at depth
    # 272, whose level is dense; a lag above 255 would overflow the uint8
    # bits it multiplies, so the kernel takes a dense level at lag 255
    g = double_broom(300, 270)
    ref = oracle_matrix(g)
    kinds = level_kinds(ref)
    assert re.fullmatch("sDs{269}D", kinds), kinds
    assert np.array_equal(apsp(g).dist, ref)


@pytest.mark.parametrize("n", [1, 2])
def test_one_and_two_vertices(n: int) -> None:
    g = path_graph(n)
    assert np.array_equal(apsp(g).dist, oracle_matrix(g))


@pytest.mark.parametrize(
    "g",
    [
        # a second component beside a grid, a G(n, p) and a path, and an
        # isolated vertex 0, which stops the kernel before its first level
        Graph(66, king_grid(8, 8).edges() + [(64, 65)]),
        Graph(101, random_connected_graph(100, 0.05, 3).edges()),
        Graph(203, path_graph(200).edges() + [(200, 201), (201, 202)]),
        Graph(5, [(1, 2), (2, 3), (3, 4)]),
    ],
)
def test_disconnected_input_is_refused_by_the_kernel(g: Graph) -> None:
    # a source left in vertex 0's row of unreached after the last level
    with pytest.raises(DisconnectedGraphError, match="vertex 0 cannot reach"):
        apsp(g)


def test_tiny_gather_and_unpack_tiles_change_nothing(monkeypatch) -> None:
    short = GNP[:4] + KINGS[:2] + [cycle_graph(30)]
    long = [path_graph(200), cycle_graph(640)]
    untiled = {g.name: (_all_sources(g), apsp(g).far_apart_pairs()) for g in short + long}
    # chunks of 1, 3 and 8 adjacency rows: every vertex, then some, has its
    # neighbours split over two chunks; a dense write-back goes a row at a
    # time and a sparse one a frontier word at a time (P200 ends and C640
    # starts and ends with sparse levels), and the far-apart pairs are read
    # 8 rows at a time.  The long inputs keep the whole gather, which one
    # row at a time over their 200 and 320 levels would take seconds.
    monkeypatch.setattr(distances, "_UNPACK_BYTES", 1)
    for cap, inputs in ((1, short), (24, short), (64, short), (graphs._GATHER_BYTES, long)):
        monkeypatch.setattr(graphs, "_GATHER_BYTES", cap)
        for g in inputs:
            (dist, outward), pairs = untiled[g.name]
            g = Graph(g.n, g.edges())  # a fresh CSR
            tiled = _all_sources(g)
            assert np.array_equal(tiled[0], dist), (cap, g.name)
            assert np.array_equal(tiled[1], outward), (cap, g.name)
            far = np.nonzero(np.triu(fold_far_apart(g, dist), 1))
            got = DistanceMatrix(*tiled).far_apart_pairs()
            for want in (pairs, far):
                assert all(np.array_equal(a, b) for a, b in zip(got, want)), (cap, g.name)


def test_far_apart_bits_match_the_oracle(atlas_graphs, hull_corpus) -> None:
    inputs = (
        atlas_graphs
        + hull_corpus
        + [king_grid(p, q) for p in range(1, 9) for q in range(p, 12)]
        + [cycle_graph(n) for n in range(3, 70)]
        + [path_graph(n) for n in range(1, 70)]
    )
    for g in inputs:
        u, v = apsp(g).far_apart_pairs()
        assert u.dtype == v.dtype == np.int32
        pairs = list(zip(u.tolist(), v.tolist()))
        assert pairs == sorted(far_apart_pairs(g)), g.name


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
        dist, _ = _all_sources(g)
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
            assert dm.band_rows(0, r)[c] == loop_ball_bits(dm, c, r), (c, r)
    for lo in range(1, dm.diam + 2):
        for hi in range(lo, dm.diam + 3):
            want = [
                loop_ball_bits(dm, v, hi) & ~loop_ball_bits(dm, v, lo - 1)
                for v in range(g.n)
            ]
            assert dm.band_rows(lo, hi) == want, (lo, hi)
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
