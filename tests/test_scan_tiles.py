"""The hyperbolicity scan tiled over columns: same result, bounded memory.

Both passes of the scan, the value pass and the witness pass, tile their
columns by ``_TILE`` and gather only the rows of their current chunk, so
no n x n copy of the distance matrix is made.  Block graphs stop before any
n x n array is built.
"""
from __future__ import annotations

import importlib
import random
import tracemalloc

import pytest

from hellymetric import Graph, apsp, hyperbolicity, king_grid, random_connected_graph

from oracles import random_tree, star_graph

# the package re-exports a function under the module's name
scan_module = importlib.import_module("hellymetric.hyperbolicity")

RANDOM = [
    random_connected_graph(8 + seed % 20, 0.15 + 0.05 * (seed % 6), seed)
    for seed in range(50)
]


def test_tiny_tiles_match_the_untiled_scan(hull_corpus, monkeypatch) -> None:
    graphs = hull_corpus + RANDOM
    # no input here has more than _TILE pairs, so the default scan is untiled;
    # at 7 columns both passes split their columns into many tiles
    untiled = [hyperbolicity(g) for g in graphs]
    monkeypatch.setattr(scan_module, "_TILE", 7)
    assert [hyperbolicity(g) for g in graphs] == untiled


def test_scan_peak_allocation_follows_the_tile(monkeypatch) -> None:
    # Only 22 far-apart pairs lie above distance 4, so the value pass stops
    # after one chunk, and the witness pass pairs the 9 pairs (0, v) with
    # the ~5,500 pairs at distance >= 4.  Untiled the scan peaks near
    # 1.6 MB, and near 0.9 MB with a 1,024-column tile.
    g = random_connected_graph(300, 0.028, 1)
    dm = apsp(g)
    monkeypatch.setattr(scan_module, "_TILE", 1 << 10)
    tracemalloc.start()
    try:
        value, _ = hyperbolicity(g, dm=dm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value.doubled == 4
    assert peak < 6 * 2**20


def traced_peak(g: Graph) -> tuple[int, int]:
    """The doubled value of ``hyperbolicity`` and its traced peak in bytes."""
    dm = apsp(g)
    tracemalloc.start()
    try:
        value, _ = hyperbolicity(g, dm=dm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value.doubled, peak


def test_scan_peak_is_under_2_5_bytes_per_matrix_cell() -> None:
    # Reading the far-apart pairs from the packed BFS relation sets the
    # peak, near 2.0 bytes per cell: one block of 1,600 rows unpacks its
    # rows and its columns.  An n x n far-apart mask folded from the matrix
    # peaked near 4.1, and a scan that keeps an int32 copy of the matrix
    # peaks near 5.7.
    g = king_grid(40, 40)
    doubled, peak = traced_peak(g)
    assert doubled == 38
    assert peak < 2.5 * g.n**2


def test_apsp_peak_is_under_four_bytes_per_matrix_cell() -> None:
    # Near 3.8 bytes per cell: the int16 matrix (2), one write-back block
    # that unpacks all 1,600 rows (1) and the kernel's n x 25-word arrays
    # (0.125 each), one of them the packed far-apart relation.  Kept as an
    # n x n bool, that relation would add 1.
    g = king_grid(40, 40)
    apsp(g)  # builds the CSR arrays outside the measurement
    tracemalloc.start()
    try:
        dm = apsp(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dm.outward.nbytes == g.n * 25 * 8
    assert peak < 4 * g.n**2


@pytest.mark.parametrize("g", [star_graph(2999), random_tree(3000, 1)], ids=["star", "tree"])
def test_block_graphs_stop_before_the_pair_list(g: Graph) -> None:
    # near 0.8 MB of DFS bookkeeping; one n x n boolean mask would be 9 MB
    doubled, peak = traced_peak(g)
    assert doubled == 0
    assert peak < 2 * 2**20


def c4_cactus(t: int, seed: int) -> Graph:
    """A seeded bushy tree on t vertices with every edge replaced by a C4."""
    rng = random.Random(seed)
    edges = []
    for v in range(1, t):
        p = rng.randrange(max(1, v // 4))
        a, b = t + 2 * (v - 1), t + 2 * (v - 1) + 1
        edges += [(p, a), (a, v), (p, b), (b, v)]
    return Graph(3 * t - 2, edges)


def test_both_passes_peak_allocation_follows_the_tile(monkeypatch) -> None:
    # Every block is a C4, so the doubled value is 2, and 9,080 far-apart
    # pairs lie above it.  Untiled, the value pass alone peaks near 8.9 MB
    # (the last chunks pair with ~9,000 columns) and the witness pass near
    # 11.2 MB (it walks a up to 33, each against ~9,000 columns); with a
    # 1,024-column tile the whole scan peaks near 2.7 MB.
    g = c4_cactus(170, 1)
    dm = apsp(g)
    monkeypatch.setattr(scan_module, "_TILE", 1 << 10)
    tracemalloc.start()
    try:
        value, w = hyperbolicity(g, dm=dm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value.doubled == 2
    assert w.quadruple == (33, 36, 182, 183)
    assert peak < 6 * 2**20
