"""The hyperbolicity scan tiled over columns: same result, bounded memory."""
from __future__ import annotations

import importlib
import tracemalloc

import pytest

from hellymetric import apsp, hyperbolicity, random_connected_graph

# the package re-exports a function under the module's name
scan_module = importlib.import_module("hellymetric.hyperbolicity")

RANDOM = [
    random_connected_graph(8 + seed % 20, 0.15 + 0.05 * (seed % 6), seed)
    for seed in range(50)
]


@pytest.mark.parametrize("threads", [1, 2])
def test_tiny_tiles_match_the_untiled_scan(hull_corpus, monkeypatch, threads) -> None:
    graphs = hull_corpus + RANDOM
    # no input here has more than _TILE pairs, so the default scan is untiled
    untiled = [hyperbolicity(g, threads=1) for g in graphs]
    monkeypatch.setattr(scan_module, "_TILE", 7)
    assert [hyperbolicity(g, threads=threads) for g in graphs] == untiled


def test_scan_peak_allocation_follows_the_tile(monkeypatch) -> None:
    # Untiled, the last chunks scanned here hold 64 x ~5,500 int32 per
    # temporary (the far-apart pairs at distance >= 4) and the scan peaks
    # near 7.8 MB.  A 1,024-column tile keeps each temporary at 256 KB.
    g = random_connected_graph(300, 0.028, 1)
    dm = apsp(g)
    monkeypatch.setattr(scan_module, "_TILE", 1 << 10)
    tracemalloc.start()
    try:
        value, _ = hyperbolicity(g, dm=dm, threads=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value.doubled == 4
    assert peak < 6 * 2**20
