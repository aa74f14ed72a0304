from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_distances

from hellymetric import (
    Graph,
    apsp,
    complete_graph,
    cycle_graph,
    graph_power,
    is_isometric,
    king_grid,
    path_graph,
)
from hellymetric.graphs import (
    DisconnectedGraphError,
    GraphError,
    random_connected_graph,
)


def test_cycle_eccentricities_and_diameter() -> None:
    dm = apsp(cycle_graph(5))
    assert dm.diam == 2 and dm.rad == 2
    assert all(e == 2 for e in dm.ecc)


def test_path_distances_match_index_gap() -> None:
    dm = apsp(path_graph(6))
    for u in range(6):
        for v in range(6):
            assert dm.d(u, v) == abs(u - v)


def test_king_grid_metric_is_chebyshev() -> None:
    p, q = 4, 5
    dm = apsp(king_grid(p, q))
    for x1 in range(p):
        for y1 in range(q):
            for x2 in range(p):
                for y2 in range(q):
                    got = dm.d(x1 * q + y1, x2 * q + y2)
                    assert got == max(abs(x1 - x2), abs(y1 - y2))


def test_disconnected_input_is_rejected() -> None:
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        apsp(g)


def test_apsp_refuses_distances_past_int16_before_allocating() -> None:
    # a path on 32,769 vertices has distance 32,768, one past int16; refusing
    # it up front spares the 2 GB matrix and the BFS from every source
    with pytest.raises(GraphError, match="32769 vertices"):
        apsp(path_graph(32_769))


def test_power_of_c5_is_complete() -> None:
    assert graph_power(cycle_graph(5), 2).edge_set() == complete_graph(5).edge_set()


def test_power_one_is_identity() -> None:
    g = king_grid(3, 3)
    assert graph_power(g, 1).edge_set() == g.edge_set()


def test_power_clamps_beyond_diameter() -> None:
    c6 = cycle_graph(6)
    assert graph_power(c6, 9).edge_set() == complete_graph(6).edge_set()


def test_isometric_subset_detection() -> None:
    c6 = cycle_graph(6)
    dm = apsp(c6)
    # 0..4 induces P5, but the host shortcut 0-5-4 keeps d(0,4)=2
    ok, pair = is_isometric(c6, [0, 1, 2, 3, 4], dm=dm)
    assert not ok and pair is not None
    u, v = pair
    assert dm.d(u, v) < 4 and {u, v} <= {0, 1, 2, 3, 4}
    ok, pair = is_isometric(c6, [0, 1, 2, 3], dm=dm)
    assert ok and pair is None
    # {0, 1} and {3, 4} are components; 3 is the lowest vertex 0 does not reach
    assert is_isometric(c6, [0, 1, 3, 4], dm=dm) == (False, (0, 3))


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=300))
def test_apsp_matches_bfs_oracle(seed: int) -> None:
    g = random_connected_graph(8, 0.3, seed)
    dm = apsp(g)
    oracle = all_distances(g)
    for (u, v), d in oracle.items():
        assert dm.d(u, v) == d


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=3))
def test_power_edges_match_distance_threshold(seed: int, k: int) -> None:
    g = random_connected_graph(7, 0.3, seed)
    dm = apsp(g)
    pg = graph_power(g, k, dm=dm)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert pg.has_edge(u, v) == (dm.d(u, v) <= k)
