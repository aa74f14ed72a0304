from __future__ import annotations

import random
import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hellymetric import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    complete_graph,
    cycle_graph,
    induced_subgraph,
    king_grid,
    load_graph,
    path_graph,
    strong_product,
    to_edge_list,
)
from hellymetric import graphs
from hellymetric.graphs import random_connected_graph


def test_rejects_self_loops_and_out_of_range_edges() -> None:
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 5)])


def test_duplicate_edges_collapse() -> None:
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_load_graph_parses_comments_and_blank_lines() -> None:
    g = load_graph("# header\n0 1\n\n1 2\n# trailing\n")
    assert (g.n, g.m) == (3, 2)


def test_load_graph_rejects_malformed_lines() -> None:
    with pytest.raises(GraphError):
        load_graph("0 1 2\n")
    with pytest.raises(GraphError):
        load_graph("a b\n")
    with pytest.raises(GraphError):
        load_graph("# only comments\n")


def test_load_graph_rejects_disconnected_input() -> None:
    with pytest.raises(DisconnectedGraphError):
        load_graph("0 1\n2 3\n")


def test_load_graph_refuses_a_stray_id_before_allocating_it() -> None:
    # two edges cannot connect 100,001 vertices; the parse stays small
    tracemalloc.start()
    try:
        with pytest.raises(DisconnectedGraphError, match="input graph is not connected"):
            load_graph("0 1\n0 100000\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # a connected input always has enough lines, duplicates included
    assert load_graph("0 1\n1 2\n0 1\n").n == 3


def test_edge_list_roundtrip() -> None:
    g = king_grid(3, 2)
    back = load_graph(to_edge_list(g, header=("demo",)))
    assert back.n == g.n and back.edge_set() == g.edge_set()


def test_king_grid_size_and_degrees() -> None:
    g = king_grid(3, 3)
    assert (g.n, g.m) == (9, 20)
    assert g.degree(4) == 8  # center touches all others in a 3x3 block
    assert g.degree(0) == 3


def test_king_grid_matches_strong_product_of_paths() -> None:
    direct = king_grid(4, 3)
    prod = strong_product(path_graph(4), path_graph(3))
    assert direct.edge_set() == prod.edge_set()


def test_cycle_path_complete_shapes() -> None:
    assert (cycle_graph(5).n, cycle_graph(5).m) == (5, 5)
    assert (path_graph(4).n, path_graph(4).m) == (4, 3)
    assert complete_graph(4).m == 6


def test_induced_subgraph_of_cycle_is_path() -> None:
    c5 = cycle_graph(5)
    sub, index = induced_subgraph(c5, [0, 1, 2, 3])
    assert sub.edge_set() == frozenset({(0, 1), (1, 2), (2, 3)})
    assert index == {0: 0, 1: 1, 2: 2, 3: 3}


@given(st.integers(min_value=1, max_value=400))
def test_random_graph_is_deterministic_per_seed(seed: int) -> None:
    a = random_connected_graph(7, 0.35, seed)
    b = random_connected_graph(7, 0.35, seed)
    assert a.edge_set() == b.edge_set()
    assert a.is_connected()


def test_hopeless_random_graph_is_refused_in_bounded_time() -> None:
    # About 13.5 isolated vertices are expected, so a draw is almost never
    # connected; 10,000 redraws would make 2 * 10^10 random draws, and the
    # draw limit stops after 5 redraws of 1,999,000.
    start = time.perf_counter()
    with pytest.raises(GraphError, match="no connected G"):
        random_connected_graph(2000, 5 / 1999, 1)
    assert time.perf_counter() - start < 30


def test_random_graph_draw_limit_counts_draws(monkeypatch) -> None:
    made = []

    class CountingRandom(random.Random):
        def random(self) -> float:
            made.append(1)
            return super().random()

    monkeypatch.setattr(graphs.random, "Random", CountingRandom)
    monkeypatch.setattr(graphs, "_DRAW_LIMIT", 105)
    # 10 pairs per redraw: 10 redraws fit under 105 draws, an 11th does not
    with pytest.raises(GraphError):
        random_connected_graph(5, 0.0, 1)
    assert len(made) == 100
    # one redraw is always made, even past the limit
    made.clear()
    monkeypatch.setattr(graphs, "_DRAW_LIMIT", 3)
    assert random_connected_graph(5, 1.0, 1).m == 10
    assert len(made) == 10


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=2, max_value=5))
def test_king_grid_vertex_and_edge_counts(p: int, q: int) -> None:
    g = king_grid(p, q)
    assert g.n == p * q
    horizontal = (p - 1) * q + p * (q - 1)
    diagonal = 2 * (p - 1) * (q - 1)
    assert g.m == horizontal + diagonal
