"""Four-point hyperbolicity, interval slices, and interval thinness."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hellymetric import (
    Graph,
    HalfInt,
    apsp,
    complete_graph,
    cycle_graph,
    hyperbolicity,
    interval_slice,
    interval_thinness,
    king_grid,
    path_graph,
    random_connected_graph,
)
from hellymetric.hyperbolicity import is_block_graph, quadruple_delta

from oracles import (
    brute_hyperbolicity,
    brute_thinness,
    clique_cactus,
    dfs_is_block_graph,
    gromov_product,
    random_tree,
    star_graph,
    tie_scan_hyperbolicity,
)


def glued_blocks_graph() -> Graph:
    """K4 and a triangle sharing a cut vertex, plus a pendant path."""
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    edges += [(3, 4), (3, 5), (4, 5)]
    edges += [(5, 6), (6, 7)]
    return Graph(8, edges, name="glued-blocks")


# ---------------------------------------------------------------------------
# golden values
# ---------------------------------------------------------------------------

# doubled hyperbolicity of C_n: 2*floor(n/4), minus one when n = 1 mod 4
CYCLE_DOUBLED = {4: 2, 5: 1, 6: 2, 7: 2, 8: 4, 9: 3, 12: 6, 13: 5}


@pytest.mark.parametrize("n,doubled", sorted(CYCLE_DOUBLED.items()))
def test_cycle_hyperbolicity_golden(n: int, doubled: int) -> None:
    value, _ = hyperbolicity(cycle_graph(n))
    assert value.doubled == doubled


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 12, 13])
def test_cycle_hyperbolicity_matches_bruteforce(n: int) -> None:
    value, _ = hyperbolicity(cycle_graph(n))
    assert Fraction(value.doubled, 2) == brute_hyperbolicity(cycle_graph(n))


def test_trees_and_cliques_are_zero_hyperbolic() -> None:
    for g in (path_graph(1), path_graph(2), path_graph(9), complete_graph(6)):
        value, witness = hyperbolicity(g)
        assert value == HalfInt(0)
        assert witness.delta == HalfInt(0)


def test_block_graph_short_circuit() -> None:
    g = glued_blocks_graph()
    assert is_block_graph(g)
    value, witness = hyperbolicity(g)
    assert value == HalfInt(0)
    assert witness.quadruple == (0, 0, 0, 0)
    assert Fraction(0) == brute_hyperbolicity(g)


def test_is_block_graph_rejects_long_cycles() -> None:
    assert not is_block_graph(cycle_graph(4))
    assert not is_block_graph(cycle_graph(5))
    assert not is_block_graph(king_grid(3, 3))
    assert is_block_graph(complete_graph(4))
    assert is_block_graph(path_graph(7))


def test_is_block_graph_is_zero_hyperbolicity(atlas_graphs) -> None:
    graphs = atlas_graphs + [
        random_connected_graph(5 + seed % 8, 0.2 + 0.1 * (seed % 6), seed)
        for seed in range(120)
    ]
    for g in graphs:
        expected = brute_hyperbolicity(g) == 0
        assert is_block_graph(g) == expected == dfs_is_block_graph(g), g.edges()


def k3_chain(t: int) -> Graph:
    """t triangles in a row, consecutive ones sharing a vertex."""
    edges = []
    for i in range(t):
        a, b, c = 2 * i, 2 * i + 1, 2 * i + 2
        edges += [(a, b), (a, c), (b, c)]
    return Graph(2 * t + 1, edges, name=f"k3-chain-{t}")


DIAMOND = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], name="diamond")
FOUR_SUN = Graph(
    8,
    list(combinations(range(4), 2))
    + [(4, 0), (4, 1), (5, 1), (5, 2), (6, 2), (6, 3), (7, 3), (7, 0)],
    name="4-sun",
)

TRIANGLE_RING = Graph(
    8,
    [(0, 1), (1, 2), (2, 3), (3, 0)]
    + [(a, 4 + a) for a in range(4)]
    + [((a + 1) % 4, 4 + a) for a in range(4)],
    name="triangle-ring",
)

# (graph, is a block graph)
BLOCK_CASES = (
    [(random_tree(n, n), True) for n in (3, 10, 60)]
    + [(star_graph(k), True) for k in (2, 5, 40)]
    + [(path_graph(9), True)]
    + [(k3_chain(t), True) for t in (1, 2, 7)]
    + [(complete_graph(n), True) for n in (3, 4, 7)]
    + [(clique_cactus(sizes, seed), True)
       for seed, sizes in enumerate(([3, 4, 2, 5], [6, 3, 3, 2, 4, 3], [2, 2, 3]))]
    + [(cycle_graph(n), False) for n in range(4, 10)]
    + [(DIAMOND, False), (FOUR_SUN, False)]
    + [(king_grid(p, q), False) for p, q in ((3, 3), (3, 5), (6, 6))]
    # every K(uv) is a triangle, yet their sum is 8 > n - 1 = 7
    + [(TRIANGLE_RING, False)]
    # a dense and a sparse block graph whose rows are wide ints
    + [(complete_graph(400), True), (star_graph(3000), True)]
)


# The id keeps its old name, from when a triangle count ran before the DFS,
# so that the test ids stay stable.
@pytest.mark.parametrize("g, block", BLOCK_CASES, ids=[g.name for g, _ in BLOCK_CASES])
def test_triangle_count_only_rejects_non_block_graphs(g: Graph, block: bool) -> None:
    assert is_block_graph(g) == dfs_is_block_graph(g) == block


def edited_cacti() -> list[Graph]:
    """Seeded clique cacti with one edge added or removed."""
    graphs = []
    for seed in range(300):
        rng = random.Random(seed)
        g = clique_cactus([rng.randint(2, 5) for _ in range(rng.randint(2, 8))], seed)
        edges = g.edge_set()
        if seed % 2:
            u, v = rng.sample(range(g.n), 2)
            edges |= {(min(u, v), max(u, v))}
        else:
            edges -= {rng.choice(sorted(edges))}
        graphs.append(Graph(g.n, sorted(edges), name=f"edited-{g.name}"))
    return graphs


def test_edge_clique_count_matches_the_dfs_on_edited_cacti() -> None:
    graphs = [g for g in edited_cacti() if g.is_connected()]
    assert len(graphs) > 250
    verdicts = [is_block_graph(g) for g in graphs]
    assert verdicts == [dfs_is_block_graph(g) for g in graphs]
    # both answers occur, so the comparison is not one-sided
    assert 0 < sum(verdicts) < len(graphs)


def test_king_grid_golden() -> None:
    value, _ = hyperbolicity(king_grid(3, 3))
    assert value == HalfInt.from_int(1)
    for p, q in ((3, 3), (4, 4), (3, 5)):
        g = king_grid(p, q)
        value, _ = hyperbolicity(g)
        assert Fraction(value.doubled, 2) == brute_hyperbolicity(g)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def recomputed_sums(g: Graph, q: tuple[int, int, int, int]) -> tuple[int, int, int]:
    dm = apsp(g)
    a, b, c, d = q
    return (
        dm.d(a, b) + dm.d(c, d),
        dm.d(a, c) + dm.d(b, d),
        dm.d(a, d) + dm.d(b, c),
    )


@pytest.mark.parametrize("g", [cycle_graph(8), cycle_graph(13), king_grid(3, 4)])
def test_witness_certifies_value(g: Graph) -> None:
    value, w = hyperbolicity(g)
    assert w.delta == value
    assert list(w.quadruple) == sorted(set(w.quadruple))
    assert w.sums == recomputed_sums(g, w.quadruple)
    top = sorted(w.sums)
    assert top[2] - top[1] == value.doubled


def test_witness_is_lex_min_and_thread_independent() -> None:
    for g in (cycle_graph(8), cycle_graph(13), king_grid(3, 4), king_grid(4, 4)):
        assert hyperbolicity(g) == tie_scan_hyperbolicity(g, apsp(g), threads=4)
    # C4 maximizer is unique, so the witness is pinned down exactly
    value, w = hyperbolicity(cycle_graph(4))
    assert value == HalfInt.from_int(1)
    assert w.quadruple == (0, 1, 2, 3)


def test_quadruple_delta_direct() -> None:
    dm = apsp(cycle_graph(4))
    w = quadruple_delta(dm, 0, 1, 2, 3)
    assert w.sums == (2, 4, 2)
    assert w.delta == HalfInt.from_int(1)


def test_gromov_product_values() -> None:
    dm = apsp(cycle_graph(5))
    assert gromov_product(dm, 1, 4, 0) == HalfInt(0)
    assert gromov_product(dm, 2, 3, 0) == HalfInt(3)


# ---------------------------------------------------------------------------
# interval slices
# ---------------------------------------------------------------------------

def test_slices_on_path_and_even_cycle() -> None:
    p5 = path_graph(5)
    assert interval_slice(p5, 0, 4, 0) == {0}
    assert interval_slice(p5, 0, 4, 2) == {2}
    assert interval_slice(p5, 0, 4, 4) == {4}
    c6 = cycle_graph(6)
    assert interval_slice(c6, 0, 3, 1) == {1, 5}
    assert interval_slice(c6, 0, 3, 2) == {2, 4}


def test_slice_index_out_of_range() -> None:
    p5 = path_graph(5)
    with pytest.raises(ValueError, match=r"slice index 5 outside \[0, 4\]"):
        interval_slice(p5, 0, 4, 5)
    with pytest.raises(ValueError, match=r"slice index -1 outside \[0, 4\]"):
        interval_slice(p5, 0, 4, -1)


def test_odd_cycles_have_singleton_slices() -> None:
    for n in (5, 7, 9):
        g = cycle_graph(n)
        dm = apsp(g)
        for x in range(n):
            for y in range(x + 1, n):
                for k in range(dm.d(x, y) + 1):
                    assert len(interval_slice(g, x, y, k, dm=dm)) == 1


# ---------------------------------------------------------------------------
# interval thinness
# ---------------------------------------------------------------------------

# even cycle C_2m has a slice pair at distance 2*floor(m/2); odd cycles are 0
THINNESS_GOLDEN = {4: 2, 5: 0, 6: 2, 7: 0, 8: 4, 9: 0, 12: 6}


@pytest.mark.parametrize("n,tau", sorted(THINNESS_GOLDEN.items()))
def test_cycle_thinness_golden(n: int, tau: int) -> None:
    value, _ = interval_thinness(cycle_graph(n))
    assert value == tau
    assert value == brute_thinness(cycle_graph(n))


def test_king_grid_thinness() -> None:
    value, w = interval_thinness(king_grid(3, 3))
    assert value == 2
    g = king_grid(3, 3)
    dm = apsp(g)
    sl = interval_slice(g, *w.endpoints, w.slice_index, dm=dm)
    assert set(w.pair) <= sl
    assert dm.d(*w.pair) == w.distance == value


def test_thinness_witness_members_lie_in_named_slice() -> None:
    for g in (cycle_graph(8), king_grid(3, 4), king_grid(4, 4)):
        dm = apsp(g)
        value, w = interval_thinness(g, dm=dm)
        sl = interval_slice(g, *w.endpoints, w.slice_index, dm=dm)
        assert set(w.pair) <= sl
        assert dm.d(*w.pair) == w.distance == value


def test_thinness_zero_on_block_graphs() -> None:
    for g in (path_graph(6), complete_graph(5), glued_blocks_graph()):
        value, _ = interval_thinness(g)
        assert value == 0


# ---------------------------------------------------------------------------
# randomized agreement with brute-force oracles
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=8),
    prob=st.floats(min_value=0.2, max_value=0.6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_hyperbolicity_matches_bruteforce(n: int, prob: float, seed: int) -> None:
    g = random_connected_graph(n, prob, seed)
    value, w = hyperbolicity(g)
    assert Fraction(value.doubled, 2) == brute_hyperbolicity(g)
    assert w.delta == value


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=8),
    prob=st.floats(min_value=0.2, max_value=0.6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_thinness_matches_bruteforce(n: int, prob: float, seed: int) -> None:
    g = random_connected_graph(n, prob, seed)
    dm = apsp(g)
    value, w = interval_thinness(g, dm=dm)
    assert value == brute_thinness(g)
    # the witness certifies the value: a pair of the named slice at distance tau
    assert set(w.pair) <= interval_slice(g, *w.endpoints, w.slice_index, dm=dm)
    assert dm.d(*w.pair) == w.distance == value
    if value > 0:
        assert w.endpoints[0] < w.endpoints[1]


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=9),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_gromov_product_bounds(n: int, seed: int) -> None:
    g = random_connected_graph(n, 0.4, seed)
    dm = apsp(g)
    x, y, z = seed % n, (seed // n) % n, (seed // (n * n)) % n
    p = gromov_product(dm, x, y, z)
    assert p.doubled >= 0
    assert p.doubled <= 2 * min(dm.d(x, z), dm.d(y, z))
