"""The local Helly decider against the vertex-triple test in ``oracles``.

``is_helly`` decides with four local conditions and answers a "no" with the
disk family of the first one that fails.  These tests keep the local
decider equal to the independent triple test on four corpora, check every
"no" as a certificate, break each condition on its own with one small named
graph, and run the decider on king grids too large for the triple test.
"""
from __future__ import annotations

import pytest

from oracles import loop_ball_bits, triple_witness

from hellymetric import (
    DiskConstraint,
    Graph,
    apsp,
    build_obstruction,
    cycle_graph,
    is_helly,
    king_grid,
)
from hellymetric.graphs import random_connected_graph
from hellymetric.helly import (
    _clique_helly_fails,
    _interval_violation,
    _undominated_c4,
)

# (a), (b'), (c), (d) in the order is_helly checks them, under the names
# the test ids below carry
CONDITIONS = {
    "_triangle_violation": lambda g, dm: _interval_violation(g, dm, 1),
    "_quadrangle_violation": lambda g, dm: _interval_violation(g, dm, 2),
    "_clique_helly_fails": _clique_helly_fails,
    "_undominated_c4": _undominated_c4,
}


def local_says_helly(g: Graph) -> bool:
    """The local verdict, with a "no" checked as a certificate."""
    chk = is_helly(g)
    if not chk:
        assert_certificate(g, chk.counterexample)
    return bool(chk)


def triple_says_helly(g: Graph) -> bool:
    return triple_witness(apsp(g)) is None


def ladder_shapes() -> list[Graph]:
    """King p x q (2 <= p <= q <= 8) and H1/H2/H3 with k <= l <= 3."""
    graphs = [king_grid(p, q) for p in range(2, 9) for q in range(p, 9)]
    for fam, lo in (("H1", 1), ("H2", 0), ("H3", 0)):
        for k in range(lo, 4):
            for l in range(k, 4):
                graphs.append(build_obstruction(fam, k, l).graph)
    return graphs


def assert_certificate(g: Graph, disks) -> None:
    """Pairwise-intersecting disks with an empty common intersection."""
    dm = apsp(g)
    masks = [loop_ball_bits(dm, c.center, c.radius) for c in disks]
    common = (1 << g.n) - 1
    for m in masks:
        common &= m
    assert common == 0
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            assert masks[i] & masks[j]


# ---------------------------------------------------------------------------
# differential: local decision == "the triple scan finds no failing triple"
# ---------------------------------------------------------------------------

def test_local_matches_triple_scan_on_atlas(atlas_graphs) -> None:
    verdicts = [local_says_helly(g) for g in atlas_graphs]
    assert verdicts == [triple_says_helly(g) for g in atlas_graphs]
    assert 100 <= sum(verdicts) <= len(verdicts) - 100


def test_local_matches_triple_scan_on_hull_corpus(hull_corpus) -> None:
    for g in hull_corpus:
        assert local_says_helly(g) == triple_says_helly(g)


def test_local_matches_triple_scan_on_ladder_shapes() -> None:
    shapes = ladder_shapes()
    assert len(shapes) == 54
    for g in shapes:
        assert local_says_helly(g) and triple_says_helly(g), g.name


def test_local_matches_triple_scan_on_random_graphs() -> None:
    verdicts = []
    for seed in range(1, 301):
        g = random_connected_graph(6 + seed % 11, 0.15 + 0.05 * (seed % 8), seed)
        local = local_says_helly(g)
        assert local == triple_says_helly(g), (seed, g.edges())
        verdicts.append(local)
    # both answers occur often enough for the comparison to mean something
    assert 30 <= sum(verdicts) <= 270


# ---------------------------------------------------------------------------
# one named graph per condition
# ---------------------------------------------------------------------------

def octahedron() -> Graph:
    """K2,2,2: every pair adjacent except the antipodal 0-1, 2-3, 4-5."""
    return Graph(6, [(a, b) for a in range(6) for b in range(a + 1, 6) if b != a + 1 or a % 2])


def unit_disks(*centers: int) -> tuple[DiskConstraint, ...]:
    return tuple(DiskConstraint(v, 1) for v in centers)


# the failing condition's disk family, which is_helly returns as its witness
WITNESS = {
    # u = 3 is at distance 2 from both ends of the edge 0-1
    "C5": (DiskConstraint(3, 1),) + unit_disks(0, 1),
    # u = 4 is at distance 2 from both ends of the path 0-1-2
    "C6": (DiskConstraint(4, 1),) + unit_disks(0, 2),
    # the extended triangle of any triangle is all of K2,2,2
    "octahedron": unit_disks(0, 1, 2, 3, 4, 5),
    "C4": unit_disks(0, 1, 2, 3),
}


@pytest.mark.parametrize(
    "name,g,broken",
    [
        ("C5", cycle_graph(5), "_triangle_violation"),
        ("C6", cycle_graph(6), "_quadrangle_violation"),
        ("octahedron", octahedron(), "_clique_helly_fails"),
        ("C4", cycle_graph(4), "_undominated_c4"),
    ],
)
def test_each_condition_alone_rejects(name, g, broken) -> None:
    dm = apsp(g)
    assert {
        cond: violation(g, dm) is not None for cond, violation in CONDITIONS.items()
    } == {cond: cond == broken for cond in CONDITIONS}, name
    chk = is_helly(g)
    assert not chk
    assert chk.counterexample == WITNESS[name]
    assert chk.pseudo_modular == (broken in ("_clique_helly_fails", "_undominated_c4"))
    assert_certificate(g, chk.counterexample)


# ---------------------------------------------------------------------------
# inputs beyond the triple scan's reach
# ---------------------------------------------------------------------------

def test_large_king_grids_are_helly() -> None:
    assert is_helly(king_grid(12, 12))
    assert is_helly(king_grid(16, 16))
