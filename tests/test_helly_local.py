"""The local Helly decider against the triple scan that builds its witness.

``is_helly`` decides with four local conditions and runs the triple scan
only on input it already rejected.  These tests keep the two independent
deciders equal on three corpora, break each condition on its own with one
small named graph, and run the decider on king grids too large for the
triple scan.
"""
from __future__ import annotations

import pytest

from hellymetric import Graph, apsp, build_obstruction, cycle_graph, is_helly, king_grid
from hellymetric import helly
from hellymetric.graphs import random_connected_graph
from hellymetric.helly import (
    _LOCAL_CONDITIONS,
    _clique_helly_fails,
    _quadrangle_violation,
    _triangle_violation,
    _triple_witness,
    _undominated_c4,
)


def local_says_helly(g: Graph) -> bool:
    dm = apsp(g)
    return not any(fails(g, dm) for fails in _LOCAL_CONDITIONS)


def triple_says_helly(g: Graph) -> bool:
    return _triple_witness(apsp(g)) is None


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
    masks = [dm.ball_bits(c.center, c.radius) for c in disks]
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


@pytest.mark.parametrize(
    "name,g,broken",
    [
        ("C5", cycle_graph(5), _triangle_violation),
        ("C6", cycle_graph(6), _quadrangle_violation),
        ("octahedron", octahedron(), _clique_helly_fails),
        ("C4", cycle_graph(4), _undominated_c4),
    ],
)
def test_each_condition_alone_rejects(name, g, broken) -> None:
    dm = apsp(g)
    assert [bool(fails(g, dm)) for fails in _LOCAL_CONDITIONS] == [
        fails is broken for fails in _LOCAL_CONDITIONS
    ], name
    chk = is_helly(g)
    assert not chk
    assert chk.counterexample == _triple_witness(dm)
    assert_certificate(g, chk.counterexample)


def test_disagreeing_deciders_raise(monkeypatch) -> None:
    monkeypatch.setattr(helly, "_triple_witness", lambda dm: None)
    with pytest.raises(RuntimeError, match="disagree"):
        is_helly(cycle_graph(5))


# ---------------------------------------------------------------------------
# inputs beyond the triple scan's reach
# ---------------------------------------------------------------------------

def test_large_king_grids_are_helly() -> None:
    assert is_helly(king_grid(12, 12))
    assert is_helly(king_grid(16, 16))
