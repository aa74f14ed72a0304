"""The local pseudo-modularity decider against the literal disk enumeration.

``is_pseudo_modular`` reads the triangle condition (a) and the quadrangle
condition (b') that ``is_helly`` also checks.  These tests keep it equal to
the cubic enumeration over distinct disks in ``oracles``, check that every
"no" carries three pairwise-intersecting disks with no common vertex, and
run it on inputs past the enumeration's size cap.
"""
from __future__ import annotations

import pytest

from oracles import EnumerationBudgetError, pseudo_modular_bruteforce
from test_helly_local import assert_certificate, ladder_shapes, octahedron

from hellymetric import Graph, apsp, cycle_graph, is_helly, is_pseudo_modular, king_grid
from hellymetric.graphs import random_connected_graph


def three_sun() -> Graph:
    """Triangle 0-1-2 with a tip on each edge: 3 on 01, 4 on 12, 5 on 02."""
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 0), (3, 1), (4, 1), (4, 2), (5, 0), (5, 2)])


def agree(g: Graph) -> bool:
    """Assert both deciders agree on g, and with the flag is_helly reports,
    checking a local "no"; the verdict."""
    dm = apsp(g)
    local = is_pseudo_modular(g, dm=dm)
    assert bool(local) == bool(pseudo_modular_bruteforce(g, dm=dm)), g.edges()
    assert is_helly(g, dm=dm).pseudo_modular == bool(local), g.edges()
    if not local:
        assert local.counterexample is not None and len(local.counterexample) == 3
        assert_certificate(g, local.counterexample)
    return bool(local)


# ---------------------------------------------------------------------------
# differential: local decision == literal enumeration over disk triples
# ---------------------------------------------------------------------------

def test_local_matches_enumeration_on_atlas(atlas_graphs) -> None:
    verdicts = [agree(g) for g in atlas_graphs]
    assert 100 <= sum(verdicts) <= len(verdicts) - 100


def test_local_matches_enumeration_on_random_graphs() -> None:
    verdicts = []
    for seed in range(1, 301):
        g = random_connected_graph(6 + seed % 11, 0.15 + 0.05 * (seed % 8), seed)
        verdicts.append(agree(g))
    # both answers occur often enough for the comparison to mean something
    assert 30 <= sum(verdicts) <= 270


def test_local_matches_enumeration_on_ladder_shapes() -> None:
    for g in ladder_shapes():
        assert agree(g), g.name


# ---------------------------------------------------------------------------
# named graphs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,g", [("C4", cycle_graph(4)), ("octahedron", octahedron())])
def test_pseudo_modular_but_not_helly(name, g) -> None:
    assert is_pseudo_modular(g), name
    assert not is_helly(g), name


@pytest.mark.parametrize(
    "name,g", [("C5", cycle_graph(5)), ("C6", cycle_graph(6)), ("3-sun", three_sun())]
)
def test_not_pseudo_modular(name, g) -> None:
    chk = is_pseudo_modular(g)
    assert not chk, name
    assert_certificate(g, chk.counterexample)


# ---------------------------------------------------------------------------
# inputs past the enumeration's cap
# ---------------------------------------------------------------------------

def test_king_grid_past_the_enumeration_cap_is_pseudo_modular() -> None:
    g = king_grid(10, 10)
    with pytest.raises(EnumerationBudgetError):
        pseudo_modular_bruteforce(g)
    assert is_pseudo_modular(g)
