"""Placement of certified copies against the cell-by-cell oracle.

``detect._anchored_placement`` places a family copy from one numpy
intersection of the corner disks of every cell, in the order of each cell's
distance to its nearest corner.  ``oracles.bfs_pick_placement`` places it
one cell at a time in a hand-written breadth-first order, intersecting ball
masks per cell.  Every placement the probe sweeps and ``verify`` make must
be the oracle's, and a failing placement must raise the oracle's
MaterializeError, text and disks alike.
"""
from __future__ import annotations

import importlib
import random
import tracemalloc

import pytest

from oracles import bfs_cell_order, bfs_pick_placement, oracle_cell_dist

from hellymetric import (
    Analysis,
    Graph,
    MaterializeError,
    apsp,
    build_obstruction,
    cycle_graph,
    family_cells,
    hb_by_obstructions,
    king_grid,
)
from hellymetric.detect import _certify
from hellymetric.families import family_corner_cells
from hellymetric.graphs import random_connected_graph
from hellymetric.report import verify_claims

detect = importlib.import_module("hellymetric.detect")


def ladder_graphs() -> list[Graph]:
    """The benchmark's Helly ladder (king p x q, 2 <= p <= q <= 8, and
    H1/H2/H3 with k <= l <= 3), then H3(6) and king 12 x 12."""
    graphs = [king_grid(p, q) for p in range(2, 9) for q in range(p, 9)]
    for fam, lo in (("H1", 1), ("H2", 0), ("H3", 0)):
        for k in range(lo, 4):
            for l in range(k, 4):
                graphs.append(build_obstruction(fam, k, l).graph)
    return graphs + [build_obstruction("H3", 6).graph, king_grid(12, 12)]


@pytest.fixture
def placements(monkeypatch) -> list[tuple[tuple, object]]:
    """Every ``_anchored_placement`` call made while the test runs: its
    arguments and its placement, or the MaterializeError it raised."""
    calls: list[tuple[tuple, object]] = []
    place = detect._anchored_placement

    def recorded(*args):
        try:
            out = place(*args)
        except MaterializeError as exc:
            calls.append((args, exc))
            raise
        calls.append((args, out))
        return out

    monkeypatch.setattr(detect, "_anchored_placement", recorded)
    return calls


def assert_oracle_agrees(calls: list[tuple[tuple, object]]) -> None:
    for (g, dm, family, k, l, anchors), got in calls:
        try:
            want = bfs_pick_placement(dm, family, k, l, anchors)
        except MaterializeError as exc:
            assert isinstance(got, MaterializeError), (family, k, l, anchors)
            assert str(got) == str(exc)
            assert got.constraints == exc.constraints
        else:
            assert got == want, (family, k, l, anchors)


def test_sweeps_and_verify_place_the_oracles_copies(placements) -> None:
    for g in ladder_graphs():
        hb_by_obstructions(Analysis(g))
        verify_claims(g)
    assert len(placements) > 200
    assert {args[2] for args, _ in placements} == {"H1", "H2", "H3"}
    assert not any(isinstance(out, MaterializeError) for _, out in placements)
    assert_oracle_agrees(placements)


def test_failed_placements_raise_the_oracles_error(placements) -> None:
    with pytest.raises(MaterializeError):
        detect.detect_H1(cycle_graph(4), 0)
    for seed in range(12):
        g = random_connected_graph(10, 0.35, seed)
        for k in range(2):
            for probe in (detect.detect_H1, detect.detect_H2, detect.detect_H1_or_H3):
                try:
                    probe(g, k)
                except MaterializeError:
                    pass
    failed = [out for _, out in placements if isinstance(out, MaterializeError)]
    assert len(failed) > 20 and all(out.constraints for out in failed)
    assert_oracle_agrees(placements)


def test_perturbed_families_fail_like_the_oracle(placements) -> None:
    # a few low-id vertices hung off a family copy: the anchors either keep
    # the corner pattern or not, and a pick may fall on a hung vertex
    for fam, k, l in (("H1", 2, 2), ("H2", 1, 1), ("H2", 1, 2), ("H3", 1, 1)):
        fg = build_obstruction(fam, k, l)
        for seed in range(40):
            rng = random.Random(seed)
            extra = rng.randint(1, 3)
            n = fg.graph.n + extra
            edges = [(u + extra, v + extra) for u, v in fg.graph.edges()]
            for w in range(extra):
                edges += [(w, x) for x in rng.sample(range(n), 4) if x != w]
            g = Graph(n, edges)
            if not g.is_connected():
                continue
            anchors = tuple(c + extra for c in fg.corners)
            try:
                detect._anchored_placement(g, apsp(g), fam, k, l, anchors)
            except MaterializeError:
                pass
    failed = [out for _, out in placements if isinstance(out, MaterializeError)]
    assert {str(out).split()[0] for out in failed} == {"anchors", "no"}
    assert_oracle_agrees(placements)


@pytest.mark.parametrize(
    "family,k,l",
    [("H1", k, l) for k in range(1, 7) for l in range(1, 7)]
    + [(fam, k, k) for fam in ("H2", "H3") for k in range(7)],
)
def test_nearest_corner_order_is_breadth_first(family: str, k: int, l: int) -> None:
    corners = family_corner_cells(family, k, l)
    cells = [c for c in family_cells(family, k, l) if c not in corners]
    def nearest(c):
        return min(oracle_cell_dist(c, cc) for cc in corners)

    assert sorted(cells, key=lambda c: (nearest(c), c)) == bfs_cell_order(family, k, l)


def test_certifying_the_firing_copy_on_king_30_stays_small() -> None:
    g = king_grid(30, 30)
    a = Analysis(g)
    _, w = a.sweep[-1]
    assert w is not None and len(w.cells) > 400
    tracemalloc.start()
    try:
        copy = _certify(g, a.dm, w.family, w.k, w.l, w.corners)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert copy == w
    assert peak < 2 << 20


def test_recheck_names_the_first_pair_off_the_cell_metric(monkeypatch) -> None:
    # H1(2,2) placed on its own corners is the identity; raising the metric
    # of two non-corner cells, (1, 1) and (3, 3), leaves the corner radii and
    # the placement order as they are, so only the recheck can fail
    fg = build_obstruction("H1", 2, 2)
    cells = family_cells("H1", 2, 2)
    g, dm = fg.graph, apsp(fg.graph)
    assert detect._anchored_placement(g, dm, "H1", 2, 2, fg.corners) == {
        c: v for v, c in enumerate(cells)
    }
    i, j = cells.index((1, 1)), cells.index((3, 3))
    assert not {i, j} & set(fg.corners)
    true_metric = detect.cell_metric

    def raised(cs):
        metric = true_metric(cs)
        metric[i, j] += 1
        metric[j, i] += 1
        return metric

    monkeypatch.setattr(detect, "cell_metric", raised)
    with pytest.raises(MaterializeError) as info:
        detect._anchored_placement(g, dm, "H1", 2, 2, fg.corners)
    assert str(info.value) == (
        "materialized H1(2,2) copy is not isometric: cells (1, 1) -> 3 and "
        "(3, 3) -> 9 are at distance 2, expected 3"
    )
    assert info.value.constraints == ()
