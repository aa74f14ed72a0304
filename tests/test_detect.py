"""Obstruction detectors, certified materialization, and derived classifiers."""
from __future__ import annotations

import random
from dataclasses import replace

import pytest

from hellymetric import (
    Analysis,
    Graph,
    HalfInt,
    MaterializeError,
    NotHellyError,
    ObstructionWitness,
    apsp,
    build_obstruction,
    complete_graph,
    cycle_graph,
    detect_H1,
    detect_H1_or_H3,
    detect_H2,
    family_cells,
    family_hyperbolicity,
    family_size,
    half_hyperbolic_equivalents,
    hb_by_obstructions,
    hb_by_thinness,
    helly_routes,
    hull,
    hyperbolicity,
    king_grid,
    materialize,
    path_graph,
    power_characterization,
    resolve_window_quadruple,
)
from hellymetric.detect import _realizes_corner_pattern, _window_quadruple
from hellymetric.graphs import random_connected_graph
from hellymetric.report import build_analysis


def diamond():
    return build_obstruction("H2", 0, 0).graph


def sun():
    return build_obstruction("H3", 0, 0).graph


def assert_witness_isometric(g, w: ObstructionWitness) -> None:
    """The placement realizes the family cell metric inside g, exactly."""
    assert len(w.cells) == len(w.placement) == family_size(w.family, w.k, w.l)
    assert w.materialized == tuple(sorted(set(w.placement)))
    assert len(set(w.placement)) == len(w.placement)
    dm = apsp(g)
    for i, (si, ti) in enumerate(w.cells):
        for j in range(i + 1, len(w.cells)):
            sj, tj = w.cells[j]
            want = (abs(si - sj) + abs(ti - tj)) // 2
            assert dm.d(w.placement[i], w.placement[j]) == want


# ---------------------------------------------------------------------------
# single-probe golden cases
# ---------------------------------------------------------------------------

def test_diamond_fires_half_probe_at_zero() -> None:
    g = diamond()
    w = detect_H2(g, 0)
    assert w is not None
    assert (w.family, w.k, w.l) == ("H2", 0, 0)
    assert w.materialized == (0, 1, 2, 3)
    assert_witness_isometric(g, w)
    assert detect_H2(g, 1) is None
    assert detect_H1_or_H3(g, 0) is None  # hyperbolicity is only 1/2


def test_sun_fires_wide_probe_as_h3() -> None:
    g = sun()
    w = detect_H1_or_H3(g, 0)
    assert w is not None
    assert (w.family, w.k, w.l) == ("H3", 0, 0)
    assert w.materialized == tuple(range(8))
    assert_witness_isometric(g, w)
    dm = apsp(g)
    x, y, z, t = w.corners
    assert dm.d(x, z) >= 3 and dm.d(y, t) >= 3
    assert detect_H1_or_H3(g, 1) is None


def test_king_grid_inner_square_fires_h1() -> None:
    g = king_grid(3, 3)
    w = detect_H1(g, 0)
    assert w is not None
    assert (w.family, w.k, w.l) == ("H1", 1, 1)
    assert w.corners == (1, 3, 7, 5)
    assert w.materialized == (1, 3, 4, 5, 7)
    assert_witness_isometric(g, w)
    assert detect_H1(g, 1) is None  # 3x3 is too small for a side-2 square


def test_h1_family_detects_itself() -> None:
    fg = build_obstruction("H1", 2, 2)
    w = detect_H1(fg.graph, 1)
    assert w is not None
    assert (w.family, w.k, w.l) == ("H1", 2, 2)
    assert w.materialized == tuple(range(13))  # the copy is the whole graph
    assert_witness_isometric(fg.graph, w)


def test_h2_family_detects_itself_narrow() -> None:
    fg = build_obstruction("H2", 1, 1)
    g = fg.graph
    w = detect_H2(g, 1)
    assert w is not None
    assert (w.family, w.k, w.l) == ("H2", 1, 1)
    dm = apsp(g)
    x, y, z, t = w.corners
    assert (dm.d(x, y), dm.d(y, z), dm.d(z, t), dm.d(t, x)) == (2, 2, 2, 2)
    assert sorted((dm.d(x, z), dm.d(y, t))) == [3, 4]
    assert w.materialized == tuple(range(10))
    assert_witness_isometric(g, w)


def test_phase_two_window_on_h3_family() -> None:
    fg = build_obstruction("H3", 1, 1)
    w = detect_H1_or_H3(fg.graph, 1)
    assert w is not None
    assert w.family in ("H1", "H3")
    assert family_hyperbolicity(w.family, w.k, w.l) == HalfInt.from_int(2)
    assert_witness_isometric(fg.graph, w)


def test_block_graphs_never_fire() -> None:
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (5, 6)]
    g_blocks = Graph(7, edges, name="blocks")
    for g in (path_graph(8), complete_graph(5), g_blocks):
        for k in range(3):
            assert detect_H1(g, k) is None
            assert detect_H2(g, k) is None
            assert detect_H1_or_H3(g, k) is None


def test_probe_parameter_validation() -> None:
    g = king_grid(3, 3)
    for det in (detect_H1, detect_H2, detect_H1_or_H3):
        with pytest.raises(ValueError, match="probe parameter"):
            det(g, -1)
    with pytest.raises(ValueError, match="probe threshold"):
        Analysis(g).fires(-1)


# ---------------------------------------------------------------------------
# sound-only behavior on non-Helly input
# ---------------------------------------------------------------------------

def test_non_helly_scan_may_fail_with_infeasible_disks() -> None:
    g = cycle_graph(4)
    with pytest.raises(MaterializeError) as exc:
        detect_H1(g, 0)
    cons = exc.value.constraints
    assert len(cons) >= 4
    assert all(c.radius == 1 for c in cons)
    assert {c.center for c in cons} == {0, 1, 2, 3}


def test_non_helly_scan_may_simply_not_fire() -> None:
    # C5 has unique midpoints, so no probe pattern ever assembles;
    # detectors stay quiet instead of raising about Hellyness
    g = cycle_graph(5)
    for k in range(2):
        assert detect_H1(g, k) is None
        assert detect_H2(g, k) is None
        assert detect_H1_or_H3(g, k) is None


# ---------------------------------------------------------------------------
# materialize: dispatch, fixed point, and rejection
# ---------------------------------------------------------------------------

def test_materialize_is_a_fixed_point_of_detection() -> None:
    cases = [
        (diamond(), detect_H2, 0),
        (sun(), detect_H1_or_H3, 0),
        (king_grid(3, 3), detect_H1, 0),
        (king_grid(4, 4), detect_H1_or_H3, 0),
        (build_obstruction("H2", 1, 1).graph, detect_H2, 1),
        (build_obstruction("H1", 3, 3).graph, detect_H1_or_H3, 2),
        (build_obstruction("H3", 1, 1).graph, detect_H1_or_H3, 1),
    ]
    for g, det, k in cases:
        w = det(g, k)
        assert w is not None
        assert materialize(g, w) == w.materialized


def ladder_with_relabellings() -> list[Graph]:
    """King p x q (2 <= p <= q <= 8) and H1/H2/H3(k, l), k <= l <= 3, each
    also under one seeded relabelling, which changes the scans' first hits."""
    graphs = [king_grid(p, q) for p in range(2, 9) for q in range(p, 9)]
    graphs += [
        build_obstruction(fam, k, l).graph
        for fam in ("H1", "H2", "H3")
        for k in range(1 if fam == "H1" else 0, 4)
        for l in range(k, 4)
    ]
    rng = random.Random(1)
    for g in list(graphs):
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
    return graphs


def test_materialize_is_a_fixed_point_on_the_ladder() -> None:
    # every fired probe and every detect_H1 hit rebuilds to its own copy; so
    # does the resolution of each first window quadruple, which phase 1 of
    # detect_H1_or_H3 pre-empts on Helly input, and of the corners of
    # H1(k+2, k+2) at probe k, a window no scan returns first.  Together they
    # reach every certification branch: exact corners, the wide H2 variant,
    # and the window through each case of its resolution (an H1 or H2 frame
    # on a 2k+4 diagonal, two, one or no short sides, the last ending in an
    # H1 square or the pinwheel H3)
    windows = []
    for k in range(3):
        fg = build_obstruction("H1", k + 2, k + 2)
        windows.append((fg.graph, apsp(fg.graph), k, fg.corners))
    seen: set[str] = set()
    for g in ladder_with_relabellings():
        a = Analysis(g)
        dm = a.dm
        for td in range(dm.diam + 2):
            w = a.probe(td)
            if w is not None:
                assert materialize(g, w, dm=dm) == w.materialized, (g.name, td)
                exact = _realizes_corner_pattern(dm, w.family, w.k, w.l, w.corners)
                seen.add("exact" if exact else f"wide {w.family}")
        for k in range(dm.diam // 2):
            w = detect_H1(g, k, dm=dm)
            if w is not None:
                assert materialize(g, w, dm=dm) == w.materialized, (g.name, k)
            quad = _window_quadruple(dm, k)
            if quad is not None:
                windows.append((g, dm, k, quad))
    for g, dm, k, quad in windows:
        w = resolve_window_quadruple(g, k, quad, dm=dm)
        assert materialize(g, w, dm=dm) == w.materialized, (g.name, quad)
        diagonals = (dm.d(quad[0], quad[2]), dm.d(quad[1], quad[3]))
        if min(diagonals) == 2 * k + 4:
            seen.add(f"window {w.family}, H1 frame")
        elif max(diagonals) == 2 * k + 4:
            seen.add(f"window {w.family}, H2 frame")
        else:
            short = sum(dm.d(quad[i], quad[i - 1]) == k + 1 for i in range(4))
            seen.add(f"window {w.family}, {short} short")
    assert seen == {
        "exact",
        "wide H2",
        "window H1, H1 frame",
        "window H1, H2 frame",
        "window H1, 2 short",
        "window H1, 1 short",
        "window H1, 0 short",
        "window H3, 0 short",
    }


def test_materialize_wide_inner_pair_variant() -> None:
    # corners of H1(2,2) satisfy the wide H2 scan variant (all sides 2,
    # both inner-pair distances 4); the rebuilt copy is the restricted window
    fg = build_obstruction("H1", 2, 2)
    corners = (
        fg.cell_index((0, 0)),
        fg.cell_index((0, 4)),
        fg.cell_index((4, 4)),
        fg.cell_index((4, 0)),
    )
    w = ObstructionWitness("H2", 1, 1, corners, (), (), ())
    got = materialize(fg.graph, w)
    expected = tuple(
        sorted(fg.cell_index((s + 1, t + 1)) for s, t in family_cells("H2", 1, 1))
    )
    assert got == expected
    assert len(got) == family_size("H2", 1, 1) == 10


def test_materialize_rejects_corners_fitting_no_pattern() -> None:
    g = king_grid(3, 3)
    w = detect_H1(g, 0)
    assert w is not None
    fake = replace(w, corners=(0, 1, 2, 3))
    with pytest.raises(MaterializeError, match="no detection pattern"):
        materialize(g, fake)


def test_materialize_rejects_wrong_family_resolution() -> None:
    g = sun()
    w = detect_H1_or_H3(g, 0)
    assert w is not None and w.family == "H3"
    fake = replace(w, family="H1", k=1, l=1)
    with pytest.raises(MaterializeError, match="resolves to"):
        materialize(g, fake)


def test_resolve_window_rejects_out_of_window_quadruple() -> None:
    g = king_grid(3, 3)
    with pytest.raises(ValueError, match="does not fit the probe window"):
        resolve_window_quadruple(g, 0, (0, 1, 2, 3))


# ---------------------------------------------------------------------------
# derived hyperbolicity routes
# ---------------------------------------------------------------------------

def test_hb_by_obstructions_goldens() -> None:
    assert hb_by_obstructions(Analysis(diamond())) == HalfInt(1)
    assert hb_by_obstructions(Analysis(sun())) == HalfInt.from_int(1)
    king = Analysis(king_grid(3, 3))
    assert hb_by_obstructions(king) == HalfInt.from_int(1)
    assert hb_by_obstructions(Analysis(path_graph(6))) == HalfInt(0)
    assert hb_by_obstructions(Analysis(complete_graph(4))) == HalfInt(0)


@pytest.mark.parametrize(
    "family,k,l",
    [("H1", 1, 1), ("H1", 2, 2), ("H2", 0, 0), ("H2", 1, 1), ("H3", 0, 0), ("H3", 1, 1)],
)
def test_hb_routes_agree_on_families(family: str, k: int, l: int) -> None:
    g = build_obstruction(family, k, l).graph
    want = family_hyperbolicity(family, k, l)
    a = Analysis(g)
    assert hb_by_obstructions(a) == want
    assert hb_by_thinness(a) == want
    direct, _ = hyperbolicity(g)
    assert direct == want


def test_probe_log_records_descending_sweep() -> None:
    a = Analysis(diamond())
    assert hb_by_obstructions(a) == HalfInt(1)
    probes = helly_routes(a).probes
    thresholds = [thr for thr, _ in probes]
    assert thresholds == [HalfInt(2), HalfInt(1), HalfInt(0)]
    assert probes[0][1] is None and probes[1][1] is None
    assert probes[2][1] is not None  # the half-probe at 0 fires on a diamond


def test_hb_by_thinness_on_king_grids() -> None:
    king = Analysis(king_grid(3, 3))
    assert hb_by_thinness(king) == HalfInt.from_int(1)
    assert hb_by_thinness(Analysis(diamond())) == HalfInt(1)
    assert hb_by_thinness(Analysis(path_graph(5))) == HalfInt(0)


@pytest.mark.parametrize(
    "source", ["ladder", "hulls"], ids=["ladder_with_relabellings", "gnp_hulls"]
)
def test_fires_decides_what_probe_certifies(source: str) -> None:
    # the pattern scans alone against the certified copies, each from a
    # fresh context: decisions first, then copies on top of them, and the
    # other way round
    if source == "ladder":
        graphs = ladder_with_relabellings()
    else:
        graphs = [
            hull(random_connected_graph(10, 0.3, seed)).graph
            for seed in (0, 1, 3, 5, 7, 11, 16, 17, 18)
        ]
    fired = 0
    for g in graphs:
        a, b = Analysis(g), Analysis(g)
        assert a.helly
        tds = range(a.dm.diam + 2)
        decisions = [a.fires(td) for td in tds]
        assert decisions == [a.probe(td) is not None for td in tds], g.name
        assert [b.probe(td) is not None for td in tds] == decisions, g.name
        assert [b.fires(td) for td in tds] == decisions, g.name
        fired += sum(decisions)
    assert fired > len(graphs)


def test_probe_mismatches_reports_disagreeing_thresholds() -> None:
    # C5 has h = 1/2 but no probe fires on it (it is not Helly), so the
    # integer probe at 0 disagrees with h > 0
    assert Analysis(cycle_graph(5)).probe_mismatches(HalfInt(1), range(3)) == [0]


def test_probe_mismatches_is_empty_on_helly_input() -> None:
    for g in (king_grid(4, 5), sun(), build_obstruction("H2", 1, 2).graph):
        a = Analysis(g)
        hb, _ = a.hyperbolicity
        assert a.probe_mismatches(hb, range(hb.doubled + 3)) == []


def test_aggregates_reject_non_helly_input() -> None:
    g = cycle_graph(5)
    with pytest.raises(NotHellyError):
        hb_by_obstructions(Analysis(g))
    with pytest.raises(NotHellyError):
        hb_by_thinness(Analysis(g))
    with pytest.raises(NotHellyError):
        half_hyperbolic_equivalents(Analysis(g))
    with pytest.raises(NotHellyError):
        power_characterization(Analysis(g), 1)
    with pytest.raises(NotHellyError):
        helly_routes(Analysis(g))
    assert build_analysis(g, include_hull=False).routes is None


@pytest.mark.parametrize("n", [5, 8])
def test_sweep_rejects_non_helly_input(n: int) -> None:
    # on C8 the probes would raise MaterializeError; on C5 the sweep would
    # run and mean nothing
    with pytest.raises(NotHellyError):
        helly_routes(Analysis(cycle_graph(n))).probes


def test_helly_routes_match_the_routes_they_collect() -> None:
    a = Analysis(king_grid(4, 5))
    routes = helly_routes(a)
    hb, _ = a.hyperbolicity
    assert routes.agree
    assert routes.by_obstructions == hb_by_obstructions(a) == hb
    assert routes.by_thinness == hb_by_thinness(a) == hb
    assert routes.equivalents == half_hyperbolic_equivalents(a)
    assert routes.equivalents_agree
    assert routes.power == tuple(
        (HalfInt(td), power_characterization(a, HalfInt(td)))
        for td in range(hb.doubled + 3)
    )
    assert routes.power_mismatches == ()
    assert routes.analysis is a


# ---------------------------------------------------------------------------
# power-graph characterization
# ---------------------------------------------------------------------------

def test_power_characterization_goldens() -> None:
    s4 = Analysis(sun())
    assert power_characterization(s4, HalfInt(1)) is False  # h = 1 > 1/2
    assert power_characterization(s4, 1) is True
    assert power_characterization(s4, 0) is False
    h2 = Analysis(build_obstruction("H2", 1, 1).graph)  # h = 3/2
    assert power_characterization(h2, 1) is False
    assert power_characterization(h2, HalfInt(3)) is True
    dia = Analysis(diamond())
    assert power_characterization(dia, 0) is False
    assert power_characterization(dia, HalfInt(1)) is True
    assert power_characterization(Analysis(path_graph(7)), 0) is True
    with pytest.raises(ValueError, match="threshold"):
        power_characterization(Analysis(path_graph(3)), HalfInt(-1))


def test_power_characterization_monotone_in_threshold() -> None:
    a = Analysis(king_grid(3, 3))  # h = 1
    answers = [power_characterization(a, HalfInt(td)) for td in range(5)]
    assert answers == [False, False, True, True, True]
    assert answers == sorted(answers)


# ---------------------------------------------------------------------------
# half-hyperbolicity equivalents
# ---------------------------------------------------------------------------

EQUIV_KEYS = {
    "hyperbolicity_le_half",
    "no_induced_c4_or_sun_tips",
    "g_and_square_c4_free",
    "thinness_le_1_no_sun_tips",
}


def test_equivalents_all_false_above_half() -> None:
    for g in (king_grid(3, 3), sun()):
        eq = half_hyperbolic_equivalents(Analysis(g))
        assert set(eq) == EQUIV_KEYS
        assert set(eq.values()) == {False}


def test_equivalents_all_true_at_or_below_half() -> None:
    for g in (path_graph(6), complete_graph(5), diamond()):
        eq = half_hyperbolic_equivalents(Analysis(g))
        assert set(eq) == EQUIV_KEYS
        assert set(eq.values()) == {True}
