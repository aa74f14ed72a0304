"""Obstruction family builders, structure, validation, and containment."""
from __future__ import annotations

import numpy as np
import pytest

from hellymetric import (
    FamilyValidationError,
    HalfInt,
    build_obstruction,
    expected_corner_pattern,
    family_cells,
    family_hyperbolicity,
    family_size,
)
from hellymetric.families import cell_metric, cell_to_host, family_corner_cells
from hellymetric.report import family_to_dot

from oracles import find_isometric_embedding

SQUARE_INSTANCES = [
    ("H1", 1, 1),
    ("H1", 2, 2),
    ("H1", 3, 3),
    ("H2", 0, 0),
    ("H2", 1, 1),
    ("H2", 2, 2),
    ("H3", 0, 0),
    ("H3", 1, 1),
    ("H3", 2, 2),
]

RECT_INSTANCES = [
    ("H1", 2, 1),
    ("H1", 1, 3),
    ("H2", 1, 0),
    ("H2", 0, 2),
    ("H3", 2, 0),
    ("H3", 0, 1),
    ("H3", 1, 2),
]

CHECK_NAMES = {
    "size",
    "metric_matches_cells",
    "corner_pattern",
    "helly",
    "corner_delta",
    "hyperbolicity",
    "host_in_range",
    "host_vertices_distinct",
    "host_isometric",
    "host_edges_match",
}


@pytest.mark.parametrize("family,k,l", SQUARE_INSTANCES + RECT_INSTANCES)
def test_validate_family_all_checks_pass(family: str, k: int, l: int) -> None:
    from hellymetric import validate_family

    fg = build_obstruction(family, k, l)
    checks = validate_family(fg)
    assert set(checks) == CHECK_NAMES
    assert all(checks.values())


# ---------------------------------------------------------------------------
# closed-form counts and hyperbolicity values
# ---------------------------------------------------------------------------

def test_size_formula_matches_cell_enumeration() -> None:
    for family in ("H1", "H2", "H3"):
        lo = 1 if family == "H1" else 0
        for k in range(lo, 4):
            for l in range(lo, 4):
                cells = family_cells(family, k, l)
                assert len(cells) == family_size(family, k, l)
                assert len(set(cells)) == len(cells)
                fg = build_obstruction(family, k, l)
                assert fg.graph.n == family_size(family, k, l)


def test_size_goldens() -> None:
    assert family_size("H1", 1, 1) == 5
    assert family_size("H1", 2, 2) == 13
    assert family_size("H1", 3, 3) == 25
    assert family_size("H2", 0, 0) == 4
    assert family_size("H2", 1, 1) == 10
    assert family_size("H2", 2, 2) == 20
    assert family_size("H3", 0, 0) == 8
    assert family_size("H3", 1, 1) == 16
    assert family_size("H3", 2, 2) == 28


def test_hyperbolicity_formulas() -> None:
    assert family_hyperbolicity("H1", 2, 3) == HalfInt.from_int(2)
    assert family_hyperbolicity("H2", 2, 3) == HalfInt(5)  # 2 + 1/2
    assert family_hyperbolicity("H3", 2, 3) == HalfInt.from_int(3)
    assert family_hyperbolicity("H2", 0, 0) == HalfInt(1)


def test_corner_pattern_goldens() -> None:
    pat = expected_corner_pattern("H1", 2, 3)
    assert pat.sides == (3, 2, 3, 2)
    assert pat.diagonals == (5, 5)
    pat = expected_corner_pattern("H2", 1, 2)
    assert pat.sides == (3, 2, 3, 2)
    assert pat.diagonals == (5, 4)
    pat = expected_corner_pattern("H3", 1, 2)
    assert pat.sides == (3, 4, 3, 4)
    assert pat.diagonals == (6, 6)


# ---------------------------------------------------------------------------
# smallest members coincide with the classic named graphs
# ---------------------------------------------------------------------------

def test_smallest_h1_is_the_4_wheel() -> None:
    fg = build_obstruction("H1", 1, 1)
    g = fg.graph
    assert g.n == 5 and g.m == 8
    hubs = [v for v in range(g.n) if g.degree(v) == 4]
    assert len(hubs) == 1
    rim = [v for v in range(g.n) if v != hubs[0]]
    rim_degs = sorted(len([u for u in g.neighbors[v] if u != hubs[0]]) for v in rim)
    assert rim_degs == [2, 2, 2, 2]  # rim is a 4-cycle


def test_smallest_h2_is_the_diamond() -> None:
    g = build_obstruction("H2", 0, 0).graph
    assert g.n == 4 and g.m == 5
    assert sorted(g.degree(v) for v in range(4)) == [2, 2, 3, 3]


def test_smallest_h3_is_the_complete_4_sun() -> None:
    fg = build_obstruction("H3", 0, 0)
    g = fg.graph
    assert g.n == 8 and g.m == 14
    inner = [v for v in range(g.n) if g.degree(v) == 5]
    tips = [v for v in range(g.n) if g.degree(v) == 2]
    assert len(inner) == 4 and len(tips) == 4
    for u in inner:
        for v in inner:
            assert u == v or g.has_edge(u, v)  # inner 4 vertices form K4
    tip_edges = set()
    for t in tips:
        u, v = sorted(g.neighbors[t])
        assert g.has_edge(u, v) and u in inner and v in inner
        tip_edges.add((u, v))
    assert len(tip_edges) == 4  # each tip hangs off a distinct K4 edge


# ---------------------------------------------------------------------------
# cells, corners, host placement
# ---------------------------------------------------------------------------

def test_cell_dist_is_chebyshev_in_unrotated_coordinates() -> None:
    metric = cell_metric([(0, 0), (2, 0), (1, 1), (0, 2), (4, 2), (-1, -1), (3, 1)])
    assert metric.dtype == np.int16
    assert metric[0, 1] == metric[0, 2] == metric[0, 3] == 1
    assert metric[0, 4] == 3
    assert metric[5, 6] == 3
    for family, k, l in [*SQUARE_INSTANCES, ("H1", 2, 5), ("H2", 1, 4), ("H3", 3, 1)]:
        cells = family_cells(family, k, l)
        want = [
            [(abs(s - s2) + abs(t - t2)) // 2 for s2, t2 in cells] for s, t in cells
        ]
        assert cell_metric(cells).tolist() == want


def test_corner_cells_property_matches_module_function() -> None:
    for family, k, l in SQUARE_INSTANCES:
        fg = build_obstruction(family, k, l)
        assert fg.corner_cells == family_corner_cells(family, k, l)


RECTANGLES = {  # (s_lo, s_hi, t_lo, t_hi) of each shape in the families docstring
    "H1": lambda k, l: (0, 2 * k, 0, 2 * l),
    "H2": lambda k, l: (0, 2 * k + 1, -1, 2 * l),
    "H3": lambda k, l: (0, 2 * k + 2, -1, 2 * l + 1),
}


@pytest.mark.parametrize("family", ["H1", "H2", "H3"])
def test_the_tips_are_the_corners_outside_the_rectangle(family: str) -> None:
    lo = 1 if family == "H1" else 0
    for k in range(lo, 6):
        for l in range(k, 6):
            s_lo, s_hi, t_lo, t_hi = RECTANGLES[family](k, l)
            cells = set(family_cells(family, k, l))
            corners = set(family_corner_cells(family, k, l))

            def inside(cell):
                return s_lo <= cell[0] <= s_hi and t_lo <= cell[1] <= t_hi

            assert corners <= cells
            assert {c for c in cells if not inside(c)} == {
                c for c in corners if not inside(c)
            }
            assert {c for c in cells if inside(c)} == {
                (s, t)
                for s in range(s_lo, s_hi + 1)
                for t in range(t_lo, t_hi + 1)
                if (s - t) % 2 == 0
            }


def test_cell_index_names_a_missing_cell() -> None:
    fg = build_obstruction("H3", 0, 0)
    # below the first cell, between two cells, above the last cell
    for cell in ((-5, 0), (0, 1), (99, 99)):
        with pytest.raises(KeyError) as info:
            fg.cell_index(cell)
        assert info.value.args == (f"cell {cell} not in H3(0,0)",)


def test_cell_index_roundtrip_and_missing_cell() -> None:
    fg = build_obstruction("H2", 1, 1)
    for i, cell in enumerate(fg.cells):
        assert fg.cell_index(cell) == i
    with pytest.raises(KeyError):
        fg.cell_index((99, 99))


def test_host_dim_and_host_cells() -> None:
    fg = build_obstruction("H2", 1, 1)
    assert fg.host_dim == (5, 5)  # k + l + 3
    hc = fg.host_cells()
    assert len(hc) == fg.graph.n
    assert len(set(hc)) == len(hc)
    assert all(0 <= x < 5 and 0 <= y < 5 for x, y in hc)
    assert hc[0] == cell_to_host("H2", 1, 1, fg.cells[0])
    assert build_obstruction("H1", 2, 2).host_dim == (5, 5)  # k + l + 1
    assert build_obstruction("H3", 0, 0).host_dim == (4, 4)  # k + l + 4


def test_vertex_labels_name_the_cells() -> None:
    fg = build_obstruction("H3", 0, 0)
    labels = fg.graph.vertex_labels
    assert labels is not None
    assert labels == tuple(f"{s},{t}" for s, t in fg.cells)


# ---------------------------------------------------------------------------
# containment chain: each family sits isometrically inside the next
# ---------------------------------------------------------------------------

def shifted(cells, ds: int, dt: int) -> set[tuple[int, int]]:
    return {(s + ds, t + dt) for s, t in cells}


def test_containment_chain_by_cell_inclusion() -> None:
    # cell distance is intrinsic, so cell-set inclusion is isometric inclusion
    for m in (1, 2):
        assert shifted(family_cells("H1", m, m), 0, 0) <= set(family_cells("H2", m, m))
    for m in (0, 1, 2):
        assert shifted(family_cells("H2", m, m), 0, 0) <= set(family_cells("H3", m, m))
        assert shifted(family_cells("H2", m, m), 1, 1) <= set(
            family_cells("H1", m + 1, m + 1)
        )


def test_containment_chain_by_embedding_search() -> None:
    h1 = build_obstruction("H1", 1, 1).graph
    h2 = build_obstruction("H2", 1, 1).graph
    h3 = build_obstruction("H3", 1, 1).graph
    h1_next = build_obstruction("H1", 2, 2).graph
    assert find_isometric_embedding(h1, h2) is not None
    assert find_isometric_embedding(h2, h3) is not None
    assert find_isometric_embedding(h2, h1_next) is not None
    # and the reverse directions are impossible on size grounds alone
    assert find_isometric_embedding(h3, h2) is None


# ---------------------------------------------------------------------------
# parameter validation and diagnostics
# ---------------------------------------------------------------------------

def test_parameter_validation() -> None:
    with pytest.raises(ValueError, match="H1 requires parameters >= 1"):
        build_obstruction("H1", 0, 1)
    with pytest.raises(ValueError, match="H2 requires parameters >= 0"):
        build_obstruction("H2", -1, 0)
    with pytest.raises(ValueError, match="unknown family"):
        build_obstruction("H9", 1, 1)


def test_build_obstruction_defaults_second_parameter() -> None:
    fg = build_obstruction("H2", 1)
    assert (fg.k, fg.l) == (1, 1)


def test_validation_error_reports_check_name() -> None:
    from dataclasses import replace

    from hellymetric import validate_family

    fg = build_obstruction("H1", 1, 1)
    # corrupt the corner assignment; validation must name the failing check
    bad = replace(fg, corners=(0, 1, 2, 3))
    with pytest.raises(FamilyValidationError, match="corner_pattern"):
        validate_family(bad)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def test_family_to_dot_highlights_copy_and_corners() -> None:
    fg = build_obstruction("H1", 1, 1)
    dot = family_to_dot(fg)
    assert dot.startswith('graph "H1(1,1)"')
    assert dot.rstrip().endswith("}")
    for tag in "abcd":
        assert f'xlabel="{tag}"' in dot
    assert 'fillcolor="red"' in dot and 'fillcolor="red3"' in dot
    assert 'penwidth=2.0' in dot
    # host grid is 3x3: nine node statements with pinned positions
    assert dot.count('pos="') == 9
