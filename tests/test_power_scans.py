"""The power route and the 4-cycle tests against the bit walks they replaced.

``detect._power_window`` and ``detect._power_split_diagonal`` are single
calls of the quadruple-pattern scanner over distance bands, and
``half_hyperbolic_equivalents`` takes the induced 4-cycles of G and G^2 from
two power windows.  The oracles ``bit_walk_power_window``,
``bit_walk_power_split_diagonal`` and ``bit_walk_c4_flags`` step through the
power rows, and through the adjacency of G and of a built G^2, one bit
position at a time.
"""
from __future__ import annotations

import importlib

import pytest

from oracles import (
    bit_walk_c4_flags,
    bit_walk_power_split_diagonal,
    bit_walk_power_window,
    pair_loop_scan_quadruples,
)
from test_helly_local import ladder_shapes

from hellymetric import (
    Analysis,
    Graph,
    HalfInt,
    apsp,
    build_obstruction,
    half_hyperbolic_equivalents,
    is_helly,
    king_grid,
    power_characterization,
)
from hellymetric.graphs import random_connected_graph

detect = importlib.import_module("hellymetric.detect")

LARGE = [king_grid(p, p) for p in (12, 20, 25)] + [
    build_obstruction(fam, k, k).graph
    for fam, lo in (("H1", 1), ("H2", 0), ("H3", 0))
    for k in range(lo, 13)
]


def assert_routes_match(graphs: list[Graph]) -> None:
    for g in graphs:
        a = Analysis(g)
        dm = a.dm
        h, _ = a.hyperbolicity
        for td in range(h.doubled + 3):
            k = td // 2
            if td % 2 == 0:
                fires = bit_walk_power_split_diagonal(dm, k)
            else:
                fires = bit_walk_power_window(
                    dm, k + 1, 2 * k + 1
                ) or bit_walk_power_window(dm, k + 2, 2 * k + 2)
            assert power_characterization(a, HalfInt(td)) == (not fires), (g.name, td)
        c4, c4_sq = bit_walk_c4_flags(g, dm)
        assert (detect._power_window(dm, 1, 1), detect._power_window(dm, 2, 2)) == (
            c4,
            c4_sq,
        ), g.name
        sun_tips = pair_loop_scan_quadruples(dm, (3, 3), (2, 2), (3, 3)) is not None
        eq = half_hyperbolic_equivalents(a)
        assert eq["no_induced_c4_or_sun_tips"] == (not c4 and not sun_tips), g.name
        assert eq["g_and_square_c4_free"] == (not c4 and not c4_sq), g.name


def test_power_route_and_c4s_match_the_bit_walks_on_the_ladder() -> None:
    assert_routes_match(ladder_shapes())


def test_power_route_and_c4s_match_the_bit_walks_on_large_inputs() -> None:
    assert_routes_match(LARGE)


@pytest.mark.parametrize("n", [50, 100, 150])
def test_power_helpers_match_the_bit_walks_on_non_helly_input(n: int) -> None:
    # the scans read distances only, so they must agree on any graph
    verdicts = set()
    for prob in (5 / (n - 1), 0.3):
        g = random_connected_graph(n, prob, n)
        dm = apsp(g)
        assert not is_helly(g, dm=dm)
        for lo in range(1, dm.diam + 1):
            for hi in range(lo, dm.diam + 1):
                got = detect._power_window(dm, lo, hi)
                assert got == bit_walk_power_window(dm, lo, hi), (g.name, lo, hi)
                verdicts.add(got)
        for k in range(dm.diam // 2 + 1):
            got = detect._power_split_diagonal(dm, k)
            assert got == bit_walk_power_split_diagonal(dm, k), (g.name, k)
            verdicts.add(got)
    assert verdicts == {False, True}
