"""Cross-route invariants on randomized Helly inputs and the hull corpus."""
from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hellymetric import (
    Analysis,
    Graph,
    HalfInt,
    HullBudgetError,
    apsp,
    build_obstruction,
    detect_H1_or_H3,
    detect_H2,
    half_hyperbolic_equivalents,
    hb_by_obstructions,
    hb_by_thinness,
    hull,
    hyperbolicity,
    interval_thinness,
    is_helly,
    materialize,
    power_characterization,
    random_connected_graph,
    validate_family,
)


@st.composite
def helly_graphs(draw) -> Graph:
    """Random Helly graphs, produced as injective hulls of random graphs."""
    n = draw(st.integers(min_value=4, max_value=6))
    prob = draw(st.floats(min_value=0.25, max_value=0.6))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    base = random_connected_graph(n, prob, seed)
    try:
        hg = hull(base).graph
    except HullBudgetError:
        assume(False)
    assume(hg.n <= 30)
    return hg


@settings(max_examples=30, deadline=None)
@given(g=helly_graphs())
def test_three_routes_agree_on_helly_graphs(g: Graph) -> None:
    a = Analysis(g)
    direct, _ = a.hyperbolicity
    assert hb_by_obstructions(a) == direct
    assert hb_by_thinness(a) == direct


@settings(max_examples=30, deadline=None)
@given(g=helly_graphs())
def test_probe_thresholds_and_materialization(g: Graph) -> None:
    dm = apsp(g)
    h, _ = hyperbolicity(g, dm=dm)
    kmax = h.floor() + 1
    half_fired = []
    wide_fired = []
    for k in range(kmax + 1):
        w2 = detect_H2(g, k, dm=dm)
        half_fired.append(w2 is not None)
        assert (w2 is not None) == (h.doubled >= 2 * k + 1)
        w13 = detect_H1_or_H3(g, k, dm=dm)
        wide_fired.append(w13 is not None)
        assert (w13 is not None) == (h.doubled >= 2 * k + 2)
        for w in (w2, w13):
            if w is not None:
                assert materialize(g, w, dm=dm) == w.materialized
    # firing is downward closed in the probe parameter
    assert half_fired == sorted(half_fired, reverse=True)
    assert wide_fired == sorted(wide_fired, reverse=True)


@settings(max_examples=30, deadline=None)
@given(g=helly_graphs())
def test_power_route_equals_direct_value(g: Graph) -> None:
    a = Analysis(g)
    h, _ = a.hyperbolicity
    answers = []
    for td in range(0, h.doubled + 3):
        within = power_characterization(a, HalfInt(td))
        assert within == (h <= HalfInt(td))
        answers.append(within)
    assert answers == sorted(answers)


@settings(max_examples=30, deadline=None)
@given(g=helly_graphs())
def test_equivalents_agree_with_direct_value(g: Graph) -> None:
    a = Analysis(g)
    h, _ = a.hyperbolicity
    eq = half_hyperbolic_equivalents(a)
    assert len(set(eq.values())) == 1
    assert next(iter(eq.values())) == (h <= HalfInt(1))


@settings(max_examples=30, deadline=None)
@given(g=helly_graphs())
def test_thinness_pins_value_within_one_parity_step(g: Graph) -> None:
    dm = apsp(g)
    h, _ = hyperbolicity(g, dm=dm)
    tau, _ = interval_thinness(g, dm=dm)
    assert tau <= h.doubled <= tau + 1
    if tau % 2 == 0:
        assert h.doubled == tau
    if h.doubled == tau + 1:
        assert tau % 2 == 1
        assert detect_H1_or_H3(g, tau // 2, dm=dm) is not None


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=7),
    prob=st.floats(min_value=0.25, max_value=0.6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_hull_embedding_is_isometric(n: int, prob: float, seed: int) -> None:
    base = random_connected_graph(n, prob, seed)
    try:
        res = hull(base)
    except HullBudgetError:
        assume(False)
    dm = apsp(base)
    hdm = apsp(res.graph)
    for u in range(base.n):
        for v in range(base.n):
            assert hdm.d(res.embedding[u], res.embedding[v]) == dm.d(u, v)


@settings(max_examples=20, deadline=None)
@given(
    family=st.sampled_from(["H1", "H2", "H3"]),
    k=st.integers(min_value=0, max_value=2),
    l=st.integers(min_value=0, max_value=2),
)
def test_validate_family_random_parameters(family: str, k: int, l: int) -> None:
    lo = 1 if family == "H1" else 0
    assume(k >= lo and l >= lo)
    checks = validate_family(build_obstruction(family, k, l))
    assert all(checks.values())


# ---------------------------------------------------------------------------
# hull corpus spot checks (the acceptance suite runs the full corpus)
# ---------------------------------------------------------------------------

def test_corpus_members_are_helly_and_self_hulled(hull_corpus) -> None:
    for g in hull_corpus[:40]:
        dm = apsp(g)
        assert is_helly(g, dm=dm)
        try:
            again = hull(g, dm=dm)
        except HullBudgetError:
            continue
        assert again.graph.n == g.n and again.graph.m == g.m


def test_corpus_routes_sample(hull_corpus) -> None:
    for g in hull_corpus[:25]:
        a = Analysis(g)
        direct, _ = a.hyperbolicity
        assert hb_by_obstructions(a) == direct
        assert hb_by_thinness(a) == direct
