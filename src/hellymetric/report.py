"""Whole-graph analysis reports, claim verification, and export helpers.

JSON convention: every half-integral quantity is serialized as its doubled
integer under a key ending in ``_doubled``; no floats appear anywhere, and
timings are integer milliseconds.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from .detect import (
    Analysis,
    HellyRoutes,
    ObstructionWitness,
    _equivalents_agree,
    _power_mismatches,
    _power_table,
    half_hyperbolic_equivalents,
    hb_by_thinness,
    helly_routes,
)
from .families import FamilyGraph, host_side
from .graphs import Graph
from .halfint import HalfInt
from .helly import DiskConstraint
from .hull import HullBudgetError, hull, hull_validate
from .hyperbolicity import HyperbolicityWitness, ThinnessWitness


@dataclass
class AnalysisReport:
    """Everything the batch analyzer knows about one input graph."""

    name: str
    n: int
    m: int
    diameter: int
    radius: int
    is_helly: bool
    helly_counterexample: tuple[DiskConstraint, ...] | None
    is_pseudo_modular: bool
    hyperbolicity: HalfInt
    hyperbolicity_witness: HyperbolicityWitness
    thinness: int
    thinness_witness: ThinnessWitness
    routes: HellyRoutes | None
    hull: dict[str, object] | None
    timings_ms: dict[str, int]


def _since(t0: float) -> int:
    return int((time.perf_counter() - t0) * 1000)


def build_analysis(g: Graph, *, include_hull: bool = True) -> AnalysisReport:
    """Run every analysis phase on one connected graph.

    On non-Helly input the derived classifiers, the probe sweep, and the
    equivalence panel are skipped (``routes`` is None); the direct
    hyperbolicity and thinness phases always run.  The hull phase is
    attempted unless disabled and degrades to a "skipped" note when the
    enumeration budget stops it.
    """
    timings: dict[str, int] = {}
    t0 = time.perf_counter()
    a = Analysis(g)
    timings["apsp"] = _since(t0)

    t0 = time.perf_counter()
    hc = a.helly
    timings["helly"] = _since(t0)

    t0 = time.perf_counter()
    hb, hw = a.hyperbolicity
    timings["hyperbolicity"] = _since(t0)

    t0 = time.perf_counter()
    tau, tw = a.thinness
    timings["thinness"] = _since(t0)

    t0 = time.perf_counter()
    routes = helly_routes(a) if hc else None
    timings["classifiers"] = _since(t0)

    hull_info: dict[str, object] | None = None
    t0 = time.perf_counter()
    if include_hull:
        try:
            res = hull(g, dm=a.dm)
            checks = hull_validate(a, result=res)
            hull_info = {
                "n": res.graph.n,
                "m": res.graph.m,
                "checks": checks,
            }
        except HullBudgetError as exc:
            hull_info = {"skipped": str(exc)}
    timings["hull"] = _since(t0)

    return AnalysisReport(
        name=g.name or "G",
        n=g.n,
        m=g.m,
        diameter=a.dm.diam,
        radius=a.dm.rad,
        is_helly=bool(hc),
        helly_counterexample=hc.counterexample,
        is_pseudo_modular=hc.pseudo_modular,
        hyperbolicity=hb,
        hyperbolicity_witness=hw,
        thinness=tau,
        thinness_witness=tw,
        routes=routes,
        hull=hull_info,
        timings_ms=timings,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def witness_to_dict(
    w: ObstructionWitness, *, include_materialized: bool = True
) -> dict[str, object]:
    out: dict[str, object] = {
        "family": w.family,
        "k": w.k,
        "l": w.l,
        "corners": list(w.corners),
    }
    if include_materialized:
        out["materialized"] = list(w.materialized)
        out["cells"] = [list(c) for c in w.cells]
        out["placement"] = list(w.placement)
    return out


def report_to_dict(r: AnalysisReport) -> dict[str, object]:
    """JSON-ready dict with a stable key set (absent phases stay as null)."""
    cls: dict[str, object] | None = None
    probes: list[dict[str, object]] | None = None
    if r.routes is not None:
        cls = {
            "direct_doubled": r.hyperbolicity.doubled,
            "by_obstructions_doubled": r.routes.by_obstructions.doubled,
            "by_thinness_doubled": r.routes.by_thinness.doubled,
            "power": [
                {"threshold_doubled": t.doubled, "within": within}
                for t, within in r.routes.power
            ],
            "agree": r.routes.agree,
        }
        probes = [
            {
                "threshold_doubled": t.doubled,
                "fired": w is not None,
                "witness": witness_to_dict(w) if w is not None else None,
            }
            for t, w in r.routes.probes
        ]
    return {
        "name": r.name,
        "n": r.n,
        "m": r.m,
        "diameter": r.diameter,
        "radius": r.radius,
        "is_helly": r.is_helly,
        "helly_counterexample": None
        if r.helly_counterexample is None
        else [
            {"center": c.center, "radius": c.radius}
            for c in r.helly_counterexample
        ],
        "is_pseudo_modular": r.is_pseudo_modular,
        # pseudo-modularity is always decided; the key stays for a stable key set
        "pseudo_modular_note": None,
        "hyperbolicity_doubled": r.hyperbolicity.doubled,
        "hyperbolicity_witness": {
            "quadruple": list(r.hyperbolicity_witness.quadruple),
            "pairing_sums": list(r.hyperbolicity_witness.sums),
        },
        "thinness": r.thinness,
        "thinness_witness": {
            "endpoints": list(r.thinness_witness.endpoints),
            "slice_index": r.thinness_witness.slice_index,
            "pair": list(r.thinness_witness.pair),
            "distance": r.thinness_witness.distance,
        },
        "classifiers": cls,
        "equivalents": None if r.routes is None else r.routes.equivalents,
        "probes": probes,
        "hull": r.hull,
        "timings_ms": r.timings_ms,
    }


# ---------------------------------------------------------------------------
# Claim verification
# ---------------------------------------------------------------------------

CLAIM_IDS = (
    "Thm3-window",
    "Thm4-int",
    "Thm4-half",
    "Thm5-powers",
    "Cor2-parity",
    "Cor3-equivalents",
)


@dataclass(frozen=True)
class ClaimResult:
    claim: str
    status: str  # "PASS" | "FAIL" | "SKIP"
    detail: str


def verify_claims(g: Graph) -> list[ClaimResult]:
    """Check the six cross-route identities on one Helly graph.

    Non-Helly input yields SKIP for every claim (the identities are only
    asserted for Helly graphs).
    """
    a = Analysis(g)
    if not a.helly:
        return [
            ClaimResult(cid, "SKIP", "input graph is not Helly")
            for cid in CLAIM_IDS
        ]

    hb, tau = a.hb, a.tau
    window = tau <= hb.doubled <= tau + 1
    fired_at_tau = tau % 2 == 1 and a.probe(tau) is not None
    tight = hb.doubled == tau + 1
    kmax = hb.floor() + 1
    bad = a.probe_mismatches(
        hb, [*range(0, 2 * kmax + 2, 2), *range(1, 2 * kmax + 2, 2)]
    )
    # the mismatched k of the integer (even td) and the half (odd td) probes
    ks_int, ks_half = [[td // 2 for td in bad if td % 2 == p] for p in (0, 1)]
    bad_pow = _power_mismatches(_power_table(a), hb)
    th = hb_by_thinness(a)
    eq = half_hyperbolic_equivalents(a)
    checks = [
        (
            window and tight == fired_at_tau,
            f"2h={hb.doubled}, tau={tau}, odd-probe fired={fired_at_tau}",
        ),
        *(
            (not ks, f"k=0..{kmax}" + (f", mismatched at k={ks[0]}" if ks else ""))
            for ks in (ks_int, ks_half)
        ),
        (
            not bad_pow,
            f"thresholds 0..{HalfInt(hb.doubled + 2)}"
            + (f", mismatched at {bad_pow[0]}" if bad_pow else ""),
        ),
        (
            th == hb and (tau % 2 == 1 or hb.doubled == tau),
            f"thinness route gives {th}, direct {hb}, tau={tau}",
        ),
        (_equivalents_agree(eq, hb), ", ".join(f"{k}={v}" for k, v in eq.items())),
    ]
    return [
        ClaimResult(cid, "PASS" if holds else "FAIL", detail)
        for cid, (holds, detail) in zip(CLAIM_IDS, checks, strict=True)
    ]


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def family_to_dot(fg: FamilyGraph) -> str:
    """Host king grid with the family copy highlighted in red.

    Host vertices carry coordinate labels and fixed positions; family cells
    are filled red (corners darker, tagged a/b/c/d) and edges between two
    family cells are drawn red and thick.
    """
    fam, k, l = fg.family, fg.k, fg.l
    side = host_side(fam, k, l)
    hosts = fg.host_cells()
    placed = set(hosts)
    corner_tag = {hosts[c]: tag for c, tag in zip(fg.corners, "abcd")}

    lines = [
        f'graph "{fam}({k},{l})" {{',
        "  node [shape=circle, fontsize=10, width=0.35, fixedsize=true];",
    ]
    for x in range(side):
        for y in range(side):
            attrs = [f'label="{x},{y}"', f'pos="{x},{y}!"']
            if (x, y) in corner_tag:
                attrs += [
                    "style=filled",
                    'fillcolor="red3"',
                    'fontcolor="white"',
                    f'xlabel="{corner_tag[(x, y)]}"',
                ]
            elif (x, y) in placed:
                attrs += ["style=filled", 'fillcolor="red"']
            lines.append(f'  v{x}_{y} [{", ".join(attrs)}];')
    for x in range(side):
        for y in range(side):
            for dx, dy in ((0, 1), (1, -1), (1, 0), (1, 1)):
                nx, ny = x + dx, y + dy
                if 0 <= nx < side and 0 <= ny < side:
                    if (x, y) in placed and (nx, ny) in placed:
                        style = ' [color="red", penwidth=2.0]'
                    else:
                        style = ' [color="gray70"]'
                    lines.append(f"  v{x}_{y} -- v{nx}_{ny}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_dot(g: Graph) -> str:
    """Plain DOT export with vertex labels."""
    name = g.name or "G"
    lines = [f'graph "{name}" {{', "  node [shape=circle, fontsize=10];"]
    for v in range(g.n):
        label = g.vertex_labels[v] if g.vertex_labels else str(v)
        lines.append(f'  v{v} [label="{label}"];')
    for u in range(g.n):
        for v in g.neighbors[u]:
            if u < v:
                lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
