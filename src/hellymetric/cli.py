"""Command-line interface.

Exit codes, used consistently by every subcommand:

* 0 — success (analysis clean, witness found, all claims pass, ...)
* 1 — input error (unreadable file, malformed edge list, bad parameters,
  command-line argument errors; ``--help`` exits 0)
* 2 — internal inconsistency (routes that must agree disagreed, claim FAIL)
* 3 — certified absence (detect found no witness on a Helly input)
* 4 — precondition warning (non-Helly input, enumeration budget exceeded)

Environment: HELLYMETRIC_HULL_BUDGET caps hull enumeration size (an
integer >= 1; any other value exits 1 before the input is read, except under
``analyze --no-hull``, which ignores the variable).
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import NoReturn

from .detect import (
    Analysis,
    InternalInconsistencyError,
    MaterializeError,
    NotHellyError,
    ObstructionWitness,
    detect_H1,
    detect_H1_or_H3,
    detect_H2,
)
from .distances import graph_power
from .families import build_obstruction
from .graphs import (
    Graph,
    GraphError,
    king_grid,
    load_graph,
    positive_int,
    random_connected_graph,
    to_edge_list,
)
from .helly import MedianSearchError
from .hull import HullBudgetError, hull, resolve_budget
from .report import (
    build_analysis,
    family_to_dot,
    graph_to_dot,
    report_to_dict,
    verify_claims,
    witness_to_dict,
)

def _positive_int(text: str) -> int:
    try:
        return positive_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _Parser(argparse.ArgumentParser):
    """An argument error is a bad parameter: exit 1, not argparse's 2."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_graph(path: str) -> Graph:
    text = Path(path).read_text(encoding="utf-8")
    return load_graph(text, name=Path(path).stem)


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args: argparse.Namespace) -> int:
    if not args.no_hull:
        resolve_budget()  # a bad HELLYMETRIC_HULL_BUDGET fails before any work
    g = _read_graph(args.path)
    report = build_analysis(g, include_hull=not args.no_hull)

    lines = [
        f"graph: {report.name}  n={report.n} m={report.m} "
        f"diameter={report.diameter} radius={report.radius}",
        f"helly: {'yes' if report.is_helly else 'no'}"
        + (
            ""
            if report.helly_counterexample is None
            else "  counterexample disks: "
            + " ".join(
                f"B({c.center},{c.radius})" for c in report.helly_counterexample
            )
        ),
        f"pseudo-modular: {'yes' if report.is_pseudo_modular else 'no'}",
        f"hyperbolicity: {report.hyperbolicity}  "
        f"quadruple={report.hyperbolicity_witness.quadruple} "
        f"pairing sums={report.hyperbolicity_witness.sums}",
        f"thinness: {report.thinness}  "
        f"endpoints={report.thinness_witness.endpoints} "
        f"slice={report.thinness_witness.slice_index} "
        f"pair={report.thinness_witness.pair} "
        f"distance={report.thinness_witness.distance}",
    ]
    routes = report.routes
    if routes is not None:
        lines.append(
            f"routes: obstructions={routes.by_obstructions} "
            f"thinness={routes.by_thinness} "
            f"agree={'yes' if routes.agree else 'NO'}"
        )
        lines.append(
            "equivalents: "
            + " ".join(f"{k}={v}" for k, v in routes.equivalents.items())
        )
        for t, w in routes.probes:
            if w is None:
                lines.append(f"probe {t}: none")
            else:
                lines.append(
                    f"probe {t}: {w.family}({w.k},{w.l}) corners={w.corners}"
                )
    else:
        lines.append("routes: skipped (input is not Helly)")
    if report.hull is not None:
        if "skipped" in report.hull:
            lines.append(f"hull: skipped ({report.hull['skipped']})")
        else:
            checks = report.hull["checks"]
            assert isinstance(checks, dict)
            lines.append(
                f"hull: n={report.hull['n']} m={report.hull['m']} "
                + " ".join(f"{k}={v}" for k, v in checks.items())
            )
    lines.append(
        "timings: "
        + " ".join(f"{k}={v}ms" for k, v in report.timings_ms.items())
    )
    sys.stdout.write("\n".join(lines) + "\n")

    if args.json is not None:
        payload = json.dumps(report_to_dict(report), indent=2) + "\n"
        _emit(payload, args.json)

    if routes is None:
        return 4
    return 0 if routes.agree else 2


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args: argparse.Namespace) -> int:
    fam = args.family
    dot = None  # a family is drawn inside its host grid, other graphs alone
    if fam in ("h1", "h2", "h3"):
        if args.k is None:
            raise ValueError(f"--family {fam} requires --k")
        l = args.l if args.l is not None else args.k
        fg = build_obstruction(fam.upper(), args.k, l)
        g = fg.graph
        if args.dot:
            dot = family_to_dot(fg)
        header = [f"corner {tag}={cidx}" for tag, cidx in zip("abcd", fg.corners)]
        header += [
            f"cell {vid} = ({s},{t}) host=({hx},{hy})"
            for vid, ((s, t), (hx, hy)) in enumerate(zip(fg.cells, fg.host_cells()))
        ]
    elif fam == "king":
        if args.p is None:
            raise ValueError("--family king requires --p (and optionally --q)")
        g = king_grid(args.p, args.q if args.q is not None else args.p)
        assert g.vertex_labels is not None
        header = [f"cell {vid} = ({lab})" for vid, lab in enumerate(g.vertex_labels)]
    else:
        # random-hull: the injective hull of a seeded random connected graph
        budget = resolve_budget()
        if args.n is None:
            raise ValueError("--family random-hull requires --n")
        base = random_connected_graph(args.n, args.prob, args.seed)
        try:
            g = hull(base, budget=budget).graph
        except HullBudgetError as exc:
            sys.stderr.write(f"hull enumeration refused: {exc}\n")
            return 4
        header = [f"base gnp(n={args.n}, prob={args.prob}, seed={args.seed})"]
    if args.dot:
        text = dot or graph_to_dot(g)
    else:
        text = to_edge_list(g, header=[f"{g.name} n={g.n} m={g.m}", *header])
    _emit(text, args.output)
    return 0


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

_DETECTORS = {
    "h1": detect_H1,
    "h2": detect_H2,
    "h1h3": detect_H1_or_H3,
    "h3": detect_H1_or_H3,
}


def _print_witness(w: ObstructionWitness, materialize_out: bool) -> None:
    sys.stdout.write(f"witness: family={w.family} k={w.k} l={w.l}\n")
    sys.stdout.write(
        "corners: "
        + " ".join(f"{tag}={v}" for tag, v in zip("xyzt", w.corners))
        + "\n"
    )
    if materialize_out:
        sys.stdout.write(
            f"materialized ({len(w.materialized)} vertices): "
            + " ".join(str(v) for v in w.materialized)
            + "\n"
        )


def cmd_detect(args: argparse.Namespace) -> int:
    a = Analysis(_read_graph(args.path))
    helly = bool(a.helly)

    witness: ObstructionWitness | None = None
    note: str | None = None
    if not helly:
        sys.stdout.write(
            "warning: input is not Helly; a found witness is still sound, "
            "but absence certifies nothing\n"
        )
    try:
        witness = _DETECTORS[args.family](a.g, args.k, dm=a.dm)
    except (MaterializeError, MedianSearchError) as exc:
        if helly:
            raise
        note = f"detector aborted on non-Helly structure: {exc}"
        sys.stdout.write(note + "\n")

    if witness is not None:
        _print_witness(witness, args.materialize)
    elif note is None:
        sys.stdout.write(
            "no witness"
            + (": certified absence at this threshold\n" if helly else "\n")
        )

    if args.json is not None:
        payload: dict[str, object] = {
            "is_helly": helly,
            "family_probe": args.family,
            "k": args.k,
            "fired": witness is not None,
            "witness": None
            if witness is None
            else witness_to_dict(witness, include_materialized=args.materialize),
            "note": note,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.json)

    if not helly:
        return 4
    return 0 if witness is not None else 3


# ---------------------------------------------------------------------------
# hull
# ---------------------------------------------------------------------------

def cmd_hull(args: argparse.Namespace) -> int:
    budget = resolve_budget()
    g = _read_graph(args.path)
    try:
        res = hull(g, budget=budget)
    except HullBudgetError as exc:
        sys.stderr.write(f"hull enumeration refused: {exc}\n")
        return 4
    hg = res.graph
    sidecar = {
        "n": hg.n,
        "functions": [list(f) for f in res.functions],
        "embedding": list(res.embedding),
    }
    header = [f"{hg.name} n={hg.n} m={hg.m}"]
    text = to_edge_list(hg, header=header)
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
        sys.stdout.write("# sidecar: " + json.dumps(sidecar) + "\n")
    else:
        Path(args.output).write_text(text, encoding="utf-8")
        Path(args.output + ".json").write_text(
            json.dumps(sidecar, indent=2) + "\n", encoding="utf-8"
        )
    return 0


# ---------------------------------------------------------------------------
# power
# ---------------------------------------------------------------------------

def cmd_power(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise ValueError("--k must be >= 1")
    g = _read_graph(args.path)
    pg = graph_power(g, args.k)
    header = [f"{g.name}^{args.k} n={pg.n} m={pg.m}"]
    _emit(to_edge_list(pg, header=header), args.output)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    g = _read_graph(args.path)
    results = verify_claims(g)
    width = max(len(r.claim) for r in results)
    for r in results:
        sys.stdout.write(f"{r.status:<4} {r.claim:<{width}}  {r.detail}\n")
    statuses = {r.status for r in results}
    if "FAIL" in statuses:
        return 2
    if "SKIP" in statuses:
        return 4
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    p = _Parser(
        prog="hellymetric",
        description="Exact hyperbolicity, obstruction, and hull analysis "
        "for Helly graphs (edge-list inputs).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run every analysis phase on a graph")
    pa.add_argument("path", help="edge-list file")
    pa.add_argument(
        "--threads",
        type=_positive_int,
        help="has no effect (the scan is serial); accepted for compatibility, "
        "at least 1",
    )
    pa.add_argument("--json", default=None, help="write a JSON report here ('-' for stdout)")
    pa.add_argument("--no-hull", action="store_true", help="skip the hull phase")
    pa.set_defaults(func=cmd_analyze)

    pg = sub.add_parser("generate", help="emit a named graph as an edge list")
    pg.add_argument(
        "--family",
        required=True,
        choices=("king", "h1", "h2", "h3", "random-hull"),
    )
    pg.add_argument("--k", type=int, default=None)
    pg.add_argument("--l", type=int, default=None)
    pg.add_argument("--p", type=int, default=None, help="king grid rows")
    pg.add_argument("--q", type=int, default=None, help="king grid columns")
    pg.add_argument("--n", type=int, default=None, help="random base graph size")
    pg.add_argument("--prob", type=float, default=0.3)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--dot", action="store_true", help="emit DOT instead")
    pg.add_argument("-o", "--output", default=None)
    pg.set_defaults(func=cmd_generate)

    pd = sub.add_parser("detect", help="run one obstruction probe")
    pd.add_argument("path")
    pd.add_argument("--family", required=True, choices=("h1", "h2", "h1h3", "h3"))
    pd.add_argument("--k", type=int, required=True)
    pd.add_argument(
        "--materialize",
        action="store_true",
        help="include the materialized vertex set in the output",
    )
    pd.add_argument("--json", default=None)
    pd.set_defaults(func=cmd_detect)

    ph = sub.add_parser("hull", help="compute the injective hull")
    ph.add_argument("path")
    ph.add_argument("-o", "--output", default=None)
    ph.set_defaults(func=cmd_hull)

    pp = sub.add_parser("power", help="emit the k-th power graph")
    pp.add_argument("path")
    pp.add_argument("--k", type=int, required=True)
    pp.add_argument("-o", "--output", default=None)
    pp.set_defaults(func=cmd_power)

    pv = sub.add_parser("verify", help="check the cross-route identities")
    pv.add_argument("path")
    pv.set_defaults(func=cmd_verify)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except (OSError, GraphError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except NotHellyError as exc:
        sys.stderr.write(f"precondition: {exc}\n")
        return 4
    except InternalInconsistencyError as exc:
        sys.stderr.write(f"internal inconsistency: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
