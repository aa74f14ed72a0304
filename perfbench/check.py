"""Correctness check of one CLI command, independent of the package.

Every distance used here comes from the benchmark's own BFS over the input
edge list, and every expected value from the paper's closed forms or from
facts the corpus generator established (see ``corpus.Case``).
"""
from __future__ import annotations

import json
from typing import Any

from corpus import Case, bfs, family_hyperbolicity_doubled, family_size

CLAIMS = (
    "Thm3-window",
    "Thm4-int",
    "Thm4-half",
    "Thm5-powers",
    "Cor2-parity",
    "Cor3-equivalents",
)


class Distances:
    """BFS rows of one input, computed on demand."""

    def __init__(self, case: Case) -> None:
        self.adj = case.adj
        self.rows: dict[int, list[int]] = {}

    def __call__(self, u: int, v: int) -> int:
        if u not in self.rows:
            self.rows[u] = bfs(self.adj, u)
        return self.rows[u][v]


def _reject_float(text: str) -> Any:
    raise ValueError(f"float {text} in JSON report")


def parse_report(stdout: str) -> dict[str, Any]:
    """The JSON report that ``analyze --json -`` appends to its summary."""
    lines = stdout.splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if line.rstrip("\n") == "{")
    return json.loads(
        "".join(lines[start:]),
        parse_float=_reject_float,
        parse_constant=_reject_float,
    )


def canonical_output(command: str, stdout: str) -> str:
    """Command output with timings removed, for the run digest."""
    if command != "analyze":
        return stdout
    try:
        report = parse_report(stdout)
    except (StopIteration, ValueError):
        return stdout
    report.pop("timings_ms", None)
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def _check_analyze(case: Case, rc: int, r: dict[str, Any], need_hull: bool) -> list[str]:
    bad: list[str] = []
    d = Distances(case)
    want_rc = 0 if case.helly else 4
    if rc != want_rc:
        bad.append(f"exit code {rc}, expected {want_rc}")
    if r["is_helly"] is not case.helly:
        bad.append(f"is_helly={r['is_helly']}, expected {case.helly}")
    if (r["n"], r["m"]) != (case.n, len(case.edges)):
        bad.append(f"n, m = {r['n']}, {r['m']}")
    if case.diam_rad is not None and (r["diameter"], r["radius"]) != case.diam_rad:
        bad.append(f"diameter, radius = {r['diameter']}, {r['radius']}")

    # hyperbolicity witness: pairing sums and gap from our own distances
    h2 = r["hyperbolicity_doubled"]
    a, b, c, e = r["hyperbolicity_witness"]["quadruple"]
    sums = [d(a, b) + d(c, e), d(a, c) + d(b, e), d(a, e) + d(b, c)]
    if sums != r["hyperbolicity_witness"]["pairing_sums"]:
        bad.append(f"witness sums {r['hyperbolicity_witness']['pairing_sums']} != {sums}")
    top = sorted(sums)
    if top[2] - top[1] != h2:
        bad.append(f"witness gap {top[2] - top[1]} != 2h={h2}")

    # thinness witness: both pair vertices in slice k of I(x, y), at distance tau
    tau = r["thinness"]
    tw = r["thinness_witness"]
    (x, y), k, (u, v) = tw["endpoints"], tw["slice_index"], tw["pair"]
    dxy = d(x, y)
    for w in (u, v):
        if d(x, w) != k or d(w, y) != dxy - k:
            bad.append(f"thinness pair vertex {w} not in slice {k} of I({x},{y})")
    if not (tw["distance"] == tau == d(u, v)):
        bad.append(f"thinness {tau}, witness distance {tw['distance']}, d(u,v)={d(u, v)}")

    if case.family is not None:
        fam, fk, fl = case.family
        if case.n != family_size(fam, fk, fl):
            bad.append(f"{fam}({fk},{fl}) has {case.n} vertices")
        if h2 != family_hyperbolicity_doubled(fam, fk, fl):
            bad.append(f"{fam}({fk},{fl}): 2h={h2}, closed form "
                       f"{family_hyperbolicity_doubled(fam, fk, fl)}")

    if case.helly:
        if not (tau <= h2 <= tau + 1):
            bad.append(f"window tau <= 2h <= tau+1 fails: tau={tau}, 2h={h2}")
        cls = r["classifiers"] or {}
        routes = (cls.get("direct_doubled"), cls.get("by_obstructions_doubled"),
                  cls.get("by_thinness_doubled"))
        if routes != (h2, h2, h2) or cls.get("agree") is not True:
            bad.append(f"classifier routes {routes} disagree with 2h={h2}")
        for p in cls.get("power", []):
            if p["within"] != (h2 <= p["threshold_doubled"]):
                bad.append(f"power route wrong at threshold {p['threshold_doubled']}")
        for p in r["probes"] or []:
            if p["fired"] != (h2 > p["threshold_doubled"]):
                bad.append(f"probe wrong at threshold {p['threshold_doubled']}")
        if set((r["equivalents"] or {"": None}).values()) != {h2 <= 1}:
            bad.append(f"equivalents {r['equivalents']} with 2h={h2}")
    else:
        disks = [(q["center"], q["radius"]) for q in r["helly_counterexample"] or []]
        meet = all(
            d(c1, c2) <= r1 + r2
            for i, (c1, r1) in enumerate(disks)
            for c2, r2 in disks[i + 1:]
        )
        common = any(all(d(cc, w) <= rr for cc, rr in disks) for w in range(case.n))
        if len(disks) < 2 or not meet or common:
            bad.append(f"Helly counterexample {disks} is not a certificate")
        if r["classifiers"] is not None or r["probes"] is not None:
            bad.append("classifier routes ran on non-Helly input")

    hull = r["hull"]
    if hull is None or "skipped" in hull:
        if need_hull:
            bad.append(f"hull missing: {hull}")
    else:
        if not all(val is True for val in hull["checks"].values()):
            bad.append(f"hull checks {hull['checks']}")
        # a graph is Helly exactly when it is its own hull
        if (hull["n"] == case.n) != case.helly or hull["n"] < case.n:
            bad.append(f"hull has {hull['n']} vertices for n={case.n}")
    return bad


def _check_verify(rc: int, stdout: str) -> list[str]:
    bad = [] if rc == 0 else [f"verify exit code {rc}, expected 0"]
    seen = []
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) < 2 or parts[0] != "PASS":
            bad.append(f"verify line {line!r}")
        else:
            seen.append(parts[1])
    if tuple(seen) != CLAIMS:
        bad.append(f"verify claims {seen}")
    return bad


def check_command(
    case: Case, command: str, rc: int | None, stdout: str, *, need_hull: bool
) -> list[str]:
    """Problems found with one command's exit code and output; [] = pass."""
    if rc is None:
        return ["command raised"]
    if command == "verify":
        return _check_verify(rc, stdout)
    try:
        report = parse_report(stdout)
    except StopIteration:
        return ["no JSON report in output"]
    except ValueError as exc:
        return [f"bad JSON report: {exc}"]
    try:
        return _check_analyze(case, rc, report, need_hull)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]


def self_test(case: Case, rc: int, stdout: str, *, need_hull: bool) -> list[str]:
    """Tampered copies of a passing ``analyze`` result must fail the check.

    Returns the tamperings the checker wrongly accepted ([] = checker ok).
    """
    report = parse_report(stdout)
    missed = []
    all_pass = "".join(f"PASS {c} x\n" for c in CLAIMS)
    if check_command(case, "analyze", rc, stdout, need_hull=need_hull):
        return ["the untampered report itself"]
    if check_command(case, "verify", 0, all_pass, need_hull=need_hull):
        return ["an all-PASS verify output"]

    def dump(r: dict[str, Any]) -> str:
        return json.dumps(r, indent=2) + "\n"

    wrong_witness = json.loads(json.dumps(report))
    wrong_witness["hyperbolicity_witness"]["pairing_sums"][0] += 2
    with_float = json.loads(json.dumps(report))
    with_float["hyperbolicity_doubled"] = float(report["hyperbolicity_doubled"])
    tampered = {
        "wrong witness": ("analyze", rc, dump(wrong_witness)),
        "float in report": ("analyze", rc, dump(with_float)),
        "wrong exit code": ("analyze", 4 - rc, stdout),
        "failed claim": ("verify", 0, "".join(f"PASS {c} x\n" for c in CLAIMS[:-1])
                         + f"FAIL {CLAIMS[-1]} x\n"),
        "verify exit code": ("verify", 4, all_pass),
    }
    for label, (command, code, out) in tampered.items():
        if not check_command(case, command, code, out, need_hull=need_hull):
            missed.append(label)
    return missed
