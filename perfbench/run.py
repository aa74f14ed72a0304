"""Batch-CLI benchmark of hellymetric.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload helly_ladder --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop with a single client: each
command is an in-process call of ``hellymetric.cli.main([...])`` on an
edge-list file written during set-up, and the next command starts when the
previous one returns.  A pass runs every command of the workload once;
passes repeat, each on a copy of the inputs with freshly permuted vertex
ids, while another pass still fits in ``--seconds``.  With ``--trace 1`` passes alternate between untraced and
traced, and per-layer numbers come from the traced ones.  The last line of
stdout is one JSON object; the line before it is the run record with the
output digest.  See perfbench/README.md for the metrics.
"""
from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402

# pin every thread pool before numpy can be imported
for _var in ("HELLYMETRIC_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HELLYMETRIC_HULL_BUDGET", None)  # the program's default budget

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable  # noqa: E402

import check  # noqa: E402
import corpus  # noqa: E402
from calibrate import NOMINAL_S, Reference  # noqa: E402
from corpus import Case  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 5  # set-up repeats; setup_s is their median


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[random.Random], list[Case]]  # one pass, before relabeling
    warm_up: Callable[[random.Random], Case]
    need_hull: bool  # every input is under the hull budget by construction
    seeded_ids: bool  # does --seed pick the vertex ids, or only the order?


def _ladder_warm_up(rng: random.Random) -> Case:
    # king 2x9 is outside the ladder (q <= 8)
    return Case("warm_king_2x9", 18, corpus.king_grid(2, 9), True, ("analyze",),
                diam_rad=(8, 4))


def _gnp_warm_up(rng: random.Random) -> Case:
    while True:
        edges = corpus.connected_gnp(50, 5.0 / 49, rng)
        case = Case("warm_gnp_50", 50, edges, False, ("analyze",))
        if corpus.non_helly_certificate(case.adj, rng) is not None:
            return case


def _hull_warm_up(rng: random.Random) -> Case:
    while True:  # n = 8 is outside the corpus (n = 9..12)
        edges = corpus.gnp_edges(8, 0.3, rng)
        adj = corpus.adjacency(8, edges)
        ecc = corpus.eccentricities(adj) if edges else None
        if ecc is not None:
            return Case("warm_hull_8", 8, edges, corpus.helly_bruteforce(8, adj),
                        ("analyze",), diam_rad=(max(ecc), min(ecc)), adj=adj)


WORKLOADS = {
    "helly_ladder": Workload(lambda rng: corpus.helly_ladder_shapes(), _ladder_warm_up,
                             need_hull=False, seeded_ids=False),
    "gnp_scan": Workload(corpus.gnp_scan_cases, _gnp_warm_up, need_hull=False,
                         seeded_ids=True),
    # hull enumeration cost depends on the vertex ids by up to 15% per input
    "hull_small": Workload(corpus.hull_small_cases, _hull_warm_up, need_hull=True,
                           seeded_ids=False),
}


@dataclass
class Outcome:
    """Latencies and check results of one pass."""

    traced: bool
    keys: list[tuple[int, str]] = field(default_factory=list)  # (graph, command)
    wall: list[float] = field(default_factory=list)  # seconds as measured
    scaled: list[float] = field(default_factory=list)  # calibrated seconds
    failures: list[str] = field(default_factory=list)


def _argv(command: str, path: Path) -> list[str]:
    if command == "analyze":
        return ["analyze", str(path), "--json", "-", "--threads", "1"]
    return [command, str(path)]


def run_command(main: Callable[[list[str]], int], argv: list[str]) -> tuple[int | None, str, float]:
    """One timed in-process CLI call with stdout and stderr held in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc: int | None = main(argv)
        except Exception as exc:  # a crash is a failed command, not a failed run
            rc = None
            err.write(f"{type(exc).__name__}: {exc}\n")
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), dt


def pass_inputs(
    wl: Workload, base: list[Case], name: str, seed: int, p: int
) -> list[tuple[int, Case]]:
    """Pass ``p``: the workload's graphs, in a shuffled order and with vertex
    ids freshly permuted, each with its index in ``base``.  No file repeats
    within a run, every pass has the same graphs, and the slowest commands
    are spread over the pass, so one slow stretch of the machine does not
    hit all of them at once."""
    order = list(range(len(base)))
    random.Random(f"{name}:{seed}:order:{p}").shuffle(order)
    ids = random.Random(f"{name}:{seed if wl.seeded_ids else ''}:ids:{p}")
    relabeled = [corpus.relabel(c, ids, f"p{p}_{c.name}") for c in base]
    return [(i, relabeled[i]) for i in order]


def write_inputs(cases: list[Case], folder: Path) -> list[Path]:
    folder.mkdir(parents=True, exist_ok=True)
    paths = []
    for case in cases:
        path = folder / f"{case.name}.edges"
        path.write_text(case.edge_list_text(), encoding="utf-8")
        paths.append(path)
    return paths


def import_cli() -> Callable[[list[str]], int]:
    """Fresh import of the package from the checkout's ``src``."""
    for name in [k for k in sys.modules if k == "hellymetric" or k.startswith("hellymetric.")]:
        del sys.modules[name]
    cli = importlib.import_module("hellymetric.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"hellymetric imported from {cli.__file__}, not {SRC}")
    return cli.main


def set_up(wl: Workload, name: str, seed: int, work: Path) -> tuple[list[Case], list[Case], list[Path]]:
    """Import, generate the inputs and write the first pass, one checked
    warm-up command, and the checker's self-test on the warm-up output."""
    main = import_cli()
    # the graphs are the same for every seed: with seeded graphs the spread
    # of costs between seeds alone exceeded every bound (see README.md)
    base = wl.make_inputs(random.Random(f"{name}:corpus"))
    cases = pass_inputs(wl, base, name, seed, 0)
    paths = write_inputs([c for _, c in cases], work / "p0")
    warm = wl.warm_up(random.Random(f"{name}:warm"))
    (wpath,) = write_inputs([warm], work / "warm")
    rc, out, _ = run_command(main, _argv("analyze", wpath))
    missed = check.self_test(warm, rc, out, need_hull=wl.need_hull)
    if missed:
        raise RuntimeError(f"checker self-test accepted: {', '.join(missed)}")
    return base, cases, paths


def run_pass(
    wl: Workload,
    cases: list[tuple[int, Case]],
    paths: list[Path],
    digest: Any,
    tracer: Tracer | None,
    ref: Reference,
) -> Outcome:
    result = Outcome(traced=tracer is not None)
    gc.collect()
    refs = [ref.seconds()]  # refs[i] and refs[i + 1] bracket command i
    for (index, case), path in zip(cases, paths):
        for command in case.commands:
            if tracer is not None:
                tracer.request += 1
                tracer.install()
            main = sys.modules["hellymetric.cli"].main  # the wrapper when traced
            rc, out, dt = run_command(main, _argv(command, path))
            if tracer is not None:
                tracer.uninstall()
            gc.collect()
            refs.append(ref.seconds())
            result.keys.append((index, command))
            result.wall.append(dt)
            problems = check.check_command(case, command, rc, out, need_hull=wl.need_hull)
            if problems:
                result.failures.append(f"{command} {case.name}: {'; '.join(problems)}")
            digest.update(f"{command} {case.name} {rc}\n".encode())
            digest.update(check.canonical_output(command, out).encode())
    # the machine's speed during command i: the median of the two kernel
    # runs on each side of it, so one disturbed kernel run does not count
    result.scaled = [
        dt * NOMINAL_S / statistics.median(refs[max(i - 1, 0): i + 3])
        for i, dt in enumerate(result.wall)
    ]
    return result


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, with the Beta((n+1)q,
    (n+1)(1-q)) mass of each rank's interval as its weight.  It has a much
    smaller sampling spread than one or two order statistics, which matters
    for p90 when each command carries its own timing noise.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint rule inside each rank's interval
    weights = []
    for i in range(n):
        mass = 0.0
        for j in range(steps):
            t = (i + (j + 0.5) / steps) / n
            mass += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        weights.append(mass)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _by_key(o: Outcome) -> dict[tuple[int, str], float]:
    """Calibrated latencies in (graph, command) order, whatever the pass order."""
    return dict(sorted(zip(o.keys, o.scaled)))


def layer_metrics(tracer: Tracer, traced: list[Outcome], untraced: list[Outcome]) -> dict[str, Any]:
    self_s, calls = tracer.layer_totals()
    passes = len(traced)
    counts = tracer.counts
    out: dict[str, Any] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    for layer in ("cli", "report", "graphs.load", "distances.apsp", "helly.is_helly",
                  "helly.pseudo_modular", "hyperbolicity.scan", "hyperbolicity.thinness",
                  "detect.probe", "detect.power", "detect.equivalents",
                  "hull.enumerate", "hull.validate"):
        put(f"{layer}.self_ms", 1000.0 * self_s.get(layer, 0.0) / passes, "ms")
    for layer in ("helly.is_helly", "hyperbolicity.scan", "hyperbolicity.thinness",
                  "detect.probe", "detect.power", "hull.enumerate"):
        put(f"{layer}.calls", calls[layer] / passes, "count")
    put("helly.pseudo_modular.refused",
        counts["helly.pseudo_modular.raised.EnumerationBudgetError"] / passes, "count")
    put("detect.probe.fired", counts["detect.probe.fired"] / max(calls["detect.probe"], 1),
        "ratio")
    put("hull.refused", counts["hull.enumerate.raised.HullBudgetError"] / passes, "count")
    put("hull.functions", counts["hull.functions"] / passes, "count")
    # traced pass 2i+1 runs the same graphs as untraced pass 2i, command by command
    ratios = [
        t / u
        for plain, tr in zip(untraced, traced)
        for u, t in zip(_by_key(plain).values(), _by_key(tr).values())
    ]
    put("trace.overhead_pct", 100.0 * (statistics.median(ratios) - 1.0), "%")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hellymetric" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package source at {SRC}/hellymetric\n")
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        setup_times = []  # (wall, calibrated) seconds
        ref: Reference | None = None
        for i in range(SETUPS):
            t0 = PROCESS_START if i == 0 else time.perf_counter()
            base, cases, paths = set_up(wl, args.workload, args.seed, work)
            wall = time.perf_counter() - t0
            ref = ref or Reference()
            setup_times.append((wall, wall * NOMINAL_S / ref.seconds()))

        digest = hashlib.sha256()
        outcomes: list[Outcome] = []
        tracer = Tracer() if args.trace else None
        loop_start = time.perf_counter()
        p = 0
        while True:
            if p > 0:
                cases = pass_inputs(wl, base, args.workload, args.seed, p)
                paths = write_inputs([c for _, c in cases], work / f"p{p}")
            traced = tracer if args.trace and p % 2 == 1 else None
            pass_start = time.perf_counter()
            outcomes.append(run_pass(wl, cases, paths, digest, traced, ref))
            shutil.rmtree(work / f"p{p}")
            p += 1
            last = time.perf_counter() - pass_start
            # at least two passes: two untraced, or one untraced and one traced
            if p >= 2 and time.perf_counter() - loop_start + last > args.seconds:
                break
    except (ImportError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # left alone while another run still uses it

    plain = [o for o in outcomes if not o.traced]
    # a command's latency is the best of its calibrated copies, one per
    # untraced pass, which filters out bursts of noise calibration misses
    lat = [min(col) for col in zip(*(_by_key(o).values() for o in plain))]
    failures = [f for o in outcomes for f in o.failures]
    attempted = sum(len(o.wall) for o in outcomes)
    if args.trace:
        metrics = layer_metrics(tracer, [o for o in outcomes if o.traced], plain)
    else:
        metrics = {
            "batch_s": {"value": sum(lat), "unit": "s"},
            "cmd_p50_ms": {"value": 1000.0 * hd_quantile(lat, 0.5), "unit": "ms"},
            "cmd_p90_ms": {"value": 1000.0 * hd_quantile(lat, 0.9), "unit": "ms"},
            "setup_s": {"value": statistics.median(s for _, s in setup_times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
            "pass_frac": {"value": (attempted - len(failures)) / attempted, "unit": "ratio"},
        }
    for line in failures[:10]:
        sys.stderr.write(f"FAILED {line}\n")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(outcomes),
        "commands_per_pass": len(outcomes[0].wall),
        "latency_samples": len(lat),
        "latency_copies": len(plain),
        "setup_wall_s": [w for w, _ in setup_times],
        "pass_wall_s": [sum(o.wall) for o in outcomes],
        "pass_calibrated_s": [sum(o.scaled) for o in outcomes],
        "digest": digest.hexdigest(),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
