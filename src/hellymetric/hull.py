"""Injective hull of a graph metric at desk scale.

The hull's points are the integer extremal functions f on V: pointwise
minimal functions with f(u) + f(v) >= d(u, v) for all pairs; minimality is
equivalent to f(u) = max_v (d(u, v) - f(v)) for every u.  Two distinct
extremal functions are adjacent in the hull exactly when they differ by at
most 1 everywhere.  Mapping v to the distance row d(v, .) embeds the
original graph isometrically; a graph is Helly iff it equals its own hull.

``extremal_functions`` finds the points by a depth-first search over the
vertices in BFS order that only reaches extremal functions: each value is
capped by the largest slack d(u, v) - f(v) it could still be tight against,
and a branch dies as soon as an assigned vertex can no longer be tight, so
every leaf is a hull point and nothing is filtered afterwards.  Its work
follows the number of hull points, not the size of the candidate box.  The
budget is unchanged: a pre-check refuses any graph whose worst-case box
prod(ecc(v) + 1) exceeds it, before the search starts.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from operator import sub

import numpy as np

from .detect import Analysis
from .distances import DistanceMatrix, apsp
from .graphs import Graph, positive_int

DEFAULT_HULL_BUDGET = 10_000_000
_BUDGET_ENV = "HELLYMETRIC_HULL_BUDGET"


class HullBudgetError(Exception):
    """The enumeration pre-check exceeded the configured budget."""


@dataclass(frozen=True)
class HullResult:
    """Hull graph, its points as integer tuples, and the embedding of V."""

    functions: tuple[tuple[int, ...], ...]
    graph: Graph
    embedding: tuple[int, ...]


def _resolve_budget(budget: int | None) -> int:
    if budget is not None:
        return int(budget)
    text = os.environ.get(_BUDGET_ENV)
    if text is None:
        return DEFAULT_HULL_BUDGET
    try:
        return positive_int(text)
    except ValueError as exc:
        raise ValueError(f"{_BUDGET_ENV}: {exc}") from None


def extremal_functions(
    g: Graph,
    *,
    dm: DistanceMatrix | None = None,
    budget: int | None = None,
) -> list[tuple[int, ...]]:
    """All integer extremal functions of the graph metric, sorted.

    Assigns f(v) vertex by vertex in BFS order, depth first.  Each
    assignment raises the lower bounds of the unassigned vertices to
    d(u, v) - f(u), and a branch dies when a bound passes ecc(v).  Write
    cur(v) for f(v) if v is assigned and for its lower bound otherwise; cur
    only grows along a branch.  Two prunes keep the search on extremal
    functions:

    * cap: f(u) is tried only up to max_v (d(u,v) - cur(v)), at most ecc(u);
    * tightness: after an assignment the branch is dropped if some assigned u
      has max_v (d(u,v) - cur(v)) < f(u).

    Neither prune loses an extremal function f, because f >= cur gives
    f(u) = max_v (d(u,v) - f(v)) <= max_v (d(u,v) - cur(v)).  Conversely a
    leaf satisfies every pair constraint by the bound propagation, so
    max_v (d(u,v) - f(v)) <= f(u), and the tightness prune gives the reverse
    inequality: every leaf is extremal, and nothing is filtered afterwards.

    Refuses to start when the worst-case search space prod(ecc(v)+1)
    exceeds the budget (override with the budget argument or the
    HELLYMETRIC_HULL_BUDGET environment variable).
    """
    dm = dm or apsp(g)
    n = g.n
    limit = _resolve_budget(budget)
    space = 1
    for e in dm.ecc:
        space *= int(e) + 1
        if space > limit:
            raise HullBudgetError(
                f"hull search space exceeds budget: prod(ecc+1) > {limit}"
            )

    order = _bfs_vertex_order(g)
    ecc = [int(dm.ecc[v]) for v in order]
    rows = dm.dist[np.ix_(order, order)].tolist()  # in search order
    leaves: list[tuple[int, ...]] = []

    def assign(pos: int, cur: list[int]) -> None:
        if pos == n:
            leaves.append(tuple(cur))
            return
        row = rows[pos]
        for val in range(cur[pos], max(map(sub, row, cur)) + 1):  # cap
            nxt = cur[:]
            nxt[pos] = val
            for q in range(pos + 1, n):
                need = row[q] - val
                if need > nxt[q]:
                    if need > ecc[q]:
                        break
                    nxt[q] = need
            else:  # every bound fits; check tightness of the assigned vertices
                if all(max(map(sub, rows[u], nxt)) >= nxt[u] for u in range(pos + 1)):
                    assign(pos + 1, nxt)

    assign(0, [0] * n)
    inv = [0] * n
    for i, v in enumerate(order):
        inv[v] = i
    return sorted(tuple(f[i] for i in inv) for f in leaves)


def _bfs_vertex_order(g: Graph) -> list[int]:
    seen = [False] * g.n
    seen[0] = True
    order = [0]
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for v in g.neighbors[u]:
            if not seen[v]:
                seen[v] = True
                order.append(v)
    return order


def hull(
    g: Graph,
    *,
    dm: DistanceMatrix | None = None,
    budget: int | None = None,
) -> HullResult:
    """Injective hull graph plus the isometric embedding of the input."""
    dm = dm or apsp(g)
    funcs = extremal_functions(g, dm=dm, budget=budget)
    index = {f: i for i, f in enumerate(funcs)}
    arr = np.array(funcs, dtype=np.int32)
    m = arr.shape[0]
    edges = []
    for i in range(m):
        diff = np.abs(arr[i + 1 :] - arr[i]).max(axis=1)
        for j in np.nonzero(diff <= 1)[0].tolist():
            edges.append((i, i + 1 + j))
    hg = Graph(m, edges, name=f"hull({g.name or 'G'})")
    embedding = []
    for v in range(g.n):
        f = tuple(int(x) for x in dm.dist[v])
        if f not in index:
            raise AssertionError(
                f"distance row of vertex {v} is not extremal; hull enumeration is broken"
            )
        embedding.append(index[f])
    return HullResult(tuple(funcs), hg, tuple(embedding))


def hull_validate(a: Analysis, *, result: HullResult | None = None) -> dict[str, bool]:
    """End-to-end hull checks on the analyzed graph; all values must be True.

    * hull_is_helly: the hull graph satisfies the disk Helly property.
    * embedding_isometric: hull distances restricted to the image equal the
      original distances.
    * hyperbolicity_preserved: hull and original have the same value.
    * covering_radius: every hull vertex is within 2h of the image, where h
      is the original hyperbolicity.
    * obstruction_decisions_match: for every half-integer threshold up to
      h+1, the probe on the hull fires exactly when h exceeds the threshold.
    """
    res = result or hull(a.g, dm=a.dm)
    ha = Analysis(res.graph)
    checks: dict[str, bool] = {}

    helly_ok = bool(ha.helly)
    checks["hull_is_helly"] = helly_ok

    emb = np.array(res.embedding, dtype=np.int64)
    checks["embedding_isometric"] = bool(
        (ha.dm.dist[np.ix_(emb, emb)] == a.dm.dist).all()
    )

    hb_g, _ = a.hyperbolicity
    hb_h, _ = ha.hyperbolicity
    checks["hyperbolicity_preserved"] = hb_g == hb_h

    cov = int(ha.dm.dist[:, emb].min(axis=1).max())
    checks["covering_radius"] = cov <= hb_g.doubled

    checks["obstruction_decisions_match"] = helly_ok and all(
        (ha.probe(td) is not None) == (hb_g.doubled > td)
        for td in range(0, hb_g.doubled + 3)
    )
    return checks
