"""Injective hull of a graph metric at desk scale.

The hull's points are the integer extremal functions f on V: pointwise
minimal functions with f(u) + f(v) >= d(u, v) for all pairs; minimality is
equivalent to f(u) = max_v (d(u, v) - f(v)) for every u.  Two distinct
extremal functions are adjacent in the hull exactly when they differ by at
most 1 everywhere.  Mapping v to the distance row d(v, .) embeds the
original graph isometrically; a graph is Helly iff it equals its own hull.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .detect import Analysis
from .distances import DistanceMatrix, apsp
from .graphs import Graph

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
    return int(os.environ.get(_BUDGET_ENV, DEFAULT_HULL_BUDGET))


def extremal_functions(
    g: Graph,
    *,
    dm: DistanceMatrix | None = None,
    budget: int | None = None,
) -> list[tuple[int, ...]]:
    """All integer extremal functions of the graph metric, sorted.

    Enumerates candidate vectors bounded below by the pairwise constraints
    and above by eccentricities, then keeps exactly the vectors satisfying
    f(u) = max_v (d(u,v) - f(v)).  Refuses to start when the worst-case
    search space prod(ecc(v)+1) exceeds the budget (override with the
    budget argument or the HELLYMETRIC_HULL_BUDGET environment variable).
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
    dist_rows = [dm._rows[v] for v in order]
    ecc = [int(dm.ecc[v]) for v in order]
    candidates: list[tuple[int, ...]] = []
    vals = [0] * n

    def assign(pos: int, lbs: list[int]) -> None:
        if pos == n:
            candidates.append(tuple(vals))
            return
        row = dist_rows[pos]
        for val in range(lbs[pos], ecc[pos] + 1):
            vals[pos] = val
            nxt = lbs[:]
            ok = True
            for q in range(pos + 1, n):
                need = row[order[q]] - val
                if need > nxt[q]:
                    if need > ecc[q]:
                        ok = False
                        break
                    nxt[q] = need
            if ok:
                assign(pos + 1, nxt)

    assign(0, [0] * n)
    if not candidates:
        return []

    # vectors are in search order; re-express in vertex order, then filter
    inv = [0] * n
    for i, v in enumerate(order):
        inv[v] = i
    arr = np.array(candidates, dtype=np.int32)[:, inv]
    dmat = dm.dist.astype(np.int32)
    keep: list[np.ndarray] = []
    for start in range(0, arr.shape[0], 1024):
        block = arr[start : start + 1024]
        # sup[m, u] = max_v (d(u, v) - f_m(v))
        sup = (dmat[None, :, :] - block[:, None, :]).max(axis=2)
        keep.append((sup == block).all(axis=1))
    mask = np.concatenate(keep)
    funcs = sorted(tuple(int(x) for x in row) for row in arr[mask])
    return funcs


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
    ha = Analysis(res.graph, threads=a.threads)
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
