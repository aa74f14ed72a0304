"""Injective hull of a graph metric at desk scale.

The hull's points are the integer extremal functions f on V: pointwise
minimal functions with f(u) + f(v) >= d(u, v) for all pairs; minimality is
equivalent to f(u) = max_v (d(u, v) - f(v)) for every u.  Two distinct
extremal functions are adjacent in the hull exactly when they differ by at
most 1 everywhere.  Mapping v to the distance row d(v, .) embeds the
original graph isometrically; a graph is Helly iff it equals its own hull.

``extremal_functions`` finds the points by a depth-first search over the
vertices in the order (distance from vertex 0, id) that only reaches
extremal functions: each value is capped by the largest slack
d(u, v) - f(v) it could still be tight against, and a branch dies as soon
as an assigned vertex can no longer be tight, so every leaf is a hull point
and nothing is filtered afterwards.  The search runs on numpy blocks of
partial functions that share a position, applying both prunes to a whole
block per step; a block is halved before any of its temporaries would pass
a fixed cell cap, so memory does not grow with the number of hull points.
Its work follows the number of hull points, not the size of the candidate
box.  The budget caps that box: a pre-check refuses any graph whose
worst-case box prod(ecc(v) + 1) exceeds it, before the search starts.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .detect import Analysis
from .distances import DistanceMatrix, apsp
from .graphs import Graph, positive_int

DEFAULT_HULL_BUDGET = 10_000_000
_BUDGET_ENV = "HELLYMETRIC_HULL_BUDGET"
_CELLS = 1 << 20  # cap on the cells of one search or edge-build temporary


class HullBudgetError(Exception):
    """The enumeration pre-check exceeded the configured budget."""


@dataclass(frozen=True)
class HullResult:
    """Hull graph, its points as integer tuples, and the embedding of V."""

    functions: tuple[tuple[int, ...], ...]
    graph: Graph
    embedding: tuple[int, ...]


def resolve_budget(budget: int | None = None) -> int:
    """The budget argument, else HELLYMETRIC_HULL_BUDGET, else the default.

    A variable that is not an integer of at least 1 raises ValueError.
    """
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

    Assigns f(v) vertex by vertex in the order (distance from vertex 0, id),
    depth first over blocks of partial functions.  Each assignment raises
    the lower bounds of the unassigned vertices to d(u, v) - f(u), and a
    partial function dies when a bound passes ecc(v).  Write cur(v) for f(v)
    if v is assigned and for its lower bound otherwise; cur only grows along
    a branch.  Two prunes keep the search on extremal functions:

    * cap: f(u) is tried only up to max_v (d(u,v) - cur(v)), at most ecc(u);
    * tightness: after an assignment the branch is dropped if some assigned u
      has max_v (d(u,v) - cur(v)) < f(u).

    Neither prune loses an extremal function f, because f >= cur gives
    f(u) = max_v (d(u,v) - f(v)) <= max_v (d(u,v) - cur(v)).  Conversely a
    leaf satisfies every pair constraint by the bound propagation, so
    max_v (d(u,v) - f(v)) <= f(u), and the tightness prune gives the reverse
    inequality: every leaf is extremal, and nothing is filtered afterwards.
    The leaves are returned sorted, so the order of the search never shows.

    Refuses to start when the worst-case search space prod(ecc(v)+1)
    exceeds the budget (override with the budget argument or the
    HELLYMETRIC_HULL_BUDGET environment variable).
    """
    dm = dm or apsp(g)
    return [tuple(f) for f in _search(g, dm, budget).tolist()]


def _search(g: Graph, dm: DistanceMatrix, budget: int | None) -> np.ndarray:
    """The extremal functions as the rows of an int32 array, in sorted order.

    Runs the budget pre-check first.  A block is a k x n array of partial
    functions that share a position: its rows hold cur in search order.
    Expanding a block at position pos repeats each row once per value from
    cur(pos) to its cap, raises the bounds of positions pos+1.., and keeps
    the rows whose bounds fit and whose assigned vertices are all still
    tight.  A block whose tightness temporary (expanded rows x (pos+1) x n)
    would pass ``_CELLS`` is halved first; a single row's is at most n^3
    cells, so every temporary is bounded whatever the number of leaves.
    """
    limit = resolve_budget(budget)
    space = 1
    for e in dm.ecc:
        space *= int(e) + 1
        if space > limit:
            raise HullBudgetError(
                f"hull search space exceeds budget: prod(ecc+1) > {limit}"
            )
    n = g.n
    order = np.argsort(dm.dist[0], kind="stable")  # (distance from 0, id)
    d = dm.dist[np.ix_(order, order)].astype(np.int32)  # in search order
    ecc = d.max(axis=1)
    leaves: list[np.ndarray] = []
    stack = [(0, np.zeros((1, n), dtype=np.int32))]
    while stack:
        pos, cur = stack.pop()
        if pos == n:
            leaves.append(cur)
            continue
        low = cur[:, pos]
        counts = np.maximum((d[pos] - cur).max(axis=1) - low + 1, 0)  # cap
        total = int(counts.sum())
        if total * (pos + 1) * n > _CELLS and len(cur) > 1:
            half = len(cur) // 2
            stack += [(pos, cur[half:]), (pos, cur[:half])]
            continue
        parent = np.repeat(np.arange(len(cur)), counts)
        first = np.cumsum(counts, dtype=np.int32) - counts
        val = low[parent] + (np.arange(total, dtype=np.int32) - first[parent])
        nxt = cur[parent]
        nxt[:, pos] = val
        tail = np.maximum(nxt[:, pos + 1:], d[pos, pos + 1:] - val[:, None])
        fits = (tail <= ecc[pos + 1:]).all(axis=1)
        nxt = nxt[fits]
        nxt[:, pos + 1:] = tail[fits]
        slack = (d[None, : pos + 1] - nxt[:, None, :]).max(axis=2)
        nxt = nxt[(slack >= nxt[:, : pos + 1]).all(axis=1)]  # tightness
        if len(nxt):
            stack.append((pos + 1, nxt))
    funcs = np.concatenate(leaves)[:, np.argsort(order)]  # in vertex order
    return funcs[np.lexsort(funcs.T[::-1])]


def hull(
    g: Graph,
    *,
    dm: DistanceMatrix | None = None,
    budget: int | None = None,
) -> HullResult:
    """Injective hull graph plus the isometric embedding of the input.

    Two points are adjacent when they differ by at most 1 everywhere.  The
    edges are found a block of rows at a time, against the later points
    only, so each temporary stays under ``_CELLS`` cells (for n <= _CELLS)
    and the edges come out in row-major order i < j.
    """
    dm = dm or apsp(g)
    arr = _search(g, dm, budget)
    funcs = [tuple(f) for f in arr.tolist()]
    index = {f: i for i, f in enumerate(funcs)}
    m, n = arr.shape
    # several rows against all columns, or one row against a tile of columns
    step = max(1, _CELLS // (m * n))
    width = max(1, _CELLS // n)
    pairs = [np.empty((0, 2), np.intp)]  # a one-point hull finds no pairs
    for i0 in range(0, m, step):
        for j0 in range(i0 + 1, m, width):
            diff = arr[i0 : i0 + step, None] - arr[None, j0 : j0 + width]
            np.abs(diff, out=diff)
            # row r is point i0 + r and column c is point j0 + c: keep i < j
            near = np.triu(diff.max(axis=2) <= 1, i0 - j0 + 1)
            pairs.append(np.argwhere(near) + (i0, j0))
    hg = Graph(m, np.concatenate(pairs), name=f"hull({g.name or 'G'})")
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

    hb_g = a.hb
    checks["hyperbolicity_preserved"] = hb_g == ha.hb

    cov = int(ha.dm.dist[:, emb].min(axis=1).max())
    checks["covering_radius"] = cov <= hb_g.doubled

    checks["obstruction_decisions_match"] = helly_ok and not ha.probe_mismatches(
        hb_g, range(hb_g.doubled + 3)
    )
    return checks
