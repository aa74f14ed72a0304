"""All-pairs distances and the distance-derived machinery.

The distance matrix is the workhorse of every scan in the package; it is
computed once per graph by a bitset BFS and carries lazy caches of ball
bitmasks (disk membership) and power-adjacency bitmasks.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from .graphs import DisconnectedGraphError, Graph, GraphError, induced_subgraph


class DistanceMatrix:
    """Dense exact distances plus eccentricities, diameter, radius.

    Immutable after construction; safe to share across worker threads.
    """

    __slots__ = ("n", "dist", "ecc", "diam", "rad", "_rows", "_balls", "_power_rows")

    def __init__(self, dist: np.ndarray) -> None:
        self.n = int(dist.shape[0])
        self.dist = dist
        self.ecc = dist.max(axis=1)
        self.diam = int(self.ecc.max())
        self.rad = int(self.ecc.min())
        # plain python lists give much faster scalar access than ndarray items
        self._rows: list[list[int]] = dist.tolist()
        self._balls: list[dict[int, int]] = [dict() for _ in range(self.n)]
        self._power_rows: dict[int, list[int]] = {}

    def d(self, u: int, v: int) -> int:
        return self._rows[u][v]

    def ball_bits(self, center: int, radius: int) -> int:
        """Bitmask of the disk D(center, radius); radius capped at ecc."""
        r = min(int(radius), int(self.ecc[center]))
        if r < 0:
            return 0
        cache = self._balls[center]
        mask = cache.get(r)
        if mask is None:
            mask = 0
            row = self._rows[center]
            for v in range(self.n):
                if row[v] <= r:
                    mask |= 1 << v
            cache[r] = mask
        return mask

    def power_rows(self, ell: int) -> list[int]:
        """Per-vertex bitmasks of the ell-th power's adjacency (no self-bit).

        ell = 0 gives the empty graph, which makes window algebra uniform.
        """
        ell = max(0, min(int(ell), self.diam))
        rows = self._power_rows.get(ell)
        if rows is None:
            if ell == 0:
                rows = [0] * self.n
            else:
                rows = []
                for v in range(self.n):
                    mask = self.ball_bits(v, ell) & ~(1 << v)
                    rows.append(mask)
            self._power_rows[ell] = rows
        return rows

    def __repr__(self) -> str:
        return f"DistanceMatrix(n={self.n}, diam={self.diam}, rad={self.rad})"


def apsp(g: Graph) -> DistanceMatrix:
    """Exact BFS distances for all pairs; rejects disconnected input.

    Distances are stored as int16, so a graph whose diameter could exceed
    its maximum (n - 1 > 32,767) is refused before the n^2 cells are
    allocated.
    """
    n = g.n
    if n - 1 > np.iinfo(np.int16).max:
        raise GraphError(
            f"graph has {n} vertices; the int16 distance matrix holds "
            f"at most {np.iinfo(np.int16).max + 1}"
        )
    dist = np.full((n, n), -1, dtype=np.int16)
    adj = g.adj_bits
    for src in range(n):
        row = dist[src]
        row[src] = 0
        reached = 1 << src
        frontier = reached
        depth = 0
        while frontier:
            depth += 1
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                nxt |= adj[low.bit_length() - 1]
                m ^= low
            frontier = nxt & ~reached
            reached |= frontier
            m = frontier
            while m:
                low = m & -m
                row[low.bit_length() - 1] = depth
                m ^= low
        if reached != (1 << n) - 1:
            raise DisconnectedGraphError(
                f"vertex {src} cannot reach every vertex; graph is disconnected"
            )
    return DistanceMatrix(dist)


def graph_power(g: Graph, k: int, *, dm: DistanceMatrix | None = None) -> Graph:
    """k-th power: edge uv iff 0 < d(u,v) <= k."""
    if k < 1:
        raise GraphError("power exponent must be >= 1")
    dm = dm or apsp(g)
    close = (dm.dist > 0) & (dm.dist <= k)
    us, vs = np.nonzero(np.triu(close))
    edges = list(zip(us.tolist(), vs.tolist()))
    return Graph(g.n, edges, name=f"{g.name or 'G'}^{k}", vertex_labels=g.vertex_labels)


def is_isometric(
    g: Graph,
    vertices: Iterable[int],
    *,
    dm: DistanceMatrix | None = None,
) -> tuple[bool, tuple[int, int] | None]:
    """Is the induced subgraph on ``vertices`` distance-preserving in g?

    Returns (True, None) or (False, violating pair in g's ids); a disconnected
    induced subgraph is reported as non-isometric with an unreachable pair.
    """
    vs = sorted(set(vertices))
    sub, index = induced_subgraph(g, vs)
    dm = dm or apsp(g)
    if not sub.is_connected():
        # find a pair in different components for the witness
        comp = _component_of(sub)
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                if comp[i] != comp[j]:
                    return False, (vs[i], vs[j])
    sub_dm = apsp(sub)
    host = dm.dist[np.ix_(vs, vs)].astype(np.int64)
    inner = sub_dm.dist.astype(np.int64)
    bad = np.argwhere(inner != host)
    if bad.size:
        i, j = int(bad[0][0]), int(bad[0][1])
        return False, (vs[i], vs[j])
    return True, None


def _component_of(g: Graph) -> list[int]:
    comp = [-1] * g.n
    cid = 0
    for s in range(g.n):
        if comp[s] != -1:
            continue
        stack = [s]
        comp[s] = cid
        while stack:
            u = stack.pop()
            for v in g.neighbors[u]:
                if comp[v] == -1:
                    comp[v] = cid
                    stack.append(v)
        cid += 1
    return comp

