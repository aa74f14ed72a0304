"""All-pairs distances and the distance-derived machinery.

The distance matrix is the workhorse of every scan in the package; it is
computed once per graph and carries one lazy cache, of power-adjacency
bitmasks, each power packed from a block of rows at once.  Disk membership
is read straight off the int16 rows where it is needed.

``apsp`` has two kernels.  The all-sources kernel runs the BFS from every
source at once: row v of an n x ceil(n/64) matrix of 64-bit words holds one
bit per source whose frontier contains v, each level ORs the rows of v's
neighbours over the graph's CSR adjacency (``Graph.reduce_neighbors``),
clears the sources that reached v earlier, and writes the depth into the
cells of the bits left.  A level costs about n^2 cell writes plus 2m n/64
word ORs whatever the frontier size, so it loses on long diameters and on
tiny graphs, where the per-source bitset BFS (about n^2 interpreter steps
in all) stays.  One BFS from vertex 0 gives ecc(0), the number of levels is
at most diam + 1 <= 2 ecc(0) + 1, and ``_all_sources_pays`` compares the
two costs from n, m and that bound.  The all-sources temporaries are capped:
the neighbour rows are gathered at most 4 MB at a time, and the bits are
unpacked into the matrix at most 4 MB of cells at a time.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from .graphs import DisconnectedGraphError, Graph, GraphError, induced_subgraph

# cost model of _all_sources_pays, in nanoseconds, fitted to both kernels'
# timings on 118 graphs (n 4..800) on an x86-64 VM
_PER_CELL_NS = 290
_LEVEL_NS = 10_000
_GATHER_NS = 7
_UNPACK_NS = 0.75
# cap on the n x n bit temporary of one _all_sources write-back, in bytes
_UNPACK_BYTES = 1 << 22


class DistanceMatrix:
    """Dense exact distances plus eccentricities, diameter, radius.

    Immutable after construction.  It holds one cache, the power rows of
    ``power_rows``.
    """

    __slots__ = ("n", "dist", "ecc", "diam", "rad", "_power_rows")

    def __init__(self, dist: np.ndarray) -> None:
        self.n = int(dist.shape[0])
        self.dist = dist
        self.ecc = dist.max(axis=1)
        self.diam = int(self.ecc.max())
        self.rad = int(self.ecc.min())
        self._power_rows: dict[int, list[int]] = {}

    def d(self, u: int, v: int) -> int:
        return int(self.dist[u, v])

    def power_rows(self, ell: int) -> list[int]:
        """Per-vertex bitmasks of the ell-th power's adjacency (no self-bit).

        ell = 0 gives the empty graph, so the vertices at distance lo..hi
        from v are always ``power_rows(hi)[v] & ~power_rows(lo - 1)[v]`` (plus
        v itself when lo = 0); the quadruple scanner of ``detect`` cuts its
        distance bands this way.  Each power is packed once and cached:
        ``dist <= ell`` a block of rows at a time, each block's bit temporary
        capped at _UNPACK_BYTES.
        """
        ell = max(0, min(int(ell), self.diam))
        rows = self._power_rows.get(ell)
        if rows is None:
            n = self.n
            rows = []
            step = max(1, _UNPACK_BYTES // n)
            for r0 in range(0, n, step):
                close = self.dist[r0:r0 + step] <= ell
                own = np.arange(close.shape[0])
                close[own, own + r0] = False
                rows.extend(bit_rows(close))
            self._power_rows[ell] = rows
        return rows

    def __repr__(self) -> str:
        return f"DistanceMatrix(n={self.n}, diam={self.diam}, rad={self.rad})"


def bit_rows(mask: np.ndarray) -> list[int]:
    """Row i of a 2-D boolean ``mask`` as a Python int with bit j = mask[i, j].

    One ``np.packbits`` call packs the whole mask and each row is cut from
    one bytes buffer, which is faster than converting row views one by one.
    """
    packed = np.packbits(mask, axis=1, bitorder="little")
    buf, width = packed.tobytes(), packed.shape[1]
    return [
        int.from_bytes(buf[i:i + width], "little")
        for i in range(0, width * packed.shape[0], width)
    ]


def apsp(g: Graph) -> DistanceMatrix:
    """Exact BFS distances for all pairs; rejects disconnected input.

    Distances are stored as int16, so a graph whose diameter could exceed
    its maximum (n - 1 > 32,767) is refused before the n^2 cells are
    allocated.  One BFS from vertex 0 checks connectivity and bounds the
    number of levels by 2 ecc(0) + 1; ``_all_sources_pays`` then picks the
    all-sources kernel or the per-source BFS (see the module docstring).
    """
    n = g.n
    if n - 1 > np.iinfo(np.int16).max:
        raise GraphError(
            f"graph has {n} vertices; the int16 distance matrix holds "
            f"at most {np.iinfo(np.int16).max + 1}"
        )
    first = _bfs_row(g, 0)
    if _all_sources_pays(n, g.m, 2 * max(first) + 1):
        return DistanceMatrix(_all_sources(g))
    dist = np.empty((n, n), dtype=np.int16)
    dist[0] = first
    for src in range(1, n):
        dist[src] = _bfs_row(g, src)
    return DistanceMatrix(dist)


def _bfs_row(g: Graph, src: int) -> list[int]:
    """Distances from ``src`` by a bitset BFS, one vertex at a time."""
    n = g.n
    adj = g.adj_bits
    row = [0] * n
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
    return row


def _all_sources_pays(n: int, m: int, levels: int) -> bool:
    """Is the all-sources kernel cheaper than n per-source BFS runs?

    Estimated in nanoseconds: the per-source BFS spends PER_CELL + n/2
    on each of its n^2 cells (its bitmasks grow with n); an all-sources
    level costs LEVEL plus GATHER per 64-bit word folded over the 2m
    adjacencies plus UNPACK per cell written back, and there are at most
    ``levels`` of them.
    """
    words = (n + 63) // 64
    per_source = (_PER_CELL_NS + n / 2) * n * n
    all_sources = levels * (
        _LEVEL_NS + _GATHER_NS * 2 * m * words + _UNPACK_NS * n * n
    )
    return all_sources < per_source


def _all_sources(g: Graph) -> np.ndarray:
    """Distances from every source at once, one BFS level per step.

    Row v of ``front`` packs, one bit per source, the sources whose BFS
    frontier holds v; ``reached`` packs those that have reached v.  A
    level folds the frontier rows of v's neighbours (OR), drops the
    sources already reached, and writes the depth into the cells set.
    The graph must be connected with n >= 2.
    """
    n = g.n
    words = (n + 63) // 64
    v = np.arange(n)
    front = np.zeros((n, words), "<u8")
    front[v, v >> 6] = np.left_shift(np.uint64(1), (v & 63).astype(np.uint64))
    reached = front.copy()
    dist = np.zeros((n, n), dtype=np.int16)
    # rows of ``dist`` unpacked at once, so the n x n bit temporary is capped
    rows = max(1, _UNPACK_BYTES // n)
    depth = 0
    while True:
        front = g.reduce_neighbors(np.bitwise_or, front)
        front &= ~reached
        if not front.any():
            return dist
        reached |= front
        depth += 1
        bits = front.view(np.uint8)
        for r0 in range(0, n, rows):
            np.putmask(
                dist[r0:r0 + rows],
                np.unpackbits(bits[r0:r0 + rows], axis=1, count=n, bitorder="little"),
                depth,
            )


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
    # the first split pair in row-major order is vs[0] and the lowest vertex
    # vs[0] does not reach; j == len(vs) when the subgraph is connected
    reach = sub.component_bits()
    j = ((reach + 1) & ~reach).bit_length() - 1
    if j < len(vs):
        return False, (vs[0], vs[j])
    sub_dm = apsp(sub)
    host = dm.dist[np.ix_(vs, vs)].astype(np.int64)
    inner = sub_dm.dist.astype(np.int64)
    bad = np.argwhere(inner != host)
    if bad.size:
        i, j = int(bad[0][0]), int(bad[0][1])
        return False, (vs[i], vs[j])
    return True, None
