"""All-pairs distances and the distance-derived machinery.

The distance matrix is the workhorse of every scan in the package; it is
computed once per graph and carries one lazy cache, of power-adjacency
bitmasks, each power packed from a block of rows at once, which only the
package's one quadruple-pattern scanner (``DistanceMatrix.first_quadruple``)
reads.  Disk membership is read straight off the int16 rows where needed.

``apsp`` runs the BFS from every source at once: row v of an
n x ceil(n/64) matrix of 64-bit words holds one bit per source whose
frontier contains v, and each level ORs the rows of v's neighbours over
the graph's CSR adjacency (``Graph.reduce_neighbors``) and clears the
sources that reached v earlier.  A sparse level, one with few set words,
stores its depth in their cells alone, so a long path or cycle writes back
about 2n cells a level, not n^2.  A dense level adds the lag since the last
dense level to the cells of every unreached source, so all of those keep
one value and the two kinds of level may come in any order.  The
neighbour rows are gathered, and the bits unpacked into the matrix, at
most 4 MB at a time.

Each level also records, per source s, the vertices of level k that are
adjacent to level k + 1, one AND of the level before the frontier with the
frontier's neighbours; the far-apart pairs of the hyperbolicity scan are
read from that relation (``DistanceMatrix.far_apart_pairs``).
"""
from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .graphs import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    bit_rows,
    induced_subgraph,
)

# cap on one block of an n x n bit temporary (an _all_sources write-back,
# a power, the far-apart read), in bytes
_UNPACK_BYTES = 1 << 22
# an _all_sources level is sparse, and writes back only its frontier's set
# words, when 64 times their number is below n^2 / _SPARSE
_SPARSE = 8


class DistanceMatrix:
    """Dense exact distances plus eccentricities, diameter, radius.

    ``outward`` packs, n x ceil(n/64) little-endian 64-bit words, the BFS
    relation R[s, v] (v has a neighbour farther from s than v) in row v,
    bit s; (u, v) is far-apart exactly when neither R[u, v] nor R[v, u]
    holds.  Immutable after construction; one cache, the power rows of
    ``power_rows``, which ``band_rows`` cuts into the scanner's bands.
    """

    __slots__ = ("n", "dist", "outward", "ecc", "diam", "rad", "_power_rows")

    def __init__(self, dist: np.ndarray, outward: np.ndarray) -> None:
        self.n = int(dist.shape[0])
        self.dist = dist
        self.outward = outward
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
        v itself when lo = 0), as ``band_rows`` cuts them.  Each power is
        packed once and cached: ``dist <= ell`` a block of rows at a time,
        each block's bit temporary capped at _UNPACK_BYTES.
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

    def band_rows(self, lo: int, hi: int) -> list[int]:
        """Per-vertex bitmasks of the vertices at distance lo..hi, inclusive."""
        near = self.power_rows(hi)
        if lo <= 0:
            return [row | (1 << v) for v, row in enumerate(near)]
        if lo == 1:  # the cached rows, only read; the empty power is never packed
            return near
        return [a & ~b for a, b in zip(near, self.power_rows(lo - 1))]

    def first_quadruple(
        self,
        outer: tuple[int, int],
        side: tuple[int, int],
        inner: tuple[int, int],
        accept: Callable[[int, int, int, int], bool] | None = None,
    ) -> tuple[int, int, int, int] | None:
        """First quadruple (x, y, z, t) with d(x,z) in ``outer``, all four
        sides in ``side`` and d(y,t) in ``inner`` that ``accept``, if given,
        accepts; each range is an inclusive (lo, hi).

        Scans x ascending, then z > x, then y and t > y over the vertices
        whose distances to x and z both lie in ``side``, each by the lowest
        set bits of a band's rows (``band_rows``, one list per distinct
        range), so no pair outside a band is visited.  ``accept(x, y, z, t)``
        sees every fitting quadruple in that order; with no ``accept`` the
        first one is returned uncalled.
        """
        if max(outer[0], side[0], inner[0]) > self.diam:
            return None
        bands = {rng: self.band_rows(*rng) for rng in {outer, side, inner}}
        outer_rows, side_rows, inner_rows = bands[outer], bands[side], bands[inner]
        for x in range(self.n):
            sx = side_rows[x]
            zs = outer_rows[x] >> (x + 1) << (x + 1)
            while zs:
                low = zs & -zs
                zs ^= low
                z = low.bit_length() - 1
                m = sx & side_rows[z]
                while m:
                    low = m & -m
                    m ^= low
                    y = low.bit_length() - 1
                    ts = m & inner_rows[y]
                    while ts:
                        t = (ts & -ts).bit_length() - 1
                        if accept is None or accept(x, y, z, t):
                            return x, y, z, t
                        ts &= ts - 1
        return None

    def far_apart_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The far-apart pairs u < v as two int32 arrays, in (u, v) order.

        Read from ``outward`` a block of rows u at a time: the block's rows
        and, for the transposed half, its columns, both only at v >= the
        block's first row, each unpacked into at most _UNPACK_BYTES cells.
        The cells with v <= u are cleared before the pairs are listed.
        """
        n = self.n
        bits = self.outward.view(np.uint8)
        step = 8 * max(1, _UNPACK_BYTES // (8 * n))
        us, vs = [], []
        for r0 in range(0, n, step):
            r1 = min(r0 + step, n)
            c0 = r0 // 8
            # near[i, j]: R holds (r0 + i, r0 + j) or (r0 + j, r0 + i)
            near = np.unpackbits(bits[r0:r1, c0:], axis=1, count=n - r0, bitorder="little")
            near |= np.unpackbits(
                bits[r0:, c0:(r1 + 7) // 8], axis=1, count=r1 - r0, bitorder="little"
            ).T
            near ^= 1
            near[:, :r1 - r0][np.tri(r1 - r0, dtype=bool)] = 0
            u, v = np.nonzero(near)
            us.append(u.astype(np.int32) + r0)
            vs.append(v.astype(np.int32) + r0)
        return np.concatenate(us), np.concatenate(vs)

    def __repr__(self) -> str:
        return f"DistanceMatrix(n={self.n}, diam={self.diam}, rad={self.rad})"


def apsp(g: Graph) -> DistanceMatrix:
    """Exact BFS distances for all pairs; rejects disconnected input.

    Distances are stored as int16, so a graph whose diameter could exceed
    its maximum (n - 1 > 32,767) is refused before the n^2 cells are
    allocated.  The BFS from every source (see the module docstring) also
    packs the relation ``DistanceMatrix.outward``.
    """
    n = g.n
    if n - 1 > np.iinfo(np.int16).max:
        raise GraphError(
            f"graph has {n} vertices; the int16 distance matrix holds "
            f"at most {np.iinfo(np.int16).max + 1}"
        )
    return DistanceMatrix(*_all_sources(g))


def _all_sources(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Distances from every source at once, one BFS level per step, and the
    packed relation ``outward`` by v.

    Row v of ``front`` packs, one bit per source, the sources whose BFS
    frontier holds v, and ``unreached`` those that have not reached v.  A
    level folds the frontier rows of v's neighbours (OR); the fold, ANDed
    with the previous frontier, marks the sources from which v has a
    farther neighbour, and with the unreached sources it is the next
    frontier, at ``depth``.  A sparse level stores ``depth`` in the
    frontier's cells alone.  A dense level adds ``depth - filled`` to the
    cells of every unreached source, ``filled`` being the value all of them
    hold, so that they then hold ``depth``.  When the levels run out, a
    source left in row 0 of ``unreached`` means the graph is disconnected.
    """
    n = g.n
    words = (n + 63) // 64
    v = np.arange(n)
    front = np.zeros((n, words), "<u8")
    front[v, v >> 6] = np.left_shift(np.uint64(1), (v & 63).astype(np.uint64))
    unreached = ~front
    prev = np.zeros_like(front)
    outward = np.zeros_like(front)
    dist = np.zeros((n, n), dtype=np.int16)
    depth = filled = 0
    # the fold needs a neighbour for every vertex; with an isolated vertex no
    # level runs, and row 0 of ``unreached`` keeps every source but 0
    levels = all(g.neighbors)
    while levels:
        fold = g.reduce_neighbors(np.bitwise_or, front)
        prev &= fold
        outward |= prev
        fold &= unreached
        count = np.count_nonzero(fold)
        if not count:
            break
        depth += 1
        lag = depth - filled
        # a sparse level leaves the lag one higher; kept under 256, it
        # multiplies the unpacked uint8 bits in place
        if lag < 255 and 64 * _SPARSE * count < n * n:
            _store_depth(dist, fold, depth)
        else:
            _add_lag(dist, unreached, lag)
            filled = depth
        unreached ^= fold
        prev, front = front, fold
    if np.unpackbits(unreached[0].view(np.uint8), count=n, bitorder="little").any():
        raise DisconnectedGraphError(
            "vertex 0 cannot reach every vertex; graph is disconnected"
        )
    return dist, outward


def _store_depth(dist: np.ndarray, fold: np.ndarray, depth: int) -> None:
    """dist[v, s] = depth for every set bit s of row v of ``fold``.  Each
    step unpacks a run of its set words, so that the step's cell indices,
    64 int64 per word, stay within _UNPACK_BYTES."""
    n, words = fold.shape
    # cell (v, s) of dist is cell 64 h + b - v pad of the flat matrix, for
    # bit b of the flat word h = v words + s // 64
    pad = 64 * words - n
    cells = dist.reshape(-1)
    flat = fold.reshape(-1)
    hits = np.flatnonzero(flat)  # on a sparse level, under n^2 / 64 bytes
    step = max(1, _UNPACK_BYTES // 512)
    for h0 in range(0, len(hits), step):
        h = hits[h0:h0 + step]
        b = np.flatnonzero(np.unpackbits(flat[h].view(np.uint8), bitorder="little"))
        h = h[b >> 6]
        cells[(h << 6) + (b & 63) - h // words * pad] = depth


def _add_lag(dist: np.ndarray, unreached: np.ndarray, lag: int) -> None:
    """dist[v, s] += lag (at most 255) for every set bit s of row v of
    ``unreached``, unpacked into at most _UNPACK_BYTES cells at a time."""
    n = dist.shape[0]
    rows = max(1, _UNPACK_BYTES // n)
    bits = unreached.view(np.uint8)
    for r0 in range(0, n, rows):
        lagged = np.unpackbits(bits[r0:r0 + rows], axis=1, count=n, bitorder="little")
        if lag > 1:
            lagged *= np.uint8(lag)
        dist[r0:r0 + rows] += lagged
        del lagged  # before the next block is unpacked


def graph_power(g: Graph, k: int, *, dm: DistanceMatrix | None = None) -> Graph:
    """k-th power: edge uv iff 0 < d(u,v) <= k."""
    if k < 1:
        raise GraphError("power exponent must be >= 1")
    dm = dm or apsp(g)
    close = (dm.dist > 0) & (dm.dist <= k)
    return Graph(
        g.n,
        np.argwhere(np.triu(close)),
        name=f"{g.name or 'G'}^{k}",
        vertex_labels=g.vertex_labels,
    )


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
