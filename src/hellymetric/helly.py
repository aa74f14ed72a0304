"""Helly/pseudo-modular recognition and the common-vertex primitives.

A graph is Helly when every pairwise-intersecting family of disks has a
common vertex, and pseudo-modular when every such family of three disks has
one.  Both are decided by local conditions on a connected graph, read off
the adjacency bitsets and the distance rows:

(a) triangle condition: for every edge vw and every u with
    d(u,v) = d(u,w) = k >= 1, some common neighbour x of v and w has
    d(u,x) = k-1;
(b') quadrangle condition: for every v, w with d(v,w) = 2 and every u with
    d(u,v) = d(u,w) = k, some common neighbour x of v and w has
    d(u,x) = k-1;
(c) clique-Helly: every extended triangle T* (the vertices adjacent to at
    least two vertices of a triangle T, T included) has a vertex adjacent to
    all its other members -- Szwarcfiter, *Recognizing clique-Helly graphs*
    (1997);
(d) every induced 4-cycle has a vertex adjacent to all four of its vertices.

G is pseudo-modular iff (a) and (b') hold (Bandelt, Mulder, *Pseudo-modular
graphs*, Discrete Math. 62, 1986), and Helly iff it is pseudo-modular and
(c) and (d) hold:

* Necessity: each failure is a pairwise-intersecting disk family with empty
  intersection -- D(u,k-1), D(v,1), D(w,1) for (a) and (b'); the unit disks
  around T* for (c); the four unit disks for (d).
* Sufficiency: (a) and (b') make G weakly modular ((b') contains the
  quadrangle condition of weak modularity, which asks for x only when some
  common neighbour of v and w lies at distance k+1 from u), so its
  triangle-square complex is simply connected (Chalopin, Chepoi, Hirai,
  Osajda, *Weakly modular graphs and nonpositive curvature*, 2020).  (d)
  cones off every square, so the clique complex is simply connected too,
  and a clique-Helly graph (c) with a simply connected clique complex is
  Helly (Chalopin, Chepoi, Genevois, Hirai, Osajda, *Helly groups*, 2020).

The witness of a Helly "no" is the disk family of the first condition found
failing, in the order (a), (b'), (c), (d): three disks for (a) and (b'),
|T*| unit disks for (c), four unit disks for (d).  Exhaustive
disk-enumeration oracles and the classical vertex-triple test in the test
suite keep the decider honest on small graphs.

On the small graphs that dominate a batch (hulls of a dozen points) the
test is mostly fixed per-call cost, so each condition keeps its numpy and
interpreter steps few:

* (a) and (b') share one kernel, ``_interval_violation``, which takes the
  pairs (v, w) a block of consecutive v at a time and counts the common
  neighbours one step closer to every u with one batched matrix product per
  block.  The first block holds as many v as fit ``_FIRST_CELLS`` padded
  cells at full width, so a graph of up to 25 vertices is one block, and
  the blocks double from there.
* (c) walks Python-int bit rows with inline low-bit loops and passes over
  a triangle at once when one of its own vertices is universal for T*
  (three bit tests against the closed neighbourhoods); (d) is one call of
  the quadruple scanner ``DistanceMatrix.first_quadruple`` with a predicate.

The loops these replaced are the test oracles
``vertex_loop_interval_violation``, ``list_walk_clique_helly_fails`` and
``list_walk_undominated_c4``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distances import DistanceMatrix, apsp
from .graphs import Graph, bit_rows
from .halfint import HalfInt


# cap on the padded (v, slot, u) cells of one _interval_violation block
_BLOCK_CELLS = 1 << 18
# padded cells of the first _interval_violation block at full width n: up to
# 25 vertices take one block, and from 128 on the first block is one v
_FIRST_CELLS = 1 << 14


class MedianSearchError(Exception):
    """No median vertex/triangle exists (input is not pseudo-modular)."""


@dataclass(frozen=True)
class DiskConstraint:
    """Require d(x, center) <= radius."""

    center: int
    radius: int


@dataclass(frozen=True)
class HellyCheck:
    is_helly: bool
    counterexample: tuple[DiskConstraint, ...] | None = None
    pseudo_modular: bool = True  # False only when (a) or (b') failed

    def __bool__(self) -> bool:
        return self.is_helly


@dataclass(frozen=True)
class PseudoModularCheck:
    is_pseudo_modular: bool
    counterexample: tuple[DiskConstraint, ...] | None = None

    def __bool__(self) -> bool:
        return self.is_pseudo_modular


@dataclass(frozen=True)
class MedianResult:
    """Median of a vertex triple (x,y,z).

    ``variant`` is "vertex" exactly when all three of the half-sum products
    ((y|z)_x, (x|z)_y, (x|y)_z) are integers; then ``vertex`` lies on all
    three pairwise shortest paths at those distances.  Otherwise ``triangle``
    is a pairwise-adjacent triple (x',y',z') at the floored distances, each
    edge lying on the corresponding shortest path.
    """

    variant: str  # "vertex" | "triangle"
    products: tuple[HalfInt, HalfInt, HalfInt]
    vertex: int | None = None
    triangle: tuple[int, int, int] | None = None


# ---------------------------------------------------------------------------
# Helly recognition: local test, witness from the failing condition
# ---------------------------------------------------------------------------

def is_helly(g: Graph, *, dm: DistanceMatrix | None = None) -> HellyCheck:
    """Local test (a), (b'), (c), (d) of the module docstring.

    A "no" carries the disk family of the first failing condition: it
    intersects pairwise and has an empty intersection.
    """
    dm = dm or apsp(g)
    pm = is_pseudo_modular(g, dm=dm)
    if not pm:
        return HellyCheck(False, pm.counterexample, pseudo_modular=False)
    for violation in (_clique_helly_fails, _undominated_c4):
        disks = violation(g, dm)
        if disks is not None:
            return HellyCheck(False, disks)
    return HellyCheck(True)


def _interval_violation(
    g: Graph, dm: DistanceMatrix, gap: int
) -> tuple[DiskConstraint, ...] | None:
    """For the first (u, v, w) with d(v,w) = ``gap`` and d(u,v) = d(u,w) = k
    such that no common neighbour of v and w lies at distance k-1 from u, the
    disks D(u,k-1), D(v,1), D(w,1); None if there is no such triple.

    The pairs v < w are taken a block of consecutive v at a time.  Per block,
    ``nbr`` lists the neighbours of each v, padded with v itself, and
    ``partner`` its partners w > v, whose padding ``slots`` masks out.
    ``down`` marks, per neighbour x and vertex u, that x is one step closer
    to u than v; ``share`` marks which neighbours of v each partner is
    adjacent to; so the batched product share @ down counts, for every
    (v, w, u), the common neighbours one step closer to u.  The first block
    is the run of v whose padded (v, slot, u) cells fit _FIRST_CELLS at any
    padding width (floor(_FIRST_CELLS / n^2) rows, at least one): a graph
    of up to 25 vertices takes one block, and from 128 vertices on the first
    block is a single v, so an early violation stays cheap.  Each next block
    doubles.
    A block is cut to the longest run of v whose padded cells fit
    _BLOCK_CELLS; a single v past the cap takes its partners in chunks that
    fit it.
    """
    dist = dm.dist
    n = dm.n
    ids = np.arange(n)
    v0, rows = 0, max(1, _FIRST_CELLS // (n * n))
    while v0 < n - 1:
        block = dist[v0:v0 + rows]
        vs = ids[v0:v0 + block.shape[0]]
        later = (block == gap) & (ids > vs[:, None])
        count = later.sum(1)
        nbrs = g.neighbors[v0:v0 + vs.size]
        wide, most = max(map(len, nbrs)), int(count.max())
        if vs.size * max(wide, most) * n > _BLOCK_CELLS:
            # keep the longest run of v whose padded cells fit the cap
            width = np.maximum.accumulate(np.maximum(count, list(map(len, nbrs))))
            width *= np.arange(1, vs.size + 1)
            b = max(1, int(np.count_nonzero(width <= _BLOCK_CELLS // n)))
            block, vs, later, count = block[:b], vs[:b], later[:b], count[:b]
            nbrs = nbrs[:b]
            wide, most = max(map(len, nbrs)), int(count.max())
        v0, rows = v0 + vs.size, 2 * vs.size
        if not most:
            continue
        nbr = np.array(
            [xs + (v,) * (wide - len(xs)) for v, xs in zip(vs.tolist(), nbrs)]
        )
        slots = ids[:most] < count[:, None]
        partner = np.zeros(slots.shape, dtype=ids.dtype)  # padding: masked by slots
        partner[slots] = later.nonzero()[1]
        # a neighbour of v closer to u than v is exactly one step closer
        down = (dist[nbr] < block[:, None, :]).astype(np.float32)
        step = max(1, _BLOCK_CELLS // (vs.size * n))
        for lo in range(0, most, step):
            ws = partner[:, lo:lo + step]
            share = (dist[ws[:, :, None], nbr[:, None, :]] == 1).astype(np.float32)
            bad = (dist[ws] == block[:, None, :]) & (share @ down == 0)
            hit = bad.any(2) & slots[:, lo:lo + step]
            first = int(hit.argmax())
            if hit.flat[first]:
                i, j = divmod(first, ws.shape[1])
                u = int(bad[i, j].argmax())
                return (
                    DiskConstraint(u, int(block[i, u]) - 1),
                    DiskConstraint(int(vs[i]), 1),
                    DiskConstraint(int(ws[i, j]), 1),
                )
    return None


def _clique_helly_fails(
    g: Graph, dm: DistanceMatrix
) -> tuple[DiskConstraint, ...] | None:
    """(c) The unit disks around the first extended triangle T* with no
    universal vertex (Szwarcfiter), or None.

    The extended triangle of T = {a, b, c} holds every vertex adjacent to at
    least two vertices of T, T included; a universal vertex is adjacent to
    all its other members.  Each unit disk around T* holds two vertices of T,
    so the disks meet pairwise, and a common vertex would lie in T* and be
    universal.  A triangle with a vertex of its own universal for T* is
    passed over at once; only the others run the member loop.
    """
    adj = g.adj_bits
    cl = [row | (1 << x) for x, row in enumerate(adj)]  # closed neighbourhoods
    for a in range(g.n):
        na = adj[a]
        bs = na >> (a + 1) << (a + 1)
        while bs:
            low = bs & -bs
            b = low.bit_length() - 1
            bs ^= low
            nab = na & adj[b]
            cs = nab >> (b + 1) << (b + 1)
            while cs:
                low = cs & -cs
                c = low.bit_length() - 1
                cs ^= low
                nc = adj[c]
                ext = nab | (na & nc) | (adj[b] & nc)
                if not (ext & ~cl[a] and ext & ~cl[b] and ext & ~cl[c]):
                    continue
                universal = ext
                members = _bit_ids(ext)
                for y in members:
                    universal &= cl[y]
                    if not universal:
                        return tuple(DiskConstraint(x, 1) for x in members)
    return None


def _undominated_c4(
    g: Graph, dm: DistanceMatrix
) -> tuple[DiskConstraint, ...] | None:
    """(d) The unit disks D(a,1), D(b,1), D(c,1), D(d,1) of the first induced
    4-cycle a-b-c-d with no vertex adjacent to all four, or None.

    A cycle is first reached at x = its least vertex, with z opposite x, so
    the other diagonal's smaller end y is above x.  A later quadruple with
    y < x belongs to a cycle whose least vertex is below x, met earlier and
    dominated.  So the first quadruple the predicate accepts is the first
    undominated cycle in (a, c, b, d) order, a least, c opposite a, b < d,
    and it comes back as (a, b, c, d).
    """
    adj = g.adj_bits
    quad = dm.first_quadruple(
        (2, 2), (1, 1), (2, 2),
        lambda x, y, z, t: not (adj[x] & adj[y] & adj[z] & adj[t]),
    )
    return None if quad is None else tuple(DiskConstraint(v, 1) for v in quad)


def _bit_ids(mask: int) -> list[int]:
    """Ids of the set bits of a non-negative ``mask``, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# Pseudo-modularity: conditions (a) and (b')
# ---------------------------------------------------------------------------

def is_pseudo_modular(
    g: Graph, *, dm: DistanceMatrix | None = None
) -> PseudoModularCheck:
    """Do all triples of pairwise-intersecting disks share a vertex?

    Decided by (a) and (b') of the module docstring.  A "no" carries the
    first violation (u, v, w) as the disks D(u,k-1), D(v,1), D(w,1) with
    k = d(u,v): they intersect pairwise and share no vertex.
    """
    dm = dm or apsp(g)
    for gap in (1, 2):
        disks = _interval_violation(g, dm, gap)
        if disks is not None:
            return PseudoModularCheck(False, disks)
    return PseudoModularCheck(True)


# ---------------------------------------------------------------------------
# Median vertex / median triangle
# ---------------------------------------------------------------------------

def find_median(
    g: Graph, x: int, y: int, z: int, *, dm: DistanceMatrix | None = None
) -> MedianResult:
    """Median of a triple in a pseudo-modular graph.

    Integer products give a single vertex realizing all three products;
    half-integer products give a pairwise-adjacent triangle at the floored
    products.  Lowest-id/lexicographic tie-break throughout.
    """
    dm = dm or apsp(g)
    dxy, dxz, dyz = dm.d(x, y), dm.d(x, z), dm.d(y, z)
    px = HalfInt(dxy + dxz - dyz)  # (y|z)_x
    py = HalfInt(dxy + dyz - dxz)  # (x|z)_y
    pz = HalfInt(dxz + dyz - dxy)  # (x|y)_z
    products = (px, py, pz)
    dist = dm.dist
    if px.is_integer:
        want = (
            (dist[x] == px.as_int())
            & (dist[y] == py.as_int())
            & (dist[z] == pz.as_int())
        )
        ids = np.nonzero(want)[0]
        if ids.size == 0:
            raise MedianSearchError(
                f"no median vertex for ({x},{y},{z}); graph is not pseudo-modular"
            )
        return MedianResult("vertex", products, vertex=int(ids[0]))
    fx, fy, fz = px.floor(), py.floor(), pz.floor()
    cand_x = np.nonzero(
        (dist[x] == fx) & (dist[y] == fy + 1) & (dist[z] == fz + 1)
    )[0]
    cand_y_mask = (dist[y] == fy) & (dist[x] == fx + 1) & (dist[z] == fz + 1)
    cand_z_mask = (dist[z] == fz) & (dist[x] == fx + 1) & (dist[y] == fy + 1)
    ybits, zbits = bit_rows(np.stack([cand_y_mask, cand_z_mask]))
    adj = g.adj_bits
    for xv in cand_x.tolist():
        y_opts = ybits & adj[xv]
        if not y_opts:
            continue
        my = y_opts
        while my:
            lowy = my & -my
            yv = lowy.bit_length() - 1
            my ^= lowy
            z_opts = zbits & adj[xv] & adj[yv]
            if z_opts:
                zv = (z_opts & -z_opts).bit_length() - 1
                return MedianResult(
                    "triangle", products, triangle=(int(xv), int(yv), int(zv))
                )
    raise MedianSearchError(
        f"no median triangle for ({x},{y},{z}); graph is not pseudo-modular"
    )
