"""Exact four-point hyperbolicity, intervals, slices, and interval thinness.

The hyperbolicity scan pairs far-apart pairs only.  A pair (u, v) is
far-apart when no neighbour u' of u has d(u', v) > d(u, v) and no neighbour
v' of v has d(v', u) > d(u, v).  Some maximizing quadruple has its
largest-sum pairing made of two far-apart pairs (Soto, 2011; Cohen, Coudert,
Lancin, "On computing the Gromov hyperbolicity", 2015): if u has such a
neighbour u', replacing u by u' raises the largest sum by one and each other
sum by at most one, so the gap does not shrink, and since the largest sum
grows the replacements end at far-apart pairs.  For a quadruple visited at
its largest-sum pairing (d(u,v)+d(w,x) maximal), twice its delta is at most
min(d(u,v), d(w,x)).

The far-apart pairs come from the BFS levels that ``apsp`` ran: (u, v) is
far-apart unless, with u as the source, v is a level-d(u, v) vertex adjacent
to the next level, or the same holds with the roles swapped.
``DistanceMatrix.far_apart_pairs`` reads them, in (u, v) order, from the
packed relation a block of rows at a time, so no n x n array is built.

The scan runs in two passes over the far-apart pairs.  The value pass sweeps
them in decreasing distance order and keeps only the running maximum gap:
a pair at distance <= best cannot lie in a larger gap, so the sweep stops at
the first chunk of 64 outer pairs whose first distance is <= best, and each
chunk pairs only with the pairs above best.  The witness pass (B = the value
found) keeps the pairs at distance >= B, in the (u, v) order in which they
are read, and walks a = 0, 1, 2, ...: the pairs (a, v) are paired with the
pairs whose first vertex is > a, and the walk stops at the first a with a
gap of B, returning the lexicographically smallest sorted quadruple among
that a's hits.  This is the lexicographically smallest sorted maximizer
whose largest-sum pairing is two far-apart pairs: a gap of B > 0 makes
d(u,v)+d(w,x) the strict largest sum, so the hits are exactly those
maximizers visited at that pairing, and the smallest vertex of such a
quadruple is the first vertex of one of its two pairs while the other pair
lies wholly above it, so no maximizer has a smaller first vertex than the
first a with a hit, and each one whose first vertex is a is a hit at a.  The
witness need not be the smallest maximizer over all quadruples.  Both passes
gather the int16 distance rows of a chunk's vertices once, widen only those
to int32, and read the inner pairs as columns of them, tiled in blocks of
``_TILE``; so no int32 copy of the matrix is made, and the temporaries are
two 64 x n row blocks and a few 64 x ``_TILE`` integer tiles.

Interval thinness is batched per source x and level k.  With A[u, y] true
when u lies on a shortest (x, y)-path, two vertices u, v of the level L_k(x)
lie in a common slice iff some y has A[u, y] and A[v, y], that is iff the
entry (u, v) of A_k A_k^T is positive, where A_k keeps the rows of L_k and
the columns y with d(x, y) > k (no nearer y holds two level-k vertices).
One stable argsort of the row of x gives the levels; a level gathers only
its own |L_k| distance rows, which by symmetry hold its columns too, so no
n x n copy of the matrix is made.  The product is taken in float32 and only
its sign is read, which no rounding of nonnegative terms can flip.  A
source is skipped when 2 floor(ecc(x)/2) cannot beat the running best, and a
level, before A_k is built, when neither 2 min(k, ecc(x) - k) nor its
largest internal distance can.  The witness revisits only the first source
whose levels reach tau, at floor tau - 1: each surviving level multiplies
its pairs at distance tau into A_k, which names the endpoints y sharing
such a pair.  The witness has y > x, because I(x, y) = I(y, x) with
mirrored slices, so a hit with y < x would have reached tau at the earlier
source y.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .distances import DistanceMatrix, apsp
from .graphs import Graph
from .halfint import HalfInt

_CHUNK = 64
_TILE = 1 << 14


@dataclass(frozen=True)
class HyperbolicityWitness:
    """A quadruple, its three pairing sums, and its exact delta."""

    quadruple: tuple[int, int, int, int]
    sums: tuple[int, int, int]
    delta: HalfInt


@dataclass(frozen=True)
class ThinnessWitness:
    """Endpoints, slice index, and a maximizing same-slice pair."""

    endpoints: tuple[int, int]
    slice_index: int
    pair: tuple[int, int]
    distance: int


def _sums(dm: DistanceMatrix, u: int, v: int, w: int, x: int) -> tuple[int, int, int]:
    return (
        dm.d(u, v) + dm.d(w, x),
        dm.d(u, w) + dm.d(v, x),
        dm.d(u, x) + dm.d(v, w),
    )


def quadruple_delta(
    dm: DistanceMatrix, u: int, v: int, w: int, x: int
) -> HyperbolicityWitness:
    """Half the gap between the two largest pairing sums of one quadruple."""
    sums = _sums(dm, u, v, w, x)
    top = sorted(sums)
    return HyperbolicityWitness((u, v, w, x), sums, HalfInt(top[2] - top[1]))


def is_block_graph(g: Graph) -> bool:
    """Every block a clique (equivalently: zero hyperbolicity), for a
    connected graph ``g``.

    For each edge uv let K(uv) = N[u] & N[v] (closed neighbourhoods).  Then
    the sum of |K| - 1 over the distinct K(uv) is at least n - 1, with
    equality exactly for block graphs.  The vertices and the distinct K(uv),
    joined by membership, form a connected bipartite graph with n + #K nodes
    and sum |K| edges, so the sum is at least n - 1, with equality iff that
    graph is a tree.  In a block graph K(uv) is the block of uv, and blocks
    and vertices form a tree.  Conversely, let the incidence graph be a
    tree.  A K(uv) holding two non-adjacent vertices a, b would close the
    cycle u - K(uv) - a - K(ua) - u, as b is not in K(ua); so each K(uv) is
    the one maximal clique on uv, a cycle of G through two of them would
    give a cycle in the tree, and every block is a clique.  The pass stops
    once the sum passes n - 1.  Connectivity is needed: C4 plus three
    isolated vertices sums to 4 <= 6.
    """
    adj = g.adj_bits
    budget = g.n - 1
    seen: set[int] = set()
    for u in range(g.n):
        row = adj[u]
        for v in g.neighbors[u]:
            if v < u:
                continue
            common = row & adj[v]
            if common:
                k = common | 1 << u | 1 << v
                if k in seen:
                    continue
                seen.add(k)
            # |K(uv)| - 1; K(uv) = {u, v} belongs to this edge alone
            budget -= common.bit_count() + 1
            if budget < 0:
                return False
    return True


def _gaps(
    dist: np.ndarray,
    U: np.ndarray, V: np.ndarray, DUV: np.ndarray,
    W: np.ndarray, X: np.ndarray, DWX: np.ndarray,
) -> Iterator[tuple[int, np.ndarray]]:
    """Per tile of ``_TILE`` columns from j0: gap[i, j] = d(U_i,V_i) +
    d(W_j,X_j) minus the larger other pairing sum.

    The rows of U and V are gathered from the int16 matrix once and only
    they are widened to int32: a sum of two int16 distances overflows int16
    once twice the diameter passes 32,767.  Each tile then indexes their
    columns along one axis.
    """
    du = dist[U].astype(np.int32)
    dv = dist[V].astype(np.int32)
    for j0 in range(0, W.shape[0], _TILE):
        w, x = W[j0:j0 + _TILE], X[j0:j0 + _TILE]
        s2 = du[:, w]
        s2 += dv[:, x]
        s3 = du[:, x]
        s3 += dv[:, w]
        np.maximum(s2, s3, out=s2)
        np.subtract(DWX[j0:j0 + _TILE], s2, out=s2)
        s2 += DUV[:, None]
        yield j0, s2


def hyperbolicity(
    g: Graph, *, dm: DistanceMatrix | None = None
) -> tuple[HalfInt, HyperbolicityWitness]:
    """Exact maximum quadruple delta, scanning far-apart pairs only.

    A value pass finds twice the delta B; a witness pass then walks the
    smallest vertex a upwards and returns the lexicographically smallest
    sorted maximizing quadruple whose largest-sum pairing is two far-apart
    pairs (see the module docstring); with delta 0 it is (0, 0, 0, 0).
    """
    # apsp refuses a disconnected graph, and is_block_graph needs a connected one
    dm = dm or apsp(g)
    zero_witness = HyperbolicityWitness((0, 0, 0, 0), (0, 0, 0), HalfInt(0))
    if is_block_graph(g):
        return HalfInt(0), zero_witness

    dist = dm.dist
    iu, iv = dm.far_apart_pairs()
    duv = dist[iu, iv].astype(np.int32)
    best = _value_pass(dist, iu, iv, duv)
    if best == 0:
        return HalfInt(0), zero_witness
    q = _witness_pass(dist, iu, iv, duv, best)
    sums = _sums(dm, *q)
    top = sorted(sums)
    assert top[2] - top[1] == best, "scan/recheck mismatch"
    return HalfInt(best), HyperbolicityWitness(q, sums, HalfInt(best))


def _value_pass(
    dist: np.ndarray, iu: np.ndarray, iv: np.ndarray, duv: np.ndarray
) -> int:
    """Twice the delta: the largest gap over pairs of pairs, both above it."""
    order = np.argsort(-duv, kind="stable")
    u_arr, v_arr, d_arr = iu[order], iv[order], duv[order]
    best = 0
    for i0 in range(0, d_arr.shape[0], _CHUNK):
        if d_arr[i0] <= best:
            break
        i1 = min(i0 + _CHUNK, d_arr.shape[0])
        # a pair at distance <= best cannot lie in a gap above best
        jmax = min(int(np.searchsorted(-d_arr, -best, side="left")), i1)
        # a pairing visited twice, once from each of its pairs, only repeats
        # its gap, so the columns may reach past the diagonal up to i1
        for _, gap in _gaps(
            dist, u_arr[i0:i1], v_arr[i0:i1], d_arr[i0:i1],
            u_arr[:jmax], v_arr[:jmax], d_arr[:jmax],
        ):
            best = max(best, int(gap.max()))
    return best


def _witness_pass(
    dist: np.ndarray, iu: np.ndarray, iv: np.ndarray, duv: np.ndarray, best: int
) -> tuple[int, int, int, int]:
    """The lex-min sorted quadruple of two far-apart pairs with gap ``best``.

    Pairs at distance >= best, sorted by (u, v), are walked by their first
    vertex a: the pairs (a, v) as rows against the pairs with u > a as
    columns.  The first a with a hit is the smallest vertex of every
    maximizer, and every maximizer with smallest vertex a is among its hits.
    """
    # far_apart_pairs listed the pairs in (u, v) order, and the filter keeps it
    keep = duv >= best
    u_arr, v_arr, d_arr = iu[keep], iv[keep], duv[keep]
    npairs = d_arr.shape[0]
    # the pairs with first vertex a occupy positions [starts[a], starts[a + 1])
    starts = np.searchsorted(u_arr, np.arange(dist.shape[0] + 1))
    for a in range(dist.shape[0]):
        r0, r1 = int(starts[a]), int(starts[a + 1])
        if r1 == npairs:
            break
        found = None
        W, X = u_arr[r1:], v_arr[r1:]
        for i0 in range(r0, r1, _CHUNK):
            i1 = min(i0 + _CHUNK, r1)
            V = v_arr[i0:i1]
            for j0, gap in _gaps(dist, u_arr[i0:i1], V, d_arr[i0:i1], W, X, d_arr[r1:]):
                hits = np.argwhere(gap == best)
                if not hits.size:
                    continue
                cols = hits[:, 1] + j0
                rest = np.stack([V[hits[:, 0]], W[cols], X[cols]], axis=1)
                rest.sort(axis=1)
                pick = np.lexsort((rest[:, 2], rest[:, 1], rest[:, 0]))[0]
                cand = tuple(int(t) for t in rest[pick])
                if found is None or cand < found:
                    found = cand
        if found is not None:
            return (a, *found)
    raise AssertionError(f"the value pass found gap {best} but no quadruple has it")


# ---------------------------------------------------------------------------
# Intervals, slices, thinness
# ---------------------------------------------------------------------------

def interval_slice(
    g: Graph, x: int, y: int, k: int, *, dm: DistanceMatrix | None = None
) -> set[int]:
    """Vertices on shortest (x,y)-paths at distance exactly k from x."""
    dm = dm or apsp(g)
    dxy = dm.d(x, y)
    if not (0 <= k <= dxy):
        raise ValueError(f"slice index {k} outside [0, {dxy}]")
    dist = dm.dist
    on = (dist[x] + dist[y] == dxy) & (dist[x] == k)
    return set(int(v) for v in np.nonzero(on)[0])


def interval_thinness(
    g: Graph, *, dm: DistanceMatrix | None = None
) -> tuple[int, ThinnessWitness]:
    """Largest diameter of any slice of any interval, with a witness.

    The witness names the lexicographically first endpoints (x, y), x < y,
    whose interval has a slice of diameter tau, that slice's index k = d(x, u),
    and the row-major first pair u < v of that slice at distance tau.  When
    tau is 0 the witness is ((0, 0), 0, (0, 0), 0).
    """
    dm = dm or apsp(g)
    dist = dm.dist
    best, first = 0, -1
    for x in range(g.n):
        ecc = int(dm.ecc[x])
        # two level-k vertices of I(x, y) are at most 2 min(k, ecc - k) apart
        if 2 * (ecc // 2) <= best:
            continue
        # the floor is read per level, so a level that raises best prunes the rest
        for _, level, _, member in _levels(dist, x, ecc, lambda: best):
            shared = member @ member.T > 0
            mx = int(np.where(shared, level, -1).max())
            if mx > best:
                best, first = mx, x
    if best == 0:
        return 0, ThinnessWitness((0, 0), 0, (0, 0), 0)
    return best, _witness(dist, first, int(dm.ecc[first]), best)


def _levels(
    dist: np.ndarray, x: int, ecc: int, floor: Callable[[], int]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The levels of x whose pairs may lie farther apart than ``floor()``.

    Yields, per level k, its vertices in increasing order, their distance
    block, the vertices y beyond the level (d(x, y) > k; no nearer y holds
    two level-k vertices), and member[i, j] = 1.0 when the i-th level vertex
    lies on a shortest (x, y_j)-path.
    """
    dx = dist[x]
    order = np.argsort(dx, kind="stable")
    ds = dx[order]
    # level k of x occupies positions [starts[k], starts[k + 1])
    starts = np.searchsorted(ds, np.arange(ecc + 1))
    for k in range(1, ecc):
        lo, hi = int(starts[k]), int(starts[k + 1])
        if hi - lo < 2 or 2 * min(k, ecc - k) <= floor():
            continue
        ids = order[lo:hi]
        # dist is symmetric, so the level's rows hold its columns too
        rows = dist[ids]
        level = rows[:, ids]
        if int(level.max()) <= floor():
            continue
        beyond = order[hi:]
        # d(x, y) - d(u, y) = k; a difference of two int16 distances fits
        member = (ds[hi:] - rows[:, beyond] == k).astype(np.float32)
        yield ids, level, beyond, member


def _witness(dist: np.ndarray, x: int, ecc: int, tau: int) -> ThinnessWitness:
    """The witness from the first y > x whose interval I(x, y) reaches tau.

    Only called for the first source whose levels reached tau; a hit there
    with y < x would have reached tau at the earlier source y, since I(x, y)
    and I(y, x) are the same set with mirrored slices.  Its levels are
    revisited at floor tau - 1.  Each level names its smallest such y and,
    for that y, its row-major first pair at distance tau; the smallest
    (y, pair) over the levels is the witness, because a level holding a pair
    of I(x, y) at distance tau names y or a smaller id.
    """
    found = None
    for ids, level, beyond, member in _levels(dist, x, ecc, lambda: tau - 1):
        far = level == tau
        # hit[j]: some level pair at distance tau lies in I(x, beyond[j])
        hit = (far.astype(np.float32) @ member * member).max(axis=0) > 0
        later = np.nonzero(hit & (beyond > x))[0]
        if not later.size:
            continue
        j = later[np.argmin(beyond[later])]
        on = np.nonzero(member[:, j])[0]
        # the block is symmetric with a zero diagonal, so its first hit has u < v
        u, v = np.argwhere(far[on][:, on])[0]
        cand = (int(beyond[j]), int(ids[on[u]]), int(ids[on[v]]))
        if found is None or cand < found:
            found = cand
    if found is None:
        raise AssertionError(f"source {x} reached thinness {tau} but no y > x does")
    y, u, v = found
    return ThinnessWitness((x, y), int(dist[x, u]), (u, v), tau)
