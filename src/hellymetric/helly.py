"""Helly/pseudo-modular recognition and the common-vertex primitives.

A graph is Helly when every pairwise-intersecting family of disks has a
common vertex.  Recognition uses the classical hypergraph triple test on the
disk family: for each vertex triple {a,b,c}, intersect all disks containing
at least two of them — per center v the smallest such disk has radius
median(d(v,a), d(v,b), d(v,c)).  An exhaustive subfamily oracle in the
test suite keeps the triple test honest on small graphs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distances import DistanceMatrix, apsp
from .graphs import Graph
from .halfint import HalfInt


class EnumerationBudgetError(Exception):
    """An exhaustive check was asked to run past its instance-size cap."""


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
# Common-vertex pick
# ---------------------------------------------------------------------------

def pick_common_vertex(
    dm: DistanceMatrix, constraints: Sequence[DiskConstraint]
) -> int | None:
    """Lowest-id vertex inside every disk, or None if the disks share nothing."""
    mask = (1 << dm.n) - 1
    for c in constraints:
        mask &= dm.ball_bits(c.center, c.radius)
        if not mask:
            return None
    return (mask & -mask).bit_length() - 1


# ---------------------------------------------------------------------------
# Helly recognition: triple test
# ---------------------------------------------------------------------------

def is_helly(g: Graph, *, dm: DistanceMatrix | None = None) -> HellyCheck:
    """Triple test over the disk family, with a disk-family witness on failure.

    The witness is a pairwise-intersecting family with empty intersection,
    greedily minimized.
    """
    dm = dm or apsp(g)
    n = dm.n
    if n <= 2:
        return HellyCheck(True)
    dist = dm.dist
    rows = dm._rows
    ball = dm.ball_bits
    cand_rows = dist  # ndarray view for vectorized candidate checks
    for a in range(n):
        da_np = dist[a]
        da = rows[a]
        for b in range(a + 1, n):
            db_np = dist[b]
            db = rows[b]
            dab = da[b]
            hi_ab = np.maximum(da_np, db_np)
            lo_ab = np.minimum(da_np, db_np)
            sum_ab = da_np.astype(np.int32) + db_np
            for c in range(b + 1, n):
                dac = da[c]
                dbc = db[c]
                cands = (
                    ball(a, min(dab, dac))
                    & ball(b, min(dab, dbc))
                    & ball(c, min(dac, dbc))
                )
                if cands:
                    dc_np = dist[c]
                    # med3 = sum - max - min, computed row-wise
                    med = (
                        sum_ab
                        + dc_np
                        - np.maximum(hi_ab, dc_np)
                        - np.minimum(lo_ab, dc_np)
                    )
                    ok = False
                    m = cands
                    while m:
                        low = m & -m
                        x = low.bit_length() - 1
                        m ^= low
                        if (cand_rows[x] <= med).all():
                            ok = True
                            break
                    if ok:
                        continue
                else:
                    dc_np = dist[c]
                    med = (
                        sum_ab
                        + dc_np
                        - np.maximum(hi_ab, dc_np)
                        - np.minimum(lo_ab, dc_np)
                    )
                witness = _minimize_empty_family(dm, med)
                return HellyCheck(False, witness)
    return HellyCheck(True)


def _minimize_empty_family(
    dm: DistanceMatrix, radii: np.ndarray
) -> tuple[DiskConstraint, ...]:
    """Greedily drop disks from {D(v, radii[v])} while the intersection stays
    empty.  The input family is pairwise-intersecting by construction (each
    radius is a median of distances to one vertex triple), and subfamilies
    inherit that."""
    n = dm.n
    keep = list(range(n))
    masks = {v: dm.ball_bits(v, int(radii[v])) for v in keep}

    def empty(ids: Sequence[int]) -> bool:
        m = (1 << n) - 1
        for v in ids:
            m &= masks[v]
            if not m:
                return True
        return not m

    for v in list(keep):
        trial = [u for u in keep if u != v]
        if trial and empty(trial):
            keep = trial
    return tuple(DiskConstraint(v, int(radii[v])) for v in keep)


# ---------------------------------------------------------------------------
# Pseudo-modularity by disk enumeration
# ---------------------------------------------------------------------------

def _distinct_disks(dm: DistanceMatrix) -> list[tuple[int, DiskConstraint]]:
    """All distinct nontrivial disks (mask, constraint); whole-V disks dropped."""
    full = (1 << dm.n) - 1
    seen: set[int] = set()
    out: list[tuple[int, DiskConstraint]] = []
    for v in range(dm.n):
        for r in range(int(dm.ecc[v]) + 1):
            mask = dm.ball_bits(v, r)
            if mask == full or mask in seen:
                continue
            seen.add(mask)
            out.append((mask, DiskConstraint(v, r)))
    return out


def is_pseudo_modular(
    g: Graph, *, dm: DistanceMatrix | None = None, max_disks: int = 400
) -> PseudoModularCheck:
    """Do all triples of pairwise-intersecting disks share a vertex?

    Literal enumeration over distinct nontrivial disks; guarded by a size cap
    because the triple count is cubic in the number of disks.
    """
    dm = dm or apsp(g)
    disks = _distinct_disks(dm)
    if len(disks) > max_disks:
        raise EnumerationBudgetError(
            f"{len(disks)} distinct disks exceed the cap of {max_disks}"
        )
    k = len(disks)
    for i in range(k):
        mi, ci = disks[i]
        for j in range(i + 1, k):
            mj, cj = disks[j]
            mij = mi & mj
            if not mij:
                continue  # i,j disjoint: no triple through them qualifies
            for t in range(j + 1, k):
                mt, ct = disks[t]
                if not (mi & mt) or not (mj & mt):
                    continue
                if not (mij & mt):
                    return PseudoModularCheck(False, (ci, cj, ct))
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
    ybits = _mask_to_bits(cand_y_mask)
    zbits = _mask_to_bits(cand_z_mask)
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


def _mask_to_bits(mask: np.ndarray) -> int:
    bits = 0
    for v in np.nonzero(mask)[0].tolist():
        bits |= 1 << v
    return bits
