"""Obstruction detection, certified materialization, and the derived
hyperbolicity routes.

Probe semantics on a Helly graph G (h = hyperbolicity):

* ``detect_H2(G, k)`` fires iff h >= k + 1/2; the certified copy is an
  isometric H2(k, k).
* ``detect_H1_or_H3(G, k)`` fires iff h >= k + 1; the certified copy is an
  isometric H1(k+1, k+1) or H3(k, k), whichever the constructive case
  analysis produces.
* ``detect_H1(G, k)`` fires on the exact H1(k+1, k+1) corner pattern (four
  sides k+1, both diagonals 2k+2); at k = 0 this is exactly "G has an
  induced 4-cycle".

Detectors scan distance patterns and do not require Helly input themselves:
a returned witness is always sound (its copy is re-verified isometric), but
absence certifies anything only when the input is Helly.  The aggregate
classifiers (hb_by_obstructions, hb_by_thinness, half_hyperbolic_equivalents,
power_characterization) read one ``Analysis`` context per graph, which
computes each shared quantity once, and reject non-Helly input.

Witness corners are the quadruple the scan fired on; the materialized copy
(always computed) lives in the witness alongside its cell layout.  One
certification step, ``_certify``, turns corners into a copy for the
detectors and for ``materialize``; ``_h1_copy``, the exact H1(k+1, k+1)
corner scan then ``_certify``, is ``detect_H1`` and phase 1 of
``detect_H1_or_H3``.  Phase 2, whose family is known only after resolution,
calls ``resolve_window_quadruple``.  Each case of either step places one
frame copy on four anchors and cuts the witness from it (``_window_copy``).

Every probe, the sun-tip test, the power route and both 4-cycle tests are
calls of the one quadruple-pattern scanner, ``DistanceMatrix.first_quadruple``,
which the Helly test's 4-cycle condition (d) shares.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distances import DistanceMatrix, apsp
from .families import (
    Cell,
    cell_metric,
    expected_corner_pattern,
    family_cells,
    family_corner_cells,
)
from .graphs import Graph, bit_rows
from .halfint import HalfInt
from .helly import DiskConstraint, HellyCheck, MedianResult, find_median, is_helly
from .hyperbolicity import (
    HyperbolicityWitness,
    ThinnessWitness,
    _scan_value,
    _thinness_value,
    hyperbolicity,
    interval_thinness,
)


class NotHellyError(Exception):
    """The operation requires a Helly input graph."""


class InternalInconsistencyError(RuntimeError):
    """Two routes that must agree produced different answers."""


class MaterializeError(Exception):
    """A placement disk system became infeasible (or the copy failed recheck)."""

    def __init__(self, message: str, constraints: tuple[DiskConstraint, ...] = ()):
        super().__init__(message)
        self.constraints = constraints


@dataclass(frozen=True)
class ObstructionWitness:
    """A certified isometric family copy inside the scanned graph.

    ``corners`` is the quadruple the detection pattern fired on; for
    resolved or extracted copies it need not realize the certified family's
    own corner distances.  ``cells`` and ``placement`` run in parallel
    (placement[i] realizes cells[i]); ``materialized`` is the placement as a
    sorted vertex set.
    """

    family: str
    k: int
    l: int
    corners: tuple[int, int, int, int]
    materialized: tuple[int, ...]
    cells: tuple[Cell, ...]
    placement: tuple[int, ...]


# ---------------------------------------------------------------------------
# Materialization by lowest common vertices of the placement disks
# ---------------------------------------------------------------------------

_CELL_STEPS = ((-2, 0), (-1, -1), (-1, 1), (0, -2), (0, 2), (1, -1), (1, 1), (2, 0))


def _realizes_corner_pattern(
    dm: DistanceMatrix, family: str, k: int, l: int, quad: tuple[int, int, int, int]
) -> bool:
    pat = expected_corner_pattern(family, k, l)
    a, b, c, d = quad
    return (dm.d(a, b), dm.d(b, c), dm.d(c, d), dm.d(d, a)) == pat.sides and (
        dm.d(a, c),
        dm.d(b, d),
    ) == pat.diagonals


def _anchored_placement(
    g: Graph,
    dm: DistanceMatrix,
    family: str,
    k: int,
    l: int,
    anchors: tuple[int, int, int, int],
) -> dict[Cell, int]:
    """Place an isometric family copy with the corner cells on ``anchors``.

    The anchors must realize the family's exact corner distance pattern.
    Each remaining cell goes to the lowest-id vertex lying in all its
    placement disks: one disk per corner (radius = cell distance to that
    corner) plus one unit disk, the closed neighbourhood, per already placed
    neighbouring cell.  Cells are placed by distance to the nearest corner,
    then lexicographically.  That is breadth-first from the corners: the
    cells sit isometrically in the King grid, so a cell's distance in the
    cell metric is its breadth-first level, and ``family_cells`` is sorted.
    The four corner disks of every cell are intersected at once, as one
    cells x n boolean array packed into bit rows; the unit disks are ANDed
    in per cell.  On Helly graphs every pick succeeds; a failed pick raises
    MaterializeError carrying the infeasible disks.  The finished placement
    is rechecked pair-by-pair against the cell metric, which also forces
    injectivity.
    """
    cells = family_cells(family, k, l)
    corner_cells = family_corner_cells(family, k, l)
    if not _realizes_corner_pattern(dm, family, k, l, anchors):
        a, b, c, d = anchors
        raise MaterializeError(
            f"anchors {anchors} do not realize the {family}({k},{l}) corner "
            f"pattern: sides ({dm.d(a, b)}, {dm.d(b, c)}, {dm.d(c, d)}, "
            f"{dm.d(d, a)}), diagonals ({dm.d(a, c)}, {dm.d(b, d)})"
        )

    metric = cell_metric(cells)
    radii = metric[:, [cells.index(cc) for cc in corner_cells]]
    inside = dm.dist[anchors[0]] <= radii[:, :1]
    for j in range(1, 4):
        inside &= dm.dist[anchors[j]] <= radii[:, j:j + 1]
    corner_disks = bit_rows(inside)

    placement: dict[Cell, int] = dict(zip(corner_cells, anchors))
    for i in np.argsort(radii.min(axis=1), kind="stable")[4:].tolist():
        s, t = p = cells[i]
        steps = ((s + ds, t + dt) for ds, dt in _CELL_STEPS)
        placed = [placement[q] for q in steps if q in placement]
        common = corner_disks[i]
        for v in placed:
            common &= g.adj_bits[v] | 1 << v
        if not common:
            raise MaterializeError(
                f"no vertex satisfies the placement disks for cell {p} "
                f"of {family}({k},{l})",
                tuple(
                    DiskConstraint(av, int(r)) for av, r in zip(anchors, radii[i])
                )
                + tuple(DiskConstraint(v, 1) for v in placed),
            )
        placement[p] = (common & -common).bit_length() - 1

    ids = np.array([placement[cc] for cc in cells])
    got = dm.dist[ids[:, None], ids]
    bad = np.argwhere(got != metric)
    if bad.size:
        i, j = int(bad[0][0]), int(bad[0][1])
        raise MaterializeError(
            f"materialized {family}({k},{l}) copy is not isometric: cells "
            f"{cells[i]} -> {int(ids[i])} and {cells[j]} -> {int(ids[j])} are at "
            f"distance {int(got[i, j])}, expected {int(metric[i, j])}"
        )
    return placement


def _window_copy(
    g: Graph,
    dm: DistanceMatrix,
    frame: tuple[str, int, int],
    anchors: tuple[int, int, int, int],
    window: tuple[str, int, int],
    scanned: tuple[int, int, int, int],
    shift: tuple[int, int] = (0, 0),
) -> ObstructionWitness:
    """The ``window`` copy cut from a ``frame`` copy placed on ``anchors``.

    Frame and window are (family, k, l) triples; the frame is placed by
    ``_anchored_placement``, and the window's cell (s, t) sits on the placed
    cell (s + shift_s, t + shift_t).  Restricting an isometric copy to a
    cell subset stays isometric because the cell metric is translation
    invariant.
    """
    placement = _anchored_placement(g, dm, *frame, anchors)
    cells = family_cells(*window)
    ds, dt = shift
    vertices = tuple(placement[(s + ds, t + dt)] for s, t in cells)
    return ObstructionWitness(
        *window, scanned, tuple(sorted(set(vertices))), cells, vertices
    )


def _certify(
    g: Graph,
    dm: DistanceMatrix,
    family: str,
    k: int,
    l: int,
    quad: tuple[int, int, int, int],
) -> ObstructionWitness:
    """The certified ``family(k, l)`` copy behind a scanned quadruple.

    The corners either realize the family's own corner pattern (anchored
    directly), or, for H2(k, k), the H1(k+1, k+1) pattern of the wide scan
    variant (the enclosing square, restricted to its inner window), or, for
    H1(k, k) and H3(k, k), the probe window at k-1 and k respectively
    (resolved by the constructive case analysis, which must certify the
    same family).  Anything else raises MaterializeError.
    """
    own = (family, k, l)
    if _realizes_corner_pattern(dm, *own, quad):
        return _window_copy(g, dm, own, quad, own, quad)
    wide = ("H1", k + 1, k + 1)
    if family == "H2" and k == l and _realizes_corner_pattern(dm, *wide, quad):
        return _window_copy(g, dm, wide, quad, own, quad, shift=(1, 1))
    if family in ("H1", "H3") and k == l:
        probe = k - 1 if family == "H1" else k
        if probe >= 0 and _fits_window(dm, probe, quad):
            resolved = resolve_window_quadruple(g, probe, quad, dm=dm)
            if resolved.family != family:
                raise MaterializeError(
                    f"window quadruple {quad} resolves to "
                    f"{resolved.family}({resolved.k},{resolved.l}), not "
                    f"{family}({k},{l})"
                )
            return resolved
    raise MaterializeError(
        f"witness corners {quad} satisfy no detection pattern for "
        f"{family}({k},{l})"
    )


def materialize(
    g: Graph, w: ObstructionWitness, *, dm: DistanceMatrix | None = None
) -> tuple[int, ...]:
    """Vertex set of an isometric family copy rebuilt from a witness.

    Runs the certification step every detector runs on its scanned
    quadruple, so the copy rebuilt from a detector's witness is the one it
    returned.  Raises MaterializeError when the corners fit no detection
    pattern for the claimed family or a placement disk system is infeasible
    (the usual symptom of non-Helly input).
    """
    dm = dm or apsp(g)
    return _certify(g, dm, w.family, w.k, w.l, w.corners).materialized


def _fits_window(
    dm: DistanceMatrix, k: int, quad: tuple[int, int, int, int]
) -> bool:
    x, y, z, t = quad
    sides = (dm.d(x, y), dm.d(y, z), dm.d(z, t), dm.d(t, x))
    return (
        dm.d(x, z) in (2 * k + 3, 2 * k + 4)
        and dm.d(y, t) in (2 * k + 3, 2 * k + 4)
        and all(k + 1 <= s <= k + 2 for s in sides)
    )


# ---------------------------------------------------------------------------
# Pattern scans
# ---------------------------------------------------------------------------

def detect_H1(
    g: Graph, k: int, *, dm: DistanceMatrix | None = None
) -> ObstructionWitness | None:
    """Certified H1(k+1, k+1) copy from the exact corner pattern, or None."""
    if k < 0:
        raise ValueError("probe parameter must be >= 0")
    return _h1_copy(g, dm or apsp(g), k)


def _h1_copy(g: Graph, dm: DistanceMatrix, k: int) -> ObstructionWitness | None:
    """Certify the first quadruple with sides k+1 and diagonals 2k+2, if any."""
    diag = 2 * k + 2
    quad = dm.first_quadruple((diag, diag), (k + 1, k + 1), (diag, diag))
    if quad is None:
        return None
    return _certify(g, dm, "H1", k + 1, k + 1, quad)


def detect_H2(
    g: Graph, k: int, *, dm: DistanceMatrix | None = None
) -> ObstructionWitness | None:
    """Certified H2(k, k) copy; fires iff hyperbolicity >= k + 1/2 on Helly input.

    Scans for quadruples with all four sides k+1, one diagonal 2k+2, and the
    other in {2k+1, 2k+2}.  The narrow variant anchors H2(k, k) directly;
    the wide variant builds the enclosing H1(k+1, k+1) square and restricts
    it to an H2(k, k) window.
    """
    if k < 0:
        raise ValueError("probe parameter must be >= 0")
    dm = dm or apsp(g)
    diag = 2 * k + 2
    quad = dm.first_quadruple((diag, diag), (k + 1, k + 1), (diag - 1, diag))
    if quad is None:
        return None
    return _certify(g, dm, "H2", k, k, quad)


def detect_H1_or_H3(
    g: Graph, k: int, *, dm: DistanceMatrix | None = None
) -> ObstructionWitness | None:
    """Certified H1(k+1, k+1) or H3(k, k) copy; fires iff hyperbolicity >= k + 1.

    Phase 1 scans the exact H1(k+1, k+1) corner pattern.  Phase 2 scans
    quadruples whose diagonals exceed 2k+2 while all sides stay within k+2
    and resolves each into one of the two certified copies.
    """
    if k < 0:
        raise ValueError("probe parameter must be >= 0")
    dm = dm or apsp(g)
    found = _h1_copy(g, dm, k)
    if found is not None:
        return found
    lo = 2 * k + 3
    quad = dm.first_quadruple((lo, lo + 1), (0, k + 2), (lo, dm.diam))
    if quad is None:
        return None
    return resolve_window_quadruple(g, k, quad, dm=dm)


def _rotate(q: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    x, y, z, t = q
    return (y, z, t, x)


def resolve_window_quadruple(
    g: Graph,
    k: int,
    quad: tuple[int, int, int, int],
    *,
    dm: DistanceMatrix | None = None,
) -> ObstructionWitness:
    """Turn one wide-diagonal quadruple into a certified H1 or H3 copy.

    Preconditions (checked): writing quad = (x, y, z, t), both diagonal
    distances d(x,z), d(y,t) lie in {2k+3, 2k+4} and all four side
    distances are at most k+2 (they are then automatically at least k+1).
    Every such quadruple in a Helly graph resolves; on non-Helly input the
    constructive steps may fail with MaterializeError or MedianSearchError.
    """
    dm = dm or apsp(g)
    d = dm.d
    if not _fits_window(dm, k, quad):
        x, y, z, t = quad
        raise ValueError(
            f"quadruple {quad} does not fit the probe window for k={k}: "
            f"diagonals ({d(x, z)}, {d(y, t)}), sides "
            f"({d(x, y)}, {d(y, z)}, {d(z, t)}, {d(t, x)})"
        )
    scanned = quad
    square = ("H1", k + 1, k + 1)

    if max(d(quad[0], quad[2]), d(quad[1], quad[3])) == 2 * k + 4:
        if d(quad[0], quad[2]) != 2 * k + 4:
            quad = _rotate(quad)
        if d(quad[1], quad[3]) == 2 * k + 4:
            # both diagonals maximal: the quadruple is an H1(k+2,k+2) frame
            return _window_copy(g, dm, ("H1", k + 2, k + 2), quad, square, scanned)
        # mixed diagonals: an H2(k+1,k+1) frame, long diagonal on (x,z)
        return _window_copy(g, dm, ("H2", k + 1, k + 1), quad, square, scanned)

    # both diagonals 2k+3; sides are k+1 or k+2, and two adjacent sides
    # cannot both be k+1 (their sum must cover a diagonal)
    for _ in range(4):
        if d(quad[0], quad[1]) == k + 1:
            break
        quad = _rotate(quad)
    x, y, z, t = quad
    n_short = [d(x, y), d(y, z), d(z, t), d(t, x)].count(k + 1)

    if n_short == 2:
        # two opposite short sides: a rectangular H1(k+2, k+1) frame
        return _window_copy(g, dm, ("H1", k + 2, k + 1), quad, square, scanned)

    if n_short == 1:
        # slide z one step toward the short side, then complete the square
        z2 = _median(g, dm, y, z, t, "triangle").triangle[0]
        t2 = _median(g, dm, x, z2, t, "vertex").vertex
        return _window_copy(g, dm, square, (x, y, z2, t2), square, scanned)

    # all sides k+2: probe the two corner medians; if either derived inner
    # pair stretches to 2k+2, an H1(k+1,k+1) square exists, otherwise the
    # quadruple carries a pinwheel H3(k,k)
    mt = find_median(g, x, z, t, dm=dm)
    my = find_median(g, x, z, y, dm=dm)
    if mt.variant != "triangle" or my.variant != "triangle":
        raise InternalInconsistencyError(
            f"medians of ({x},{z},{t}) and ({x},{z},{y}) must be triangles here"
        )
    # each triangle has a vertex next to x and one next to z; a pair of them
    # 2k+2 apart and their median with the far end complete the square
    for near, far, yv, tv in zip((x, z), (z, x), my.triangle[:2], mt.triangle[:2]):
        if d(tv, yv) == 2 * k + 2:
            v = _median(g, dm, yv, far, tv, "vertex").vertex
            return _window_copy(g, dm, square, (near, yv, v, tv), square, scanned)
    pinwheel = ("H3", k, k)
    return _window_copy(g, dm, pinwheel, quad, pinwheel, scanned)


def _median(
    g: Graph, dm: DistanceMatrix, u: int, v: int, w: int, variant: str
) -> MedianResult:
    """The median of (u, v, w), which the case analysis proves a ``variant``."""
    med = find_median(g, u, v, w, dm=dm)
    if med.variant != variant:
        raise InternalInconsistencyError(
            f"median of ({u},{v},{w}) must be a {variant} here"
        )
    return med


# ---------------------------------------------------------------------------
# One analysis context per graph
# ---------------------------------------------------------------------------

class Analysis:
    """One graph, its distance matrix, and the quantities the routes share.

    Helly recognition, the hyperbolicity scan, interval thinness, each
    obstruction probe and the probe sweep are computed on first use and
    kept, so every route that reads one of them shares a single computation.

    The scans come in two forms.  ``hyperbolicity`` and ``thinness`` are the
    (value, witness) pairs of ``hyperbolicity()`` and ``interval_thinness()``;
    only the report of ``analyze`` reads them, since only it prints the
    witnesses.  ``hb`` (the hyperbolicity) and ``tau`` (the interval
    thinness) are the values that the routes, ``verify`` and the hull check
    read: taken from the pair when it was computed first, and otherwise from
    the scan's value part, which runs no witness pass.
    """

    def __init__(self, g: Graph) -> None:
        self.g = g
        self.dm = apsp(g)
        self._probes: dict[int, ObstructionWitness | None] = {}

    @cached_property
    def helly(self) -> HellyCheck:
        return is_helly(self.g, dm=self.dm)

    @cached_property
    def hyperbolicity(self) -> tuple[HalfInt, HyperbolicityWitness]:
        return hyperbolicity(self.g, dm=self.dm)

    @cached_property
    def thinness(self) -> tuple[int, ThinnessWitness]:
        return interval_thinness(self.g, dm=self.dm)

    @cached_property
    def hb(self) -> HalfInt:
        if "hyperbolicity" in self.__dict__:
            return self.hyperbolicity[0]
        return HalfInt(_scan_value(self.g, dm=self.dm)[0])

    @cached_property
    def tau(self) -> int:
        if "thinness" in self.__dict__:
            return self.thinness[0]
        return _thinness_value(self.g, dm=self.dm)[0]

    @cached_property
    def sweep(self) -> tuple[tuple[HalfInt, ObstructionWitness | None], ...]:
        """The descending probe sweep as (threshold, witness) pairs (Helly input).

        Thresholds run from the diameter bound ceil(diam/2) down in half
        steps, through the first probe that fires or down to 0.
        """
        _require_helly(self)
        out = []
        for td in range(self.dm.diam + self.dm.diam % 2, -1, -1):
            w = self.probe(td)
            out.append((HalfInt(td), w))
            if w is not None:
                break
        return tuple(out)

    def probe(self, td: int) -> ObstructionWitness | None:
        """Obstruction probe at threshold td/2; on Helly input it fires iff h > td/2.

        Even td runs detect_H2(td/2), odd td runs detect_H1_or_H3((td-1)/2).
        """
        if td not in self._probes:
            if td % 2 == 0:
                self._probes[td] = detect_H2(self.g, td // 2, dm=self.dm)
            else:
                self._probes[td] = detect_H1_or_H3(self.g, td // 2, dm=self.dm)
        return self._probes[td]

    def probe_mismatches(self, hb: HalfInt, thresholds: Iterable[int]) -> list[int]:
        """The doubled thresholds td whose probe disagrees with h > td/2.

        ``hb`` is the value the probes are held against; on Helly input the
        list is empty.
        """
        return [
            td for td in thresholds if (self.probe(td) is not None) != (hb.doubled > td)
        ]


def _require_helly(a: Analysis) -> None:
    if not a.helly:
        raise NotHellyError(
            "input graph is not Helly; this operation is only valid on Helly graphs"
        )


# ---------------------------------------------------------------------------
# Derived hyperbolicity routes
# ---------------------------------------------------------------------------

def hb_by_obstructions(a: Analysis) -> HalfInt:
    """Hyperbolicity via descending obstruction probes (Helly input).

    Reads ``Analysis.sweep``: an integer probe t = k runs detect_H2(k), a
    half probe t = k + 1/2 runs detect_H1_or_H3(k).  The first firing probe
    gives h = t + 1/2; if no probe fires the graph is 0-hyperbolic.
    """
    thr, w = a.sweep[-1]
    if w is None:
        return HalfInt(0)
    if len(a.sweep) == 1:
        raise InternalInconsistencyError(
            f"probe at threshold {thr} fired although the diameter "
            f"bound caps hyperbolicity at {HalfInt(a.dm.diam)}"
        )
    return HalfInt(thr.doubled + 1)


def hb_by_thinness(a: Analysis) -> HalfInt:
    """Hyperbolicity from interval thinness tau (Helly input).

    Even tau: h = tau/2 outright.  Odd tau: h = (tau+1)/2 exactly when the
    wide-diagonal probe at k = (tau-1)/2 fires, else h = tau/2.
    """
    _require_helly(a)
    tau = a.tau
    if tau % 2 == 0:
        return HalfInt.from_int(tau // 2)
    if a.probe(tau) is not None:
        return HalfInt(tau + 1)
    return HalfInt(tau)


@dataclass(frozen=True)
class HellyRoutes:
    """Every derived route of one Helly analysis, with its probe sweep."""

    by_obstructions: HalfInt
    by_thinness: HalfInt
    power: tuple[tuple[HalfInt, bool], ...]  # see _power_table
    equivalents: dict[str, bool]
    probes: tuple[tuple[HalfInt, ObstructionWitness | None], ...]
    agree: bool  # every route matches the direct hyperbolicity scan


def helly_routes(a: Analysis) -> HellyRoutes:
    """Run and judge every derived route; non-Helly input raises NotHellyError."""
    ob = hb_by_obstructions(a)
    th = hb_by_thinness(a)
    power = _power_table(a)
    eq = half_hyperbolic_equivalents(a)
    hb = a.hb
    agree = (
        ob == hb
        and th == hb
        and not _power_mismatches(power, hb)
        and _equivalents_agree(eq, hb)
    )
    return HellyRoutes(ob, th, power, eq, a.sweep, agree)


def _power_table(a: Analysis) -> tuple[tuple[HalfInt, bool], ...]:
    """The power route's decision at every threshold 0, 1/2, ..., h + 1."""
    return tuple(
        (HalfInt(td), power_characterization(a, HalfInt(td)))
        for td in range(0, a.hb.doubled + 3)
    )


def _power_mismatches(
    power: tuple[tuple[HalfInt, bool], ...], hb: HalfInt
) -> list[HalfInt]:
    return [t for t, within in power if within != (hb <= t)]


def _equivalents_agree(eq: dict[str, bool], hb: HalfInt) -> bool:
    return set(eq.values()) == {hb <= HalfInt(1)}


# ---------------------------------------------------------------------------
# Half-hyperbolicity equivalents
# ---------------------------------------------------------------------------

def _has_sun_tip_pattern(dm: DistanceMatrix) -> bool:
    """Quadruple with cyclic side distances 2 and diagonal distances 3.

    On a Helly graph this pattern is equivalent to an isometric complete
    4-sun (it is the H3(0,0) detection pattern, materializable on demand).
    """
    return dm.first_quadruple((3, 3), (2, 2), (3, 3)) is not None


def half_hyperbolic_equivalents(a: Analysis) -> dict[str, bool]:
    """Four conditions that agree on Helly graphs, each decided directly.

    * hyperbolicity_le_half: h <= 1/2 by the exact quadruple scan.
    * no_induced_c4_or_sun_tips: no induced 4-cycle (= isometric 4-cycle)
      and no side-2/diagonal-3 quadruple (= isometric complete 4-sun).
    * g_and_square_c4_free: neither G nor its square has an induced 4-cycle
      (power windows [1, 1] and [2, 2]).
    * thinness_le_1_no_sun_tips: interval thinness at most 1 and no
      side-2/diagonal-3 quadruple.
    """
    _require_helly(a)
    dm = a.dm
    c4 = _power_window(dm, 1, 1)
    sun_tips = _has_sun_tip_pattern(dm)
    c4_sq = _power_window(dm, 2, 2)
    return {
        "hyperbolicity_le_half": a.hb <= HalfInt(1),
        "no_induced_c4_or_sun_tips": not c4 and not sun_tips,
        "g_and_square_c4_free": not c4 and not c4_sq,
        "thinness_le_1_no_sun_tips": a.tau <= 1 and not sun_tips,
    }


# ---------------------------------------------------------------------------
# Power-graph characterization (independent literal route)
# ---------------------------------------------------------------------------

def power_characterization(a: Analysis, threshold: HalfInt | int) -> bool:
    """Decide "hyperbolicity <= threshold" purely from power-graph 4-cycles.

    A labeled 4-cycle lives in every power G^l for l in [A, B] iff its
    sides are edges of G^A and its diagonals are non-edges of G^B, so each
    window is one ``first_quadruple`` call with side band 1..A and both
    diagonal bands B+1..diam, cut from the power adjacency rows.  For a
    half threshold k + 1/2 the test is the absence of windows [k+1, 2k+1]
    and [k+2, 2k+2]; for an integer threshold k it is the absence of a
    quadruple with sides in G^(k+1), one diagonal exactly 2k+1 and the other
    beyond 2k+1 (a diamond split across consecutive powers).  Provably equal
    to the direct value on Helly graphs; non-Helly input is rejected.
    """
    t = HalfInt.coerce(threshold)
    if t < 0:
        raise ValueError("threshold must be >= 0")
    _require_helly(a)
    dm = a.dm
    if t.is_integer:
        return not _power_split_diagonal(dm, t.as_int())
    k = t.floor()
    return not (
        _power_window(dm, k + 1, 2 * k + 1) or _power_window(dm, k + 2, 2 * k + 2)
    )


def _power_window(dm: DistanceMatrix, a: int, b: int) -> bool:
    """Is there a labeled 4-cycle common to all powers G^l, a <= l <= b?"""
    far = (b + 1, dm.diam)
    return dm.first_quadruple(far, (1, a), far) is not None


def _power_split_diagonal(dm: DistanceMatrix, k: int) -> bool:
    """Sides within k+1, one diagonal exactly 2k+1, the other beyond it?"""
    diag = 2 * k + 1
    return dm.first_quadruple((diag, diag), (1, k + 1), (diag + 1, dm.diam)) is not None
