"""The three king-grid obstruction families: builders and validators.

Cells live in rotated coordinates (s, t) with s = x + y and t = x - y, so a
cell is valid iff s and t have the same parity, and the king-move (Chebyshev)
distance between cells is (|ds| + |dt|) / 2.  Each family is the set of
parity-valid cells of a rectangle in (s, t) plus its tips, with four
distinguished corner cells a, b, c, d; the tips are exactly the corners that
lie outside the rectangle.

Shapes (parameters k, l >= 0 unless noted):

* H1(k, l), k, l >= 1: all valid cells with s in [0, 2k], t in [0, 2l].
  Corners a=(0,0), b=(0,2l), c=(2k,2l), d=(2k,0).  Side distances l, k, l, k;
  both diagonals k+l.  Hyperbolicity min(k, l).
* H2(k, l): valid cells with s in [0, 2k+1], t in [-1, 2l], plus the two tip
  cells a=(-1,-1) and c=(2k+1, 2l+1); b=(0, 2l), d=(2k+1, -1).  Sides
  l+1, k+1, l+1, k+1; diagonals k+l+2 (ac) and k+l+1 (bd).  Hyperbolicity
  min(k, l) + 1/2.
* H3(k, l): valid cells with s in [0, 2k+2], t in [-1, 2l+1], plus four
  pinwheel tips a=(-1,-1), b=(2k+2,-2), c=(2k+3, 2l+1), d=(0, 2l+2).  Sides
  k+2, l+2, k+2, l+2; both diagonals k+l+3.  Hyperbolicity min(k, l) + 1.
  H3(0, 0) is the complete 4-sun.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distances import apsp, is_isometric
from .graphs import Graph, king_grid
from .halfint import HalfInt
from .helly import is_helly
from .hyperbolicity import _scan_value, quadruple_delta

Cell = tuple[int, int]

FAMILY_NAMES = ("H1", "H2", "H3")


class FamilyValidationError(AssertionError):
    """A built family failed one of its structural checks."""


def cell_metric(cells: Sequence[Cell]) -> np.ndarray:
    """King-move distances between rotated-coordinate cells, an int16 matrix.

    Entry [i, j] is max(|dx|, |dy|) in the unrotated coordinates
    x = (s + t) / 2, y = (s - t) / 2, which equals (|ds| + |dt|) / 2.  With
    x and y shifted to start at 0, no intermediate exceeds the largest
    entry, so int16 holds every cell metric an int16 distance matrix can
    match.
    """
    s, t = np.array(cells, dtype=np.int64).T
    xy = np.stack((s + t, s - t)) >> 1
    x, y = (xy - xy.min(axis=1, keepdims=True)).astype(np.int16)
    dx = x[:, None] - x
    dy = y[:, None] - y
    return np.maximum(np.abs(dx, out=dx), np.abs(dy, out=dy), out=dx)


def family_cells(family: str, k: int, l: int) -> tuple[Cell, ...]:
    """All cells of the family, sorted lexicographically: the parity-valid
    cells of its (s, t) rectangle, and the corners outside it (the tips)."""
    _check_params(family, k, l)
    if family == "H1":
        s_hi, t_lo, t_hi = 2 * k, 0, 2 * l
    elif family == "H2":
        s_hi, t_lo, t_hi = 2 * k + 1, -1, 2 * l
    else:
        s_hi, t_lo, t_hi = 2 * k + 2, -1, 2 * l + 1
    cells = [
        (s, t)
        for s in range(s_hi + 1)
        for t in range(t_lo, t_hi + 1)
        if (s - t) % 2 == 0
    ]
    cells += [
        (s, t)
        for s, t in family_corner_cells(family, k, l)
        if not (0 <= s <= s_hi and t_lo <= t <= t_hi)
    ]
    return tuple(sorted(cells))


def family_corner_cells(family: str, k: int, l: int) -> tuple[Cell, Cell, Cell, Cell]:
    """Corner cells (a, b, c, d) of the family."""
    _check_params(family, k, l)
    if family == "H1":
        return (0, 0), (0, 2 * l), (2 * k, 2 * l), (2 * k, 0)
    if family == "H2":
        return (-1, -1), (0, 2 * l), (2 * k + 1, 2 * l + 1), (2 * k + 1, -1)
    return (-1, -1), (2 * k + 2, -2), (2 * k + 3, 2 * l + 1), (0, 2 * l + 2)


def family_size(family: str, k: int, l: int) -> int:
    """Closed-form cell count of the family."""
    _check_params(family, k, l)
    if family == "H1":
        return (k + 1) * (l + 1) + k * l
    if family == "H2":
        return 2 * k * l + 2 * k + 2 * l + 4
    return 2 * k * l + 3 * k + 3 * l + 8


def family_hyperbolicity(family: str, k: int, l: int) -> HalfInt:
    """Exact hyperbolicity of the family."""
    _check_params(family, k, l)
    base = min(k, l)
    if family == "H1":
        return HalfInt.from_int(base)
    if family == "H2":
        return HalfInt(2 * base + 1)
    return HalfInt.from_int(base + 1)


def host_side(family: str, k: int, l: int) -> int:
    """Side length of the smallest square king grid hosting the family."""
    _check_params(family, k, l)
    if family == "H1":
        return k + l + 1
    if family == "H2":
        return k + l + 3
    return k + l + 4


def cell_to_host(family: str, k: int, l: int, cell: Cell) -> tuple[int, int]:
    """Map a rotated cell to nonnegative (x, y) inside the host king grid."""
    s, t = cell
    x, y = (s + t) // 2, (s - t) // 2
    if family == "H1":
        return x, y + l
    if family == "H2":
        return x + 1, y + l
    return x + 1, y + l + 1


def _check_params(family: str, k: int, l: int) -> None:
    if family not in FAMILY_NAMES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILY_NAMES}")
    lo = 1 if family == "H1" else 0
    if k < lo or l < lo:
        raise ValueError(f"{family} requires parameters >= {lo}, got ({k}, {l})")


@dataclass(frozen=True)
class CornerPattern:
    """The six pairwise corner distances of a family instance."""

    sides: tuple[int, int, int, int]  # d(a,b), d(b,c), d(c,d), d(d,a)
    diagonals: tuple[int, int]  # d(a,c), d(b,d)


def expected_corner_pattern(family: str, k: int, l: int) -> CornerPattern:
    """Corner distances the family must realize."""
    _check_params(family, k, l)
    if family == "H1":
        return CornerPattern((l, k, l, k), (k + l, k + l))
    if family == "H2":
        return CornerPattern(
            (l + 1, k + 1, l + 1, k + 1), (k + l + 2, k + l + 1)
        )
    return CornerPattern(
        (k + 2, l + 2, k + 2, l + 2), (k + l + 3, k + l + 3)
    )


@dataclass(frozen=True)
class FamilyGraph:
    """A built family instance: graph, cell layout, and corner vertices."""

    family: str
    k: int
    l: int
    graph: Graph
    cells: tuple[Cell, ...]
    corners: tuple[int, int, int, int]

    @property
    def corner_cells(self) -> tuple[Cell, Cell, Cell, Cell]:
        return tuple(self.cells[c] for c in self.corners)  # type: ignore[return-value]

    @property
    def host_dim(self) -> tuple[int, int]:
        """Dimensions of the smallest square king grid hosting this instance."""
        side = host_side(self.family, self.k, self.l)
        return side, side

    def host_cells(self) -> tuple[tuple[int, int], ...]:
        """Host king-grid coordinates, one (x, y) per vertex in id order."""
        return tuple(
            cell_to_host(self.family, self.k, self.l, cell) for cell in self.cells
        )

    def cell_index(self, cell: Cell) -> int:
        lo = bisect.bisect_left(self.cells, cell)
        if lo == len(self.cells) or self.cells[lo] != cell:
            raise KeyError(f"cell {cell} not in {self.family}({self.k},{self.l})")
        return lo


def build_obstruction(family: str, k: int, l: int | None = None) -> FamilyGraph:
    """Construct the family instance as a standalone graph.

    Vertices are the family cells in lexicographic (s, t) order; two cells are
    adjacent iff their king-move distance is 1.
    """
    if l is None:
        l = k
    cells = family_cells(family, k, l)
    index = {c: i for i, c in enumerate(cells)}
    edges = []
    for i, c1 in enumerate(cells):
        s, t = c1
        for ds, dt in ((0, 2), (1, 1), (1, -1), (2, 0)):
            c2 = (s + ds, t + dt)
            j = index.get(c2)
            if j is not None:
                edges.append((i, j))
    labels = tuple(f"{s},{t}" for s, t in cells)
    g = Graph(
        len(cells),
        edges,
        name=f"{family}({k},{l})",
        vertex_labels=labels,
    )
    corners = tuple(index[c] for c in family_corner_cells(family, k, l))
    return FamilyGraph(family, k, l, g, cells, corners)  # type: ignore[arg-type]


def validate_family(fg: FamilyGraph) -> dict[str, bool]:
    """Run every structural check on a built family; raise on failure.

    Checks: closed-form size, internal metric equals cell distance, corner
    distance pattern, Hellyness, hyperbolicity formula, delta realized on the
    corner quadruple, and isometric placement inside the smallest host grid.
    """
    checks: dict[str, bool] = {}
    fam, k, l, g = fg.family, fg.k, fg.l, fg.graph

    def record(name: str, ok: bool, detail: str = "") -> None:
        checks[name] = bool(ok)
        if not ok:
            raise FamilyValidationError(
                f"{fam}({k},{l}): check {name!r} failed {detail}".rstrip()
            )

    record("size", g.n == family_size(fam, k, l), f"(n={g.n})")

    dm = apsp(g)
    record("metric_matches_cells", bool((dm.dist == cell_metric(fg.cells)).all()))

    a, b, c, d = fg.corners
    pat = expected_corner_pattern(fam, k, l)
    got_sides = (dm.d(a, b), dm.d(b, c), dm.d(c, d), dm.d(d, a))
    got_diag = (dm.d(a, c), dm.d(b, d))
    record(
        "corner_pattern",
        got_sides == pat.sides and got_diag == pat.diagonals,
        f"(sides={got_sides}, diagonals={got_diag})",
    )

    record("helly", bool(is_helly(g, dm=dm)))

    target = family_hyperbolicity(fam, k, l)
    corner_delta = quadruple_delta(dm, a, b, c, d).delta
    record("corner_delta", corner_delta == target, f"(delta={corner_delta})")
    hb = HalfInt(_scan_value(g, dm=dm)[0])
    record("hyperbolicity", hb == target, f"(hb={hb})")

    side = host_side(fam, k, l)
    host = king_grid(side, side)
    placed = fg.host_cells()
    ids = [x * side + y for x, y in placed]
    record("host_in_range", all(0 <= x < side and 0 <= y < side for x, y in placed))
    record("host_vertices_distinct", len(set(ids)) == len(ids))
    host_dm = apsp(host)
    ok, _pair = is_isometric(host, ids, dm=host_dm)
    record("host_isometric", ok)
    # adjacency agrees with the family graph, so the placement is an embedding
    host_edges = host.edge_set()
    record(
        "host_edges_match",
        all(
            ((min(ids[u], ids[v]), max(ids[u], ids[v])) in host_edges)
            for u, v in g.edges()
        ),
    )
    return checks
