"""Immutable simple graphs, edge-list I/O, and product/grid generators.

Vertices are dense 0-based integers.  A graph is built from an (m, 2) array
of vertex ids, checked in numpy (a list of pairs is checked pair by pair and
converted to one); then each block of adjacency rows is set in a boolean
mask, which drops duplicate and reversed pairs.  Each block gives, in one
pass, the three forms the adjacency is kept in: sorted neighbor tuples (for
iteration), per-vertex bitmasks (for the set algebra the scans rely on), and
a CSR copy (the neighbor ids laid end to end, plus each vertex's offset) that
backs ``Graph.reduce_neighbors``, the vectorized per-vertex fold over
neighbors.
"""
from __future__ import annotations

import itertools
import random
import re
from typing import Iterable, Sequence

import numpy as np

# cap on the rows gathered at once by Graph.reduce_neighbors, in bytes, and on
# the adjacency mask of one block of rows in Graph.__init__, in cells
_GATHER_BYTES = 1 << 22

# an edge-list document whose lines are all empty, '#' comments or
# "<digits><blank><digits>" pairs, blanks being spaces and tabs; 18 digits keep
# every id below 2**63, and a comment holds none of the line breaks other than
# "\n" that str.splitlines knows, so each "\n" ends one of its lines
_LINE = r"(?:[0-9]{1,18}[ \t]+[0-9]{1,18}|#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*)?"
_SIMPLE_EDGES = re.compile(rf"(?:{_LINE}\n)*{_LINE}")
_COMMENT = re.compile(r"#[^\n]*")

# random_connected_graph makes at most this many random draws over all its
# redraws, or one redraw if that alone needs more, so that a prob at which a
# draw is almost never connected is refused in bounded time
_DRAW_LIMIT = 10**7


class GraphError(Exception):
    """Invalid graph construction or malformed edge-list input."""


class DisconnectedGraphError(GraphError):
    """A connected graph was required but the input is not connected."""


def bit_rows(mask: np.ndarray) -> list[int]:
    """Row i of a 2-D boolean ``mask`` as a Python int with bit j = mask[i, j].

    One ``np.packbits`` call packs the whole mask and one ``tolist`` call
    cuts it into per-row bytes objects, which is faster than converting row
    views one by one.
    """
    packed = np.packbits(mask, axis=1, bitorder="little")
    # a row as one bytes object; the trailing zero bytes a bytes dtype drops
    # are high zero bits of the little-endian int
    rows = packed.view(f"S{packed.shape[1]}").ravel().tolist()
    return list(map(int.from_bytes, rows, itertools.repeat("little")))


def _edge_array(n: int, edges: np.ndarray | Iterable[tuple[int, int]]) -> np.ndarray:
    """``edges`` as an (m, 2) intp array of ids in 0..n-1 without self-loops.

    An (m, 2) integer array is checked by a few whole-array calls.  Any
    other input, and an array that fails those checks, is walked pair by pair
    in input order, so the first bad pair names the error.
    """
    if isinstance(edges, np.ndarray):
        if edges.ndim == 2 and edges.shape[1] == 2 and edges.dtype.kind in "iu" and (
            not edges.size
            or edges.min() >= 0 and edges.max() < n
            and not (edges[:, 0] == edges[:, 1]).any()
        ):
            return edges.astype(np.intp, copy=False)
        edges = edges.tolist()
    pairs = list(edges)
    for u, v in pairs:
        if not (isinstance(u, int) and isinstance(v, int)):
            raise GraphError(f"vertex ids must be ints, got ({u!r}, {v!r})")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
    return np.array(pairs, np.intp).reshape(-1, 2)


class Graph:
    """Simple undirected graph on vertices 0..n-1.  Treat as immutable."""

    __slots__ = ("n", "m", "neighbors", "adj_bits", "name", "vertex_labels", "_csr")

    def __init__(
        self,
        n: int,
        edges: np.ndarray | Iterable[tuple[int, int]],
        *,
        name: str = "",
        vertex_labels: Sequence[str] | None = None,
        _checked: bool = False,
    ) -> None:
        """Graph on 0..n-1 with the edges of an (m, 2) integer array or an
        iterable of (u, v) pairs.  Duplicate and reversed pairs collapse; a
        non-int id, a self-loop or an id out of range raises GraphError
        naming the first such pair.  ``_checked`` says that ``edges`` is an
        (m, 2) intp array already known to be valid, as ``load_graph`` makes,
        so it is not checked again.  The adjacency mask is set a block of
        rows at a time, each under _GATHER_BYTES cells, so no n x n
        temporary is made.
        """
        if n < 1:
            raise GraphError("graph needs at least one vertex")
        u, v = (edges if _checked else _edge_array(n, edges)).T
        step = max(1, _GATHER_BYTES // n)
        bits: list[int] = []
        cells: list[np.ndarray] = []  # adjacent pairs (x, y) as cell x * n + y
        for r0 in range(0, n, step):
            block = np.zeros((min(step, n - r0), n), bool)
            for a, b in ((u, v), (v, u)):
                if step < n:  # the adjacencies of rows r0..r0+step-1
                    inside = (a >= r0) & (a < r0 + step)
                    a, b = a[inside] - r0, b[inside]
                block[a, b] = True
            cells.append(np.flatnonzero(block) + r0 * n)
            bits += bit_rows(block)
        flat_cells = np.concatenate(cells) if len(cells) > 1 else cells[0]
        nbrs = flat_cells % n
        offsets = np.searchsorted(flat_cells, np.arange(0, n * n + 1, n))
        flat, bounds = nbrs.tolist(), offsets.tolist()
        self.n = n
        self.m = len(flat) // 2
        self.neighbors: tuple[tuple[int, ...], ...] = tuple(
            tuple(flat[a:b]) for a, b in itertools.pairwise(bounds)
        )
        self.adj_bits: tuple[int, ...] = tuple(bits)
        self.name = name
        if vertex_labels is not None and len(vertex_labels) != n:
            raise GraphError("vertex_labels length must equal n")
        self.vertex_labels = tuple(vertex_labels) if vertex_labels is not None else None
        self._csr = (nbrs, offsets)

    # -- basic queries --------------------------------------------------
    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.neighbors[u] if u < v]

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges())

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj_bits[u] >> v & 1)

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def is_connected(self) -> bool:
        return self.component_bits() == (1 << self.n) - 1

    def component_bits(self) -> int:
        """Bitmask of the vertices in the component of vertex 0."""
        reached = frontier = 1
        adj = self.adj_bits
        while frontier:
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                nxt |= adj[low.bit_length() - 1]
                m ^= low
            frontier = nxt & ~reached
            reached |= frontier
        return reached

    def reduce_neighbors(self, ufunc: np.ufunc, table: np.ndarray) -> np.ndarray:
        """out[v] = ufunc.reduce(table[N(v)], axis=0) for every vertex v.

        Every vertex needs a neighbour (a connected graph on n >= 2
        vertices).  The rows table[u] of all adjacencies (u in N(v)) are
        gathered over the CSR copy made at construction, in chunks of at
        most _GATHER_BYTES, or one row when a row is larger; a vertex whose
        neighbours span several chunks folds their partial results.
        """
        nbrs, offsets = self._csr
        starts = offsets[:-1]
        step = max(1, _GATHER_BYTES // max(1, table[0].nbytes))
        if len(nbrs) <= step:
            return ufunc.reduceat(table[nbrs], starts, axis=0)
        out = np.empty((self.n,) + table.shape[1:], table.dtype)
        for e0 in range(0, len(nbrs), step):
            e1 = min(e0 + step, len(nbrs))
            # the vertices va..vb-1 own the adjacency slots e0..e1-1
            va = int(np.searchsorted(starts, e0, "right")) - 1
            vb = int(np.searchsorted(starts, e1, "left"))
            local = starts[va:vb] - e0
            local[0] = 0
            part = ufunc.reduceat(table[nbrs[e0:e1]], local, axis=0)
            if starts[va] < e0:  # va's neighbours began in the last chunk
                ufunc(out[va], part[0], out=out[va])
                out[va + 1:vb] = part[1:]
            else:
                out[va:vb] = part
        return out

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"Graph(n={self.n}, m={self.m}{tag})"


# ---------------------------------------------------------------------------
# Edge-list I/O
# ---------------------------------------------------------------------------

def positive_int(text: str) -> int:
    """The integer ``text`` spells; ValueError unless it is at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None
    if value < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


def load_graph(text: str, *, name: str = "") -> Graph:
    """Parse an edge-list document: one "u v" pair per line, '#' comments.

    Vertices are 0..max-id.  Duplicate edges collapse; self-loops, non-integer
    tokens, empty edge sets and disconnected graphs are errors.  The graph is
    called ``name``.

    A document whose lines are all empty, ``#`` comments or
    ``<digits><blank><digits>`` pairs (blanks are spaces or tabs, ids have at
    most 18 digits, nothing before or after) is recognised by one regular
    expression; its comments are cut out and its ids converted by one
    ``np.fromstring`` call.  This covers every file ``to_edge_list`` writes.
    Every other document (indented lines, CRLF, ``+3``, ``1_0``, non-ASCII
    digits, any malformed line) and any document with a self-loop go through
    the per-line loop, the only path that accepts those inputs and words
    those errors with their line numbers.
    """
    ids = _simple_ids(text)
    if ids is None:
        edges, max_id = _read_lines(text)
    else:
        edges, max_id = ids, int(ids.max(initial=-1))
    if not len(edges):
        raise GraphError("empty edge set")
    # a connected graph on ids 0..max_id has at least max_id distinct edges;
    # refusing fewer here keeps a huge stray id from allocating its vertices
    if max_id > len(edges):
        raise DisconnectedGraphError("input graph is not connected")
    # both parses refuse negative ids and self-loops, and every id is now at
    # most len(edges), so the edges fit an intp array
    g = Graph(max_id + 1, np.asarray(edges, np.intp), name=name, _checked=True)
    if not g.is_connected():
        raise DisconnectedGraphError("input graph is not connected")
    return g


def _simple_ids(text: str) -> np.ndarray | None:
    """The (m, 2) ids of a document of blank, comment and digit-pair lines
    without self-loops; None for any other document."""
    if not _SIMPLE_EDGES.fullmatch(text):
        return None
    body = _COMMENT.sub("", text)
    if body.isspace():  # np.fromstring reads blanks alone as one 0
        body = ""
    ids = np.fromstring(body, np.int64, sep=" ").reshape(-1, 2)
    return None if (ids[:, 0] == ids[:, 1]).any() else ids


def _read_lines(text: str) -> tuple[list[tuple[int, int]], int]:
    """The edges of an edge-list document, read line by line, and the
    largest id (-1 for none); errors name their line."""
    edges: list[tuple[int, int]] = []
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer token in {raw!r}") from None
        if u < 0 or v < 0:
            raise GraphError(f"line {lineno}: negative vertex id in {raw!r}")
        if u == v:
            raise GraphError(f"line {lineno}: self-loop at vertex {u}")
        edges.append((u, v))
        max_id = max(max_id, u, v)
    return edges, max_id


def to_edge_list(g: Graph, *, header: Sequence[str] = ()) -> str:
    """Serialize to the edge-list format, with optional '#' header lines."""
    lines = [f"# {h}" for h in header]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def path_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs at least one vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)], name=f"P{n}")


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least three vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)], name=f"C{n}")


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs at least one vertex")
    return Graph(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)], name=f"K{n}"
    )


def strong_product(g: Graph, h: Graph) -> Graph:
    """Strong product: pairs adjacent iff each coordinate is equal or adjacent
    (and the pairs differ).  Vertex (a,b) gets id a*h.n + b."""
    edges: list[tuple[int, int]] = []
    for a in range(g.n):
        for b in range(h.n):
            uid = a * h.n + b
            a_opts = (a,) + g.neighbors[a]
            b_opts = (b,) + h.neighbors[b]
            for a2 in a_opts:
                for b2 in b_opts:
                    vid = a2 * h.n + b2
                    if vid > uid:
                        edges.append((uid, vid))
    labels = [f"({a},{b})" for a in range(g.n) for b in range(h.n)]
    return Graph(
        g.n * h.n,
        edges,
        name=f"({g.name or 'G'} x {h.name or 'H'})",
        vertex_labels=labels,
    )


def king_grid(p: int, q: int) -> Graph:
    """Strong product of two paths; its metric is the Chebyshev metric on
    cells (x,y) with 0 <= x < p, 0 <= y < q.  Vertex (x,y) has id x*q + y."""
    if p < 1 or q < 1:
        raise GraphError("king grid sides must be >= 1")
    g = strong_product(path_graph(p), path_graph(q))
    return Graph(
        g.n,
        g.edges(),
        name=f"king_grid({p},{q})",
        vertex_labels=[f"{x},{y}" for x in range(p) for y in range(q)],
    )


def random_connected_graph(n: int, prob: float, seed: int) -> Graph:
    """Seeded G(n, prob), redrawn until connected.  Deterministic per seed.

    A redraw takes one random draw per vertex pair, in the order (0, 1),
    (0, 2), ..., (n-2, n-1).  At most 10,000 redraws are made, and no more
    than ``_DRAW_LIMIT`` draws in all (but always one redraw); past that the
    sample is refused with GraphError.
    """
    if n < 1:
        raise GraphError("need at least one vertex")
    if not (0.0 <= prob <= 1.0):
        raise GraphError("edge probability must be in [0,1]")
    name = f"gnp({n},{prob},{seed})"
    if n == 1:
        return Graph(1, [], name=name)
    rng = random.Random(seed)
    redraws = min(10000, max(1, _DRAW_LIMIT // (n * (n - 1) // 2)))
    for _ in range(redraws):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < prob]
        if not edges:
            continue
        g = Graph(n, edges, name=name)
        if g.is_connected():
            return g
    raise GraphError(
        f"no connected G({n},{prob}) sample found for seed {seed}; raise prob"
    )


# ---------------------------------------------------------------------------
# Subgraphs
# ---------------------------------------------------------------------------

def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on ``vertices`` plus the old-id -> new-id map."""
    vs = sorted(set(vertices))
    if not vs:
        raise GraphError("vertex set must be nonempty")
    for v in vs:
        if not (0 <= v < g.n):
            raise GraphError(f"vertex {v} out of range")
    index = {v: i for i, v in enumerate(vs)}
    new_id = np.full(g.n, -1, np.intp)
    new_id[vs] = np.arange(len(vs))
    nbrs, offsets = g._csr
    # each adjacency slot as (owner, neighbour) in new ids, kept when both
    # ends are chosen; new ids keep the old order, so u < v stays u < v
    src = np.repeat(new_id, np.diff(offsets))
    dst = new_id[nbrs]
    keep = (src >= 0) & (dst > src)
    edges = np.stack((src[keep], dst[keep]), axis=1)
    labels = None
    if g.vertex_labels is not None:
        labels = [g.vertex_labels[v] for v in vs]
    sub = Graph(
        len(vs),
        edges,
        name=f"{g.name}[{len(vs)}]" if g.name else "",
        vertex_labels=labels,
    )
    return sub, index

