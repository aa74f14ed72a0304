"""Immutable simple graphs, edge-list I/O, and product/grid generators.

Vertices are dense 0-based integers.  Adjacency is kept both as sorted
neighbor tuples (for iteration) and as per-vertex bitmasks (for the set
algebra the scans rely on); a CSR copy of it (the neighbor tuples laid end
to end, plus each vertex's offset) is built on first use and backs
``Graph.reduce_neighbors``, the vectorized per-vertex fold over neighbors.
"""
from __future__ import annotations

import itertools
import random
from typing import Iterable, Sequence

import numpy as np

# cap on the rows gathered at once by Graph.reduce_neighbors, in bytes
_GATHER_BYTES = 1 << 22

# random_connected_graph makes at most this many random draws over all its
# redraws, or one redraw if that alone needs more, so that a prob at which a
# draw is almost never connected is refused in bounded time
_DRAW_LIMIT = 10**7


class GraphError(Exception):
    """Invalid graph construction or malformed edge-list input."""


class DisconnectedGraphError(GraphError):
    """A connected graph was required but the input is not connected."""


class Graph:
    """Simple undirected graph on vertices 0..n-1.  Treat as immutable."""

    __slots__ = ("n", "m", "neighbors", "adj_bits", "name", "vertex_labels", "_csr")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        *,
        name: str = "",
        vertex_labels: Sequence[str] | None = None,
    ) -> None:
        if n < 1:
            raise GraphError("graph needs at least one vertex")
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (isinstance(u, int) and isinstance(v, int)):
                raise GraphError(f"vertex ids must be ints, got ({u!r}, {v!r})")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            seen.add((u, v) if u < v else (v, u))
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in seen:
            nbrs[u].add(v)
            nbrs[v].add(u)
        self.n = n
        self.m = len(seen)
        self.neighbors: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in nbrs
        )
        bits = []
        for s in nbrs:
            mask = 0
            for v in s:
                mask |= 1 << v
            bits.append(mask)
        self.adj_bits: tuple[int, ...] = tuple(bits)
        self.name = name
        if vertex_labels is not None and len(vertex_labels) != n:
            raise GraphError("vertex_labels length must equal n")
        self.vertex_labels = tuple(vertex_labels) if vertex_labels is not None else None
        self._csr: tuple[np.ndarray, np.ndarray] | None = None

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
        gathered in chunks of at most _GATHER_BYTES, or one row when a row
        is larger; a vertex whose neighbours span several chunks folds
        their partial results.
        """
        if self._csr is None:
            nbrs = np.fromiter(
                itertools.chain.from_iterable(self.neighbors), np.intp, 2 * self.m
            )
            starts = np.zeros(self.n, np.intp)
            np.cumsum([len(a) for a in self.neighbors[:-1]], out=starts[1:])
            self._csr = (nbrs, starts)
        nbrs, starts = self._csr
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
    """
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
    if not edges:
        raise GraphError("empty edge set")
    # a connected graph on ids 0..max_id has at least max_id distinct edges;
    # refusing fewer here keeps a huge stray id from allocating its vertices
    if max_id > len(edges):
        raise DisconnectedGraphError("input graph is not connected")
    g = Graph(max_id + 1, edges, name=name)
    if not g.is_connected():
        raise DisconnectedGraphError("input graph is not connected")
    return g


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
    edges = [
        (index[u], index[v])
        for u in vs
        for v in g.neighbors[u]
        if u < v and v in index
    ]
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

