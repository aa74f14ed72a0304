"""Independent brute-force oracles for cross-checking the library.

The oracles recompute results from the raw adjacency structure with naive
algorithms (dict BFS, exhaustive enumeration) and share no code with the
package internals.  ``set_graph_adjacency`` builds a graph's adjacency one
edge at a time into Python sets, and ``line_loop_load_graph`` reads an edge
list one line at a time on top of it; both raise the package's exceptions
with its exact messages.  The exceptions at the end of the file run on the
package's distance matrix, whose disk masks the oracles pack themselves
(``packed_balls``): ``helly_bruteforce`` and
``pseudo_modular_bruteforce`` enumerate its distinct disks
(``distinct_disks``, size-capped by ``EnumerationBudgetError``),
``triple_witness`` runs the vertex-triple test on its distance rows and
disk masks, ``pair_loop_thinness`` loops over its endpoint pairs,
``reorder_thinness`` batches them per source over a reordered matrix,
``all_pairs_hyperbolicity`` is the four-point scan over all of its pairs,
``tie_scan_hyperbolicity`` the one-pass tie-keeping scan over its
far-apart pairs, found by ``fold_far_apart``'s neighbour max-fold over the
matrix (both short-circuit block graphs by ``dfs_is_block_graph``,
a Hopcroft-Tarjan DFS over the adjacency whose components must be cliques),
``box_extremal_functions`` enumerates the hull's candidate box
under the package's own budget pre-check, ``dfs_extremal_functions`` runs
the hull search's prunes recursively on one partial function at a time,
``find_isometric_embedding`` searches its distance rows,
``pair_loop_scan_quadruples`` runs the quadruple-pattern scan one (x, z)
pair at a time,
``vertex_loop_interval_violation`` tests conditions (a) and (b') one vertex
v at a time, ``list_walk_clique_helly_fails`` and
``list_walk_undominated_c4`` test conditions (c) and (d) over lists of bit
ids, every triangle through its member loop and one ``np.nonzero`` call per
vertex, ``bit_walk_power_window``, ``bit_walk_power_split_diagonal``
and ``bit_walk_c4_flags`` step through its power rows, and through the
adjacency of G and of a built G^2, one bit position at a time, and
``bfs_pick_placement`` places a certified copy one cell at a time, in the
breadth-first order of ``bfs_cell_order``, over its disk masks.
"""
from __future__ import annotations

import random
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from operator import sub
from typing import Callable, Sequence

import networkx as nx
import numpy as np
from networkx.generators.atlas import graph_atlas_g

from hellymetric import (
    DisconnectedGraphError,
    DiskConstraint,
    DistanceMatrix,
    Graph,
    GraphError,
    HalfInt,
    MaterializeError,
    PseudoModularCheck,
    ThinnessWitness,
    apsp,
    expected_corner_pattern,
    family_cells,
    graph_power,
)
from hellymetric.families import family_corner_cells
from hellymetric.hull import HullBudgetError, resolve_budget
from hellymetric.hyperbolicity import HyperbolicityWitness


class EnumerationBudgetError(Exception):
    """An exhaustive check was asked to run past its instance-size cap."""


Adjacency = tuple[int, tuple[tuple[int, ...], ...], tuple[int, ...]]


def set_graph_adjacency(n: int, edges) -> Adjacency:
    """(m, neighbors, adj_bits) of the graph on 0..n-1 with ``edges``, built
    one pair at a time into Python sets; the first bad pair, in input order,
    raises GraphError with ``Graph``'s message."""
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
    bits = []
    for s in nbrs:
        mask = 0
        for v in s:
            mask |= 1 << v
        bits.append(mask)
    return len(seen), tuple(tuple(sorted(s)) for s in nbrs), tuple(bits)


def line_loop_load_graph(text: str) -> tuple[int, Adjacency]:
    """(n, adjacency) of an edge-list document read one line at a time, or
    the error ``load_graph`` raises for it, with the same message."""
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
    if max_id > len(edges):
        raise DisconnectedGraphError("input graph is not connected")
    adjacency = set_graph_adjacency(max_id + 1, edges)
    seen, todo = {0}, [0]
    while todo:
        for v in adjacency[1][todo.pop()]:
            if v not in seen:
                seen.add(v)
                todo.append(v)
    if len(seen) <= max_id:
        raise DisconnectedGraphError("input graph is not connected")
    return max_id + 1, adjacency


def bfs_distances(g: Graph, source: int) -> dict[int, int]:
    dist = {source: 0}
    q = deque([source])
    while q:
        u = q.popleft()
        for v in g.neighbors[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def all_distances(g: Graph) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for s in range(g.n):
        for v, d in bfs_distances(g, s).items():
            out[(s, v)] = d
    return out


def gromov_product(dm: DistanceMatrix, x: int, y: int, z: int) -> HalfInt:
    """(x|y) anchored at z: half of d(x,z)+d(y,z)-d(x,y)."""
    return HalfInt(dm.d(x, z) + dm.d(y, z) - dm.d(x, y))


def loop_ball_bits(dm: DistanceMatrix, center: int, radius: int) -> int:
    """Bitmask of D(center, radius) by a plain loop over the vertices."""
    mask = 0
    for v in range(dm.n):
        if dm.d(center, v) <= radius:
            mask |= 1 << v
    return mask


@lru_cache(maxsize=8)
def packed_balls(dm: DistanceMatrix) -> Callable[[int, int], int]:
    """The disk masks of ``dm``: ball(center, radius) is the bitmask of
    D(center, radius), packed with one ``np.packbits`` call on first use and
    cached per (center, radius); the last few matrices keep their caches."""
    cache: dict[tuple[int, int], int] = {}

    def ball(center: int, radius: int) -> int:
        mask = cache.get((center, radius))
        if mask is None:
            row = np.packbits(dm.dist[center] <= radius, bitorder="little")
            mask = cache[center, radius] = int.from_bytes(row.tobytes(), "little")
        return mask

    return ball


def brute_hyperbolicity(g: Graph) -> Fraction:
    """Largest (top sum - second sum)/2 over all vertex quadruples."""
    d = all_distances(g)
    best = 0
    for u, v, w, x in combinations(range(g.n), 4):
        sums = sorted(
            (
                d[(u, v)] + d[(w, x)],
                d[(u, w)] + d[(v, x)],
                d[(u, x)] + d[(v, w)],
            )
        )
        best = max(best, sums[2] - sums[1])
    return Fraction(best, 2)


def far_apart_pairs(g: Graph) -> set[tuple[int, int]]:
    """Pairs u < v such that no neighbour of u is farther from v than u is,
    and no neighbour of v is farther from u than v is."""
    d = all_distances(g)
    out: set[tuple[int, int]] = set()
    for u, v in combinations(range(g.n), 2):
        duv = d[(u, v)]
        if all(d[(a, v)] <= duv for a in g.neighbors[u]) and all(
            d[(b, u)] <= duv for b in g.neighbors[v]
        ):
            out.add((u, v))
    return out


def far_apart_witness(g: Graph) -> tuple[int, int, int, int]:
    """The lexicographically smallest sorted maximizing quadruple whose
    largest-sum pairing is two far-apart pairs; (0, 0, 0, 0) when every
    quadruple has delta 0.  Raises if no maximizer has that form."""
    d = all_distances(g)
    far = far_apart_pairs(g)
    gaps: dict[tuple[int, int, int, int], tuple[int, tuple]] = {}
    for u, v, w, x in combinations(range(g.n), 4):
        pairings = sorted(
            (d[a] + d[b], a, b)
            for a, b in (((u, v), (w, x)), ((u, w), (v, x)), ((u, x), (v, w)))
        )
        gaps[(u, v, w, x)] = (pairings[2][0] - pairings[1][0], pairings[2][1:])
    best = max((gap for gap, _ in gaps.values()), default=0)
    if best == 0:
        return (0, 0, 0, 0)
    for q, (gap, top) in gaps.items():  # in lexicographic order
        if gap == best and top[0] in far and top[1] in far:
            return q
    raise AssertionError("no maximizer has two far-apart pairs on top")


def brute_thinness(g: Graph) -> int:
    """Max distance between two interval vertices equidistant from an end."""
    d = all_distances(g)
    best = 0
    for x in range(g.n):
        for y in range(g.n):
            if x == y:
                continue
            dxy = d[(x, y)]
            for u in range(g.n):
                if d[(x, u)] + d[(u, y)] != dxy:
                    continue
                for v in range(u + 1, g.n):
                    if d[(x, v)] + d[(v, y)] != dxy:
                        continue
                    if d[(x, u)] == d[(x, v)]:
                        best = max(best, d[(u, v)])
    return best


def brute_extremal_functions(g: Graph) -> list[tuple[int, ...]]:
    """All extremal radius functions by exhaustive product enumeration."""
    d = all_distances(g)
    n = g.n
    ecc = [max(d[(v, u)] for u in range(n)) for v in range(n)]
    out = []
    for f in product(*(range(e + 1) for e in ecc)):
        if any(
            f[u] + f[v] < d[(u, v)] for u in range(n) for v in range(u + 1, n)
        ):
            continue
        if all(f[u] == max(d[(u, v)] - f[v] for v in range(n)) for u in range(n)):
            out.append(f)
    return sorted(out)


def brute_is_helly(g: Graph) -> bool:
    """Exhaustive subfamily search over all distinct disks."""
    d = all_distances(g)
    n = g.n
    masks = set()
    for v in range(n):
        ecc = max(d[(v, u)] for u in range(n))
        for r in range(1, ecc + 1):
            mask = 0
            for u in range(n):
                if d[(v, u)] <= r:
                    mask |= 1 << u
            if mask != (1 << n) - 1:
                masks.add(mask)
    disks = sorted(masks)
    for size in range(2, len(disks) + 1):
        for fam in combinations(disks, size):
            inter = (1 << n) - 1
            for mk in fam:
                inter &= mk
            if inter:
                continue
            if all(a & b for a, b in combinations(fam, 2)):
                return False
    return True


def induced_c4_quadruples(g: Graph) -> list[tuple[int, int, int, int]]:
    """All induced 4-cycles as (x, y, z, t) with diagonals (x,z) and (y,t)."""
    out = []
    for x in range(g.n):
        for z in range(x + 1, g.n):
            if g.has_edge(x, z):
                continue
            common = [y for y in g.neighbors[x] if g.has_edge(y, z)]
            for i in range(len(common)):
                for j in range(i + 1, len(common)):
                    y, t = common[i], common[j]
                    if not g.has_edge(y, t):
                        out.append((x, y, z, t))
    return out


def to_networkx(g: Graph) -> nx.Graph:
    ng = nx.Graph()
    ng.add_nodes_from(range(g.n))
    ng.add_edges_from(g.edges())
    return ng


def from_networkx(ng: nx.Graph) -> Graph:
    mapping = {v: i for i, v in enumerate(sorted(ng.nodes()))}
    return Graph(
        ng.number_of_nodes(),
        [(mapping[u], mapping[v]) for u, v in ng.edges()],
    )


def atlas_connected_graphs(max_n: int = 7) -> list[Graph]:
    """All connected graphs with 1..max_n vertices from the atlas."""
    out = []
    for ag in graph_atlas_g():
        n = ag.number_of_nodes()
        if n == 0 or n > max_n:
            continue
        if not nx.is_connected(ag):
            continue
        out.append(from_networkx(ag))
    return out


def star_graph(leaves: int) -> Graph:
    """K(1, leaves), centred at vertex 0."""
    return Graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)], name=f"star-{leaves}")


def random_tree(n: int, seed: int) -> Graph:
    """A seeded random recursive tree: vertex v hangs below a random u < v."""
    rng = random.Random(seed)
    return Graph(n, [(v, rng.randrange(v)) for v in range(1, n)], name=f"tree-{n}-{seed}")


def clique_cactus(sizes: Sequence[int], seed: int) -> Graph:
    """Cliques of the given sizes, each glued at one vertex to a random
    earlier vertex, so that every block is one of them."""
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    n = 1
    for b in sizes:
        clique = [rng.randrange(n), *range(n, n + b - 1)]
        n += b - 1
        edges += list(combinations(clique, 2))
    return Graph(n, edges, name=f"cactus-{seed}")


def distinct_disks(
    dm: DistanceMatrix, *, max_disks: int
) -> list[tuple[int, DiskConstraint]]:
    """All distinct nontrivial disks (mask, constraint); whole-V disks dropped.

    Raises EnumerationBudgetError past ``max_disks`` disks."""
    full = (1 << dm.n) - 1
    ball = packed_balls(dm)
    seen: set[int] = set()
    out: list[tuple[int, DiskConstraint]] = []
    for v in range(dm.n):
        for r in range(int(dm.ecc[v]) + 1):
            mask = ball(v, r)
            if mask == full or mask in seen:
                continue
            seen.add(mask)
            out.append((mask, DiskConstraint(v, r)))
    if len(out) > max_disks:
        raise EnumerationBudgetError(
            f"{len(out)} distinct disks exceed the cap of {max_disks}"
        )
    return out


def pseudo_modular_bruteforce(
    g: Graph, *, dm: DistanceMatrix | None = None, max_disks: int = 400
) -> PseudoModularCheck:
    """Do all triples of pairwise-intersecting disks share a vertex?

    Literal enumeration over distinct nontrivial disks; the triple count is
    cubic in the number of disks, hence the cap.
    """
    dm = dm or apsp(g)
    disks = distinct_disks(dm, max_disks=max_disks)
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


def helly_bruteforce(
    g: Graph, *, dm: DistanceMatrix | None = None, max_disks: int = 22
) -> bool:
    """Exhaustive search for a pairwise-intersecting disk subfamily with empty
    intersection.  Independent of the triple test; only for small instances."""
    dm = dm or apsp(g)
    disks = distinct_disks(dm, max_disks=max_disks)
    disks.sort(key=lambda mc: bin(mc[0]).count("1"))
    masks = [m for m, _ in disks]
    k = len(masks)

    def dfs(start: int, chosen: list[int], inter: int) -> bool:
        # if no remaining disk can shrink the running intersection, give up
        if all(not (inter & ~masks[j]) for j in range(start, k)):
            return False
        for j in range(start, k):
            mj = masks[j]
            if any(not (mj & mc) for mc in chosen):
                continue  # would break pairwise intersection
            new_inter = inter & mj
            if not new_inter:
                return True  # pairwise-intersecting, common intersection empty
            chosen.append(mj)
            if dfs(j + 1, chosen, new_inter):
                return True
            chosen.pop()
        return False

    return not dfs(0, [], (1 << dm.n) - 1)


def triple_witness(dm: DistanceMatrix) -> tuple[DiskConstraint, ...] | None:
    """Classical hypergraph triple test over the disk family: the minimized
    witness of the lexicographically first failing vertex triple, or None if
    none fails (then the graph is Helly).

    For a vertex triple {a,b,c} it intersects all disks containing at least
    two of them; per center v the smallest such disk has radius
    median(d(v,a), d(v,b), d(v,c)).
    """
    n = dm.n
    dist = dm.dist
    rows = dist.tolist()
    ball = packed_balls(dm)
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
                dc_np = dist[c]
                # med3 = sum - max - min, computed row-wise
                med = (
                    sum_ab
                    + dc_np
                    - np.maximum(hi_ab, dc_np)
                    - np.minimum(lo_ab, dc_np)
                )
                m = (
                    ball(a, min(dab, dac))
                    & ball(b, min(dab, dbc))
                    & ball(c, min(dac, dbc))
                )
                while m:
                    low = m & -m
                    x = low.bit_length() - 1
                    m ^= low
                    if (dist[x] <= med).all():
                        break
                else:
                    return _minimize_empty_family(dm, med)
    return None


def _minimize_empty_family(
    dm: DistanceMatrix, radii: np.ndarray
) -> tuple[DiskConstraint, ...]:
    """Greedily drop disks from {D(v, radii[v])} while the intersection stays
    empty.  The input family is pairwise-intersecting by construction (each
    radius is a median of distances to one vertex triple), and subfamilies
    inherit that."""
    n = dm.n
    keep = list(range(n))
    ball = packed_balls(dm)
    masks = {v: ball(v, int(radii[v])) for v in keep}

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


def pair_loop_thinness(
    g: Graph, dm: DistanceMatrix
) -> tuple[int, ThinnessWitness]:
    """Interval thinness by the literal loop over endpoint pairs x < y.

    One numpy pass per pair; a pair whose slices beat the running best sets
    the witness, so it names the first pair reaching the maximum.
    """
    dist = dm.dist
    n = g.n
    best = 0
    witness = ThinnessWitness((0, 0), 0, (0, 0), 0)
    for x in range(n):
        dx = dist[x]
        for y in range(x + 1, n):
            dxy = int(dx[y])
            ids = np.nonzero(dx + dist[y] == dxy)[0]
            if ids.size <= 2:
                continue
            ks = dx[ids]
            sub = dist[np.ix_(ids, ids)]
            same = ks[:, None] == ks[None, :]
            vals = np.where(same, sub, -1)
            mx = int(vals.max(initial=-1))
            if mx > best:
                pos = np.argwhere(vals == mx)[0]
                u, v = int(ids[pos[0]]), int(ids[pos[1]])
                if u > v:
                    u, v = v, u
                best = mx
                witness = ThinnessWitness((x, y), int(dx[u]), (u, v), mx)
    return best, witness


def reorder_thinness(
    g: Graph, *, dm: DistanceMatrix | None = None
) -> tuple[int, ThinnessWitness]:
    """Interval thinness over a reordered n x n distance matrix per source.

    Each source gets one n x n membership matrix and, per distance level, one
    matrix product; the witness rescans y = x+1, x+2, ... of the first
    source that reaches tau, one |I(x, y)|^2 matrix per y.

    The witness names the lexicographically first endpoints (x, y), x < y,
    whose interval has a slice of diameter tau, that slice's index k = d(x, u),
    and the row-major first pair u < v of that slice at distance tau.  When
    tau is 0 the witness is ((0, 0), 0, (0, 0), 0).
    """
    dm = dm or apsp(g)
    dist = dm.dist.astype(np.int32)  # sums of two int16 distances may not fit
    best, first = 0, -1
    for x in range(g.n):
        ecc = int(dm.ecc[x])
        # two level-k vertices of I(x, y) are at most 2 min(k, ecc - k) apart
        if 2 * (ecc // 2) <= best:
            continue
        order = np.argsort(dist[x], kind="stable")
        ds = dist[x, order]
        d = dist[np.ix_(order, order)]
        # level k of x occupies positions [starts[k], starts[k + 1])
        starts = np.searchsorted(ds, np.arange(ecc + 1))
        member = None
        for k in range(1, ecc):
            lo, hi = int(starts[k]), int(starts[k + 1])
            if hi - lo < 2 or 2 * min(k, ecc - k) <= best:
                continue
            level = d[lo:hi, lo:hi]
            if int(level.max()) <= best:
                continue
            if member is None:
                # member[y, u]: u lies on a shortest (x, y)-path
                member = (ds[:, None] == ds[None, :] + d).astype(np.float32)
            # only endpoints y beyond level k can hold two level-k vertices
            a = member[hi:, lo:hi]
            shared = a.T @ a > 0
            mx = int(np.where(shared, level, -1).max())
            if mx > best:
                best, first = mx, x
    if best == 0:
        return 0, ThinnessWitness((0, 0), 0, (0, 0), 0)
    return best, _first_witness(dist, first, best)


def _first_witness(dist: np.ndarray, x: int, tau: int) -> ThinnessWitness:
    """The witness from the first y > x whose interval I(x, y) reaches tau.

    Only called for the first source whose levels reached tau; a hit there
    with y < x would have reached tau at the earlier source y, since I(x, y)
    and I(y, x) are the same set with mirrored slices.
    """
    dx = dist[x]
    for y in range(x + 1, dist.shape[0]):
        ids = np.nonzero(dx + dist[y] == dx[y])[0]
        if ids.size <= 2:
            continue
        ks = dx[ids]
        vals = np.where(ks[:, None] == ks[None, :], dist[np.ix_(ids, ids)], -1)
        hits = np.argwhere(vals == tau)
        if hits.size:
            # vals is symmetric with a zero diagonal, so the first hit has u < v
            u, v = int(ids[hits[0, 0]]), int(ids[hits[0, 1]])
            return ThinnessWitness((x, y), int(dx[u]), (u, v), tau)
    raise AssertionError(f"source {x} reached thinness {tau} but no y > x does")


def dfs_is_block_graph(g: Graph) -> bool:
    """Every biconnected component a clique (equivalently: zero hyperbolicity)."""
    adj = g.adj_bits
    for comp in dfs_biconnected_components(g):
        bits = 0
        for v in comp:
            bits |= 1 << v
        for v in comp:
            if bits & ~(adj[v] | (1 << v)):
                return False
    return True


def dfs_biconnected_components(g: Graph) -> list[set[int]]:
    """Vertex sets of biconnected components (iterative Hopcroft-Tarjan)."""
    n = g.n
    disc = [-1] * n
    low = [0] * n
    comps: list[set[int]] = []
    edge_stack: list[tuple[int, int]] = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        while stack:
            v, parent, idx = stack.pop()
            if idx == 0:
                disc[v] = low[v] = timer
                timer += 1
            advanced = False
            nbrs = g.neighbors[v]
            while idx < len(nbrs):
                w = nbrs[idx]
                idx += 1
                if disc[w] == -1:
                    edge_stack.append((v, w))
                    stack.append((v, parent, idx))
                    stack.append((w, v, 0))
                    advanced = True
                    break
                if w != parent and disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            if parent != -1:
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:
                    comp: set[int] = set()
                    while edge_stack:
                        a, b = edge_stack.pop()
                        comp.add(a)
                        comp.add(b)
                        if (a, b) == (parent, v):
                            break
                    if comp:
                        comps.append(comp)
    return comps


def _rechecked_witness(
    dist: np.ndarray, q: tuple[int, int, int, int], best: int
) -> tuple[HalfInt, HyperbolicityWitness]:
    """The witness on the scanned quadruple q, whose two largest pairing
    sums, read from ``dist``, must be ``best`` apart."""
    a, b, c, d = q
    sums = tuple(
        int(dist[u, v]) + int(dist[w, x])
        for u, v, w, x in ((a, b, c, d), (a, c, b, d), (a, d, b, c))
    )
    top = sorted(sums)
    assert top[2] - top[1] == best, "scan/recheck mismatch"
    return HalfInt(best), HyperbolicityWitness(q, sums, HalfInt(best))


def all_pairs_hyperbolicity(
    g: Graph, dm: DistanceMatrix, *, threads: int = 1
) -> tuple[HalfInt, HyperbolicityWitness]:
    """The four-point scan over all vertex pairs, with the lex-min witness
    over all maximizing quadruples.

    Pairs are swept in decreasing distance order in chunks of 64 outer
    pairs tiled over 16,384 inner pairs; pairs below the running best are
    pruned, and ties are merged under a lock so the witness does not depend
    on ``threads``.
    """
    chunk, tile = 64, 1 << 14
    zero_witness = HyperbolicityWitness((0, 0, 0, 0), (0, 0, 0), HalfInt(0))
    if g.n < 4 or dfs_is_block_graph(g):
        return HalfInt(0), zero_witness

    dist = dm.dist
    n = g.n
    iu, iv = np.triu_indices(n, k=1)
    duv = dist[iu, iv].astype(np.int32)
    order = np.lexsort((iv, iu, -duv))
    u_arr = iu[order].astype(np.int32)
    v_arr = iv[order].astype(np.int32)
    d_arr = duv[order]
    npairs = d_arr.shape[0]
    d32 = dist.astype(np.int32)

    state = {"best": 0, "witness": None}
    lock = threading.Lock()

    def scan_chunk(i0: int) -> None:
        i1 = min(i0 + chunk, npairs)
        best_now = state["best"]
        if d_arr[i0] < best_now:
            return
        jmax = int(np.searchsorted(-d_arr, -best_now, side="right"))
        jmax = min(max(jmax, 1), i1)
        for j0 in range(0, jmax, tile):
            scan_tile(i0, i1, j0, min(j0 + tile, jmax))

    def scan_tile(i0: int, i1: int, j0: int, j1: int) -> None:
        U, V, DO = u_arr[i0:i1], v_arr[i0:i1], d_arr[i0:i1]
        W, X = u_arr[j0:j1], v_arr[j0:j1]
        s1 = DO[:, None] + d_arr[None, j0:j1]
        s2 = d32[np.ix_(U, W)] + d32[np.ix_(V, X)]
        s3 = d32[np.ix_(U, X)] + d32[np.ix_(V, W)]
        gap = s1 - np.maximum(s2, s3)
        # only pairings with inner index <= outer index are this visit's duty
        cols = np.arange(j0, j1)[None, :]
        rows = np.arange(i0, i1)[:, None]
        gap = np.where(cols <= rows, gap, -1)
        mx = int(gap.max(initial=-1))
        if mx < 0:
            return
        with lock:
            if mx < state["best"]:
                return
            hits = np.argwhere(gap == mx)
            quads = np.stack(
                [
                    U[hits[:, 0]],
                    V[hits[:, 0]],
                    W[hits[:, 1]],
                    X[hits[:, 1]],
                ],
                axis=1,
            )
            quads.sort(axis=1)
            pick = np.lexsort((quads[:, 3], quads[:, 2], quads[:, 1], quads[:, 0]))[0]
            cand = tuple(int(t) for t in quads[pick])
            if mx > state["best"]:
                state["best"] = mx
                state["witness"] = cand
            elif state["witness"] is None or cand < state["witness"]:
                state["witness"] = cand

    chunk_starts = list(range(0, npairs, chunk))
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(scan_chunk, chunk_starts))
    else:
        for i0 in chunk_starts:
            if d_arr[i0] < state["best"]:
                break
            scan_chunk(i0)

    if state["witness"] is None or state["best"] == 0:
        return HalfInt(0), zero_witness
    return _rechecked_witness(dist, state["witness"], state["best"])


def fold_far_apart(g: Graph, dist: np.ndarray) -> np.ndarray:
    """far[u, v]: no neighbour of u is farther from v, nor of v from u."""
    # reach[u, v]: the largest distance from a neighbour of u to v
    reach = g.reduce_neighbors(np.maximum, dist)
    return (reach <= dist) & (reach.T <= dist)


def tie_scan_hyperbolicity(
    g: Graph, dm: DistanceMatrix, *, threads: int = 1
) -> tuple[HalfInt, HyperbolicityWitness]:
    """The one-pass far-apart scan that keeps every tie of the running best.

    Far-apart pairs are swept in decreasing distance order in chunks of 64
    outer pairs tiled over 16,384 inner pairs; pairs below the running best
    are pruned, and each tile's lex-min tie is merged under a lock, so the
    witness is the lex-min sorted maximizer whose largest-sum pairing is two
    far-apart pairs, whatever ``threads`` is.
    """
    chunk, tile = 64, 1 << 14
    zero_witness = HyperbolicityWitness((0, 0, 0, 0), (0, 0, 0), HalfInt(0))
    if g.n < 4 or dfs_is_block_graph(g):
        return HalfInt(0), zero_witness

    dist = dm.dist
    iu, iv = np.nonzero(np.triu(fold_far_apart(g, dist), 1))
    duv = dist[iu, iv].astype(np.int32)
    order = np.lexsort((iv, iu, -duv))
    u_arr = iu[order].astype(np.int32)
    v_arr = iv[order].astype(np.int32)
    d_arr = duv[order]
    npairs = d_arr.shape[0]
    d32 = dist.astype(np.int32)

    state = {"best": 0, "witness": None}
    lock = threading.Lock()

    def scan_chunk(i0: int) -> None:
        i1 = min(i0 + chunk, npairs)
        best_now = state["best"]
        if d_arr[i0] < best_now:
            return
        jmax = int(np.searchsorted(-d_arr, -best_now, side="right"))
        jmax = min(max(jmax, 1), i1)
        for j0 in range(0, jmax, tile):
            scan_tile(i0, i1, j0, min(j0 + tile, jmax))

    def scan_tile(i0: int, i1: int, j0: int, j1: int) -> None:
        U, V, DO = u_arr[i0:i1], v_arr[i0:i1], d_arr[i0:i1]
        W, X = u_arr[j0:j1], v_arr[j0:j1]
        s1 = DO[:, None] + d_arr[None, j0:j1]
        s2 = d32[np.ix_(U, W)] + d32[np.ix_(V, X)]
        s3 = d32[np.ix_(U, X)] + d32[np.ix_(V, W)]
        gap = s1 - np.maximum(s2, s3)
        # only pairings with inner index <= outer index are this visit's duty
        cols = np.arange(j0, j1)[None, :]
        rows = np.arange(i0, i1)[:, None]
        gap = np.where(cols <= rows, gap, -1)
        mx = int(gap.max(initial=-1))
        if mx < 0:
            return
        with lock:
            if mx < state["best"]:
                return
            hits = np.argwhere(gap == mx)
            quads = np.stack(
                [
                    U[hits[:, 0]],
                    V[hits[:, 0]],
                    W[hits[:, 1]],
                    X[hits[:, 1]],
                ],
                axis=1,
            )
            quads.sort(axis=1)
            pick = np.lexsort((quads[:, 3], quads[:, 2], quads[:, 1], quads[:, 0]))[0]
            cand = tuple(int(t) for t in quads[pick])
            if mx > state["best"]:
                state["best"] = mx
                state["witness"] = cand
            elif state["witness"] is None or cand < state["witness"]:
                state["witness"] = cand

    chunk_starts = list(range(0, npairs, chunk))
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(scan_chunk, chunk_starts))
    else:
        for i0 in chunk_starts:
            if d_arr[i0] < state["best"]:
                break
            scan_chunk(i0)

    if state["witness"] is None or state["best"] == 0:
        return HalfInt(0), zero_witness
    return _rechecked_witness(dist, state["witness"], state["best"])


def _bfs_vertex_order(g: Graph) -> list[int]:
    seen = [False] * g.n
    seen[0] = True
    order = [0]
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for v in g.neighbors[u]:
            if not seen[v]:
                seen[v] = True
                order.append(v)
    return order


def box_extremal_functions(
    g: Graph, *, budget: int | None = None
) -> list[tuple[int, ...]]:
    """All extremal functions by enumerating the candidate box, then filtering.

    Stores every vector between the propagated lower bounds and the
    eccentricities, in the BFS order of ``_bfs_vertex_order``, then keeps
    exactly the vectors with f(u) = max_v (d(u,v) - f(v)) by a numpy filter
    over 1024-row blocks.  The same prod(ecc+1) budget pre-check as
    ``hellymetric.hull.extremal_functions`` refuses the same inputs.
    """
    dm = apsp(g)
    n = g.n
    limit = resolve_budget(budget)
    space = 1
    for e in dm.ecc:
        space *= int(e) + 1
        if space > limit:
            raise HullBudgetError(
                f"hull search space exceeds budget: prod(ecc+1) > {limit}"
            )

    order = _bfs_vertex_order(g)
    dist_rows = dm.dist[order].tolist()
    ecc = [int(dm.ecc[v]) for v in order]
    candidates: list[tuple[int, ...]] = []
    vals = [0] * n

    def assign(pos: int, lbs: list[int]) -> None:
        if pos == n:
            candidates.append(tuple(vals))
            return
        row = dist_rows[pos]
        for val in range(lbs[pos], ecc[pos] + 1):
            vals[pos] = val
            nxt = lbs[:]
            ok = True
            for q in range(pos + 1, n):
                need = row[order[q]] - val
                if need > nxt[q]:
                    if need > ecc[q]:
                        ok = False
                        break
                    nxt[q] = need
            if ok:
                assign(pos + 1, nxt)

    assign(0, [0] * n)
    if not candidates:
        return []

    # vectors are in search order; re-express in vertex order, then filter
    inv = [0] * n
    for i, v in enumerate(order):
        inv[v] = i
    arr = np.array(candidates, dtype=np.int32)[:, inv]
    dmat = dm.dist.astype(np.int32)
    keep: list[np.ndarray] = []
    for start in range(0, arr.shape[0], 1024):
        block = arr[start : start + 1024]
        # sup[m, u] = max_v (d(u, v) - f_m(v))
        sup = (dmat[None, :, :] - block[:, None, :]).max(axis=2)
        keep.append((sup == block).all(axis=1))
    mask = np.concatenate(keep)
    funcs = sorted(tuple(int(x) for x in row) for row in arr[mask])
    return funcs


def dfs_extremal_functions(
    g: Graph, *, budget: int | None = None
) -> list[tuple[int, ...]]:
    """All extremal functions by a recursive search over one partial function.

    The same prunes as ``hellymetric.hull.extremal_functions`` (cap and
    tightness, under the same budget pre-check), in the BFS order of
    ``_bfs_vertex_order``, applied one node at a time with Python lists and
    generator steps instead of numpy blocks.
    """
    dm = apsp(g)
    n = g.n
    limit = resolve_budget(budget)
    space = 1
    for e in dm.ecc:
        space *= int(e) + 1
        if space > limit:
            raise HullBudgetError(
                f"hull search space exceeds budget: prod(ecc+1) > {limit}"
            )

    order = _bfs_vertex_order(g)
    ecc = [int(dm.ecc[v]) for v in order]
    rows = dm.dist[np.ix_(order, order)].tolist()  # in search order
    leaves: list[tuple[int, ...]] = []

    def assign(pos: int, cur: list[int]) -> None:
        if pos == n:
            leaves.append(tuple(cur))
            return
        row = rows[pos]
        for val in range(cur[pos], max(map(sub, row, cur)) + 1):  # cap
            nxt = cur[:]
            nxt[pos] = val
            for q in range(pos + 1, n):
                need = row[q] - val
                if need > nxt[q]:
                    if need > ecc[q]:
                        break
                    nxt[q] = need
            else:  # every bound fits; check tightness of the assigned vertices
                if all(max(map(sub, rows[u], nxt)) >= nxt[u] for u in range(pos + 1)):
                    assign(pos + 1, nxt)

    assign(0, [0] * n)
    inv = [0] * n
    for i, v in enumerate(order):
        inv[v] = i
    return sorted(tuple(f[i] for i in inv) for f in leaves)


def find_isometric_embedding(
    pattern: Graph,
    host: Graph,
    *,
    pattern_dm: DistanceMatrix | None = None,
    host_dm: DistanceMatrix | None = None,
) -> tuple[int, ...] | None:
    """First isometric copy of pattern in host under a fixed search order.

    Returns a tuple mapping pattern vertex i to host vertex result[i], or
    None.  Backtracking over pattern vertices in BFS order from the vertex
    of largest degree, filtering host candidates (ascending ids) by exact
    distance agreement with every already-placed pattern vertex; the result
    is deterministic for a given pair of graphs.
    """
    if pattern.n == 0 or pattern.n > host.n:
        return None
    pdm = pattern_dm or apsp(pattern)
    hdm = host_dm or apsp(host)
    order = _bfs_order(pattern)
    pd = pdm.dist.tolist()
    hd = hdm.dist.tolist()
    assignment: list[int] = [-1] * pattern.n
    used = [False] * host.n

    def place(pos: int) -> bool:
        if pos == pattern.n:
            return True
        pv = order[pos]
        for hv in range(host.n):
            if used[hv]:
                continue
            ok = True
            for prev in order[:pos]:
                if hd[assignment[prev]][hv] != pd[pv][prev]:
                    ok = False
                    break
            if ok:
                assignment[pv] = hv
                used[hv] = True
                if place(pos + 1):
                    return True
                used[hv] = False
                assignment[pv] = -1
        return False

    if place(0):
        return tuple(assignment)
    return None


def _bfs_order(g: Graph) -> list[int]:
    start = max(range(g.n), key=lambda v: (g.degree(v), -v))
    seen = [False] * g.n
    seen[start] = True
    order = [start]
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for v in g.neighbors[u]:
            if not seen[v]:
                seen[v] = True
                order.append(v)
    return order


def pair_loop_scan_quadruples(
    dm: DistanceMatrix,
    outer: tuple[int, int],
    side: tuple[int, int],
    inner: tuple[int, int],
    accept: Callable[[int, int, int, int], bool] | None = None,
) -> tuple[int, int, int, int] | None:
    """First quadruple (x, y, z, t) with d(x,z) in ``outer``, all four sides
    in ``side`` and d(y,t) in ``inner`` that ``accept`` accepts; each range
    is an inclusive (lo, hi).

    Scans x ascending, then z > x ascending, then takes the hits of the
    upper triangle over the vertices whose distances to x and z both lie in
    ``side``, so y < t, in row-major order.  ``accept`` is called on each
    hit in that order; without it the first hit is returned.
    """
    if outer[0] > dm.diam:
        return None
    dist = dm.dist

    def within(rng: tuple[int, int]) -> np.ndarray:
        return (dist >= rng[0]) & (dist <= rng[1])

    outer_ok, side_ok, inner_ok = within(outer), within(side), within(inner)
    for x in range(dm.n):
        zs = np.nonzero(outer_ok[x, x + 1 :])[0] + (x + 1)
        for z in zs.tolist():
            ids = np.nonzero(side_ok[x] & side_ok[z])[0]
            if ids.size < 2:
                continue
            hits = np.argwhere(np.triu(inner_ok[np.ix_(ids, ids)], k=1))
            for r, c in hits.tolist():
                quad = x, int(ids[r]), z, int(ids[c])
                if accept is None or accept(*quad):
                    return quad
    return None


def vertex_loop_interval_violation(
    g: Graph, dm: DistanceMatrix, gap: int
) -> tuple[DiskConstraint, ...] | None:
    """For the first (u, v, w) with d(v,w) = ``gap`` and d(u,v) = d(u,w) = k
    such that no common neighbour of v and w lies at distance k-1 from u, the
    disks D(u,k-1), D(v,1), D(w,1); None if there is no such triple.

    Per v, ``share`` marks which neighbours of v each partner w > v is
    adjacent to; its product with the layer mask of N(v) counts, for every
    (w, u), the common neighbours one step closer to u.
    """
    dist = dm.dist
    adjacent = dist == 1
    step = max(1, (1 << 20) // dm.n)  # partners per block: bounded temporaries
    for v in range(dm.n - 1):
        nv = list(g.neighbors[v])
        partners = np.nonzero(dist[v, v + 1:] == gap)[0] + (v + 1)
        if not nv or partners.size == 0:
            continue
        dv = dist[v]
        down = (dist[nv] == dv - 1).astype(np.int32)
        for lo in range(0, partners.size, step):
            ws = partners[lo:lo + step]
            share = adjacent[np.ix_(ws, nv)].astype(np.int32)
            bad = (dist[ws] == dv) & ((share @ down) == 0)
            if bad.any():
                i, u = np.argwhere(bad)[0]
                return (
                    DiskConstraint(int(u), int(dv[u]) - 1),
                    DiskConstraint(v, 1),
                    DiskConstraint(int(ws[i]), 1),
                )
    return None


def bit_walk_power_window(dm: DistanceMatrix, a: int, b: int) -> bool:
    """Is there a labeled 4-cycle common to all powers G^l, a <= l <= b?"""
    n = dm.n
    ea = dm.power_rows(a)
    eb = dm.power_rows(b)
    full = (1 << n) - 1
    for x in range(n):
        far = (full & ~eb[x] & ~(1 << x)) >> (x + 1)
        z = x + 1
        while far:
            if far & 1:
                m = ea[x] & ea[z]
                while m:
                    low = m & -m
                    yv = low.bit_length() - 1
                    m ^= low
                    if m & ~eb[yv]:
                        return True
            far >>= 1
            z += 1
    return False


def bit_walk_power_split_diagonal(dm: DistanceMatrix, k: int) -> bool:
    """Sides within k+1, one diagonal exactly 2k+1, the other beyond it?"""
    n = dm.n
    ea = dm.power_rows(k + 1)
    e_hi = dm.power_rows(2 * k + 1)
    e_lo = dm.power_rows(2 * k)
    for y in range(n):
        exact = (e_hi[y] & ~e_lo[y]) >> (y + 1)
        t = y + 1
        while exact:
            if exact & 1:
                common = ea[y] & ea[t]
                m = common
                while m:
                    low = m & -m
                    xv = low.bit_length() - 1
                    m ^= low
                    if common & ~e_hi[xv] & ~(1 << xv):
                        return True
            exact >>= 1
            t += 1
    return False


def _has_induced_c4(g: Graph) -> bool:
    n = g.n
    adj = g.adj_bits
    for x in range(n):
        ax = adj[x]
        for z in range(x + 1, n):
            if (ax >> z) & 1:
                continue
            m = ax & adj[z]
            while m:
                low = m & -m
                yv = low.bit_length() - 1
                m ^= low
                if m & ~adj[yv]:
                    return True
    return False


def bit_walk_c4_flags(g: Graph, dm: DistanceMatrix) -> tuple[bool, bool]:
    """Has G an induced 4-cycle; has G^2 one (G^2 built as a graph)?"""
    c4 = _has_induced_c4(g)
    c4_sq = _has_induced_c4(graph_power(g, 2, dm=dm)) if dm.diam >= 2 else False
    return c4, c4_sq


def _bits_above(mask: int, v: int) -> list[int]:
    """Ids of the set bits of a non-negative ``mask`` that exceed v."""
    mask = mask >> (v + 1) << (v + 1)
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def list_walk_clique_helly_fails(
    g: Graph, dm: DistanceMatrix
) -> tuple[DiskConstraint, ...] | None:
    """(c) The unit disks around the first extended triangle T* with no
    universal vertex (Szwarcfiter), or None.

    The extended triangle of T = {a, b, c} holds every vertex adjacent to at
    least two vertices of T, T included; a universal vertex is adjacent to
    all its other members.  Each unit disk around T* holds two vertices of T,
    so the disks meet pairwise, and a common vertex would lie in T* and be
    universal.
    """
    adj = g.adj_bits
    for a in range(g.n):
        na = adj[a]
        for b in _bits_above(na, a):
            nab = na & adj[b]
            for c in _bits_above(nab, b):
                nc = adj[c]
                ext = nab | (na & nc) | (adj[b] & nc)
                universal = ext
                members = _bits_above(ext, -1)
                for y in members:
                    universal &= adj[y] | (1 << y)
                    if not universal:
                        return tuple(DiskConstraint(x, 1) for x in members)
    return None


def list_walk_undominated_c4(
    g: Graph, dm: DistanceMatrix
) -> tuple[DiskConstraint, ...] | None:
    """(d) The unit disks D(a,1), D(b,1), D(c,1), D(d,1) of the first induced
    4-cycle a-b-c-d with no vertex adjacent to all four, or None.

    Each induced 4-cycle is met once: a is its least vertex, c the vertex
    opposite a, and b < d.
    """
    dist = dm.dist
    adj = g.adj_bits
    for a in range(g.n):
        for c in (np.nonzero(dist[a, a + 1:] == 2)[0] + (a + 1)).tolist():
            common = adj[a] & adj[c]
            for b in _bits_above(common, a):
                dom = common & adj[b]
                for d in _bits_above(common & ~adj[b], b):
                    if not (dom & adj[d]):
                        return tuple(DiskConstraint(x, 1) for x in (a, b, c, d))
    return None


# ---------------------------------------------------------------------------
# Placement of a certified copy, cell by cell
# ---------------------------------------------------------------------------

Cell = tuple[int, int]

_CELL_STEPS = ((-2, 0), (-1, -1), (-1, 1), (0, -2), (0, 2), (1, -1), (1, 1), (2, 0))


def oracle_cell_dist(c1: Cell, c2: Cell) -> int:
    """King-move distance between two rotated-coordinate cells."""
    return (abs(c1[0] - c2[0]) + abs(c1[1] - c2[1])) // 2


def _cell_neighbors(cell: Cell, cellset: frozenset[Cell]) -> list[Cell]:
    s, t = cell
    out = [(s + ds, t + dt) for ds, dt in _CELL_STEPS]
    return [c for c in out if c in cellset]


def bfs_cell_order(family: str, k: int, l: int) -> list[Cell]:
    """The family's non-corner cells in breadth-first order from the corners,
    each level sorted, by a hand-written BFS over king steps."""
    cells = family_cells(family, k, l)
    corner_cells = family_corner_cells(family, k, l)
    cellset = frozenset(cells)
    seen = set(corner_cells)
    frontier = sorted(corner_cells)
    order: list[Cell] = []
    while frontier:
        nxt = set()
        for p in frontier:
            for q in _cell_neighbors(p, cellset):
                if q not in seen:
                    seen.add(q)
                    nxt.add(q)
        frontier = sorted(nxt)
        order.extend(frontier)
    assert len(seen) == len(cells), "family cells not connected from corners"
    return order


def bfs_pick_placement(
    dm: DistanceMatrix,
    family: str,
    k: int,
    l: int,
    anchors: tuple[int, int, int, int],
) -> dict[Cell, int]:
    """An isometric family copy with the corner cells on ``anchors``, placed
    one cell at a time in ``bfs_cell_order``: each cell goes to the lowest
    vertex of the AND of its ball masks, one per corner and one unit disk
    per placed neighbour, and the copy is rechecked against int64 cell
    distances.  Raises MaterializeError with the texts and disks of
    ``detect._anchored_placement``."""
    d = dm.d
    pat = expected_corner_pattern(family, k, l)
    a, b, c, e = anchors
    sides = (d(a, b), d(b, c), d(c, e), d(e, a))
    if sides != pat.sides or (d(a, c), d(b, e)) != pat.diagonals:
        raise MaterializeError(
            f"anchors {anchors} do not realize the {family}({k},{l}) corner "
            f"pattern: sides {sides}, diagonals ({d(a, c)}, {d(b, e)})"
        )
    cells = family_cells(family, k, l)
    cellset = frozenset(cells)
    corner_list = list(zip(family_corner_cells(family, k, l), anchors))
    placement: dict[Cell, int] = dict(corner_list)
    ball = packed_balls(dm)
    for p in bfs_cell_order(family, k, l):
        cons = [DiskConstraint(av, oracle_cell_dist(p, ac)) for ac, av in corner_list]
        for q in _cell_neighbors(p, cellset):
            if q in placement:
                cons.append(DiskConstraint(placement[q], 1))
        mask = (1 << dm.n) - 1
        for con in cons:
            mask &= ball(con.center, con.radius)
        if not mask:
            raise MaterializeError(
                f"no vertex satisfies the placement disks for cell {p} "
                f"of {family}({k},{l})",
                tuple(cons),
            )
        placement[p] = (mask & -mask).bit_length() - 1

    ids = np.array([placement[cc] for cc in cells], dtype=np.int64)
    arr = np.array(cells, dtype=np.int64)
    want = (
        np.abs(arr[:, 0][:, None] - arr[:, 0][None, :])
        + np.abs(arr[:, 1][:, None] - arr[:, 1][None, :])
    ) // 2
    got = dm.dist[np.ix_(ids, ids)].astype(np.int64)
    bad = np.argwhere(got != want)
    if bad.size:
        i, j = int(bad[0][0]), int(bad[0][1])
        raise MaterializeError(
            f"materialized {family}({k},{l}) copy is not isometric: cells "
            f"{cells[i]} -> {int(ids[i])} and {cells[j]} -> {int(ids[j])} are at "
            f"distance {int(got[i, j])}, expected {int(want[i, j])}"
        )
    return placement
