"""Benchmark inputs, generated with the standard library only.

Nothing here imports the package under test, so the corpus stays the same
when the package's own generators or its hull-budget rule change.  Every
input is a ``Case``: an edge list plus what the checker needs to know
about it independently of the package (expected Helly answer, closed-form
values, a non-Helly certificate).
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

HULL_SPACE_LIMIT = 10**7  # the ceiling of hull_small's prod(ecc+1) filter


@dataclass
class Case:
    """One input graph and the facts the checker verifies against."""

    name: str
    n: int
    edges: list[tuple[int, int]]
    helly: bool
    commands: tuple[str, ...]  # "analyze" and/or "verify"
    # closed forms for the paper's families: (family, k, l)
    family: tuple[str, int, int] | None = None
    # (diameter, radius) when known without the package
    diam_rad: tuple[int, int] | None = None
    adj: list[list[int]] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if not self.adj:
            self.adj = adjacency(self.n, self.edges)

    def edge_list_text(self) -> str:
        return "".join(f"{u} {v}\n" for u, v in self.edges)


def adjacency(n: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs(adj: list[list[int]], src: int) -> list[int]:
    """Distances from ``src``; -1 marks unreachable vertices."""
    dist = [-1] * len(adj)
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = du
                queue.append(v)
    return dist


def eccentricities(adj: list[list[int]]) -> list[int] | None:
    """All eccentricities, or None when the graph is disconnected."""
    out = []
    for s in range(len(adj)):
        d = bfs(adj, s)
        if min(d) < 0:
            return None
        out.append(max(d))
    return out


def relabel(case: Case, rng: random.Random, name: str) -> Case:
    """An isomorphic copy with vertex ids permuted and edges reordered."""
    perm = list(range(case.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in case.edges]
    edges = [(u, v) if u < v else (v, u) for u, v in edges]
    rng.shuffle(edges)
    return Case(
        name, case.n, edges, case.helly, case.commands, case.family, case.diam_rad
    )


# ---------------------------------------------------------------------------
# helly_ladder: king grids and the paper's families H1/H2/H3
# ---------------------------------------------------------------------------

def king_grid(p: int, q: int) -> list[tuple[int, int]]:
    """Edges of the p x q king grid; cell (x, y) has id x*q + y."""
    edges = []
    for x in range(p):
        for y in range(q):
            for dx, dy in ((0, 1), (1, -1), (1, 0), (1, 1)):
                a, b = x + dx, y + dy
                if 0 <= a < p and 0 <= b < q:
                    edges.append((x * q + y, a * q + b))
    return edges


def _rect(s_lo: int, s_hi: int, t_lo: int, t_hi: int) -> list[tuple[int, int]]:
    return [
        (s, t)
        for s in range(s_lo, s_hi + 1)
        for t in range(t_lo, t_hi + 1)
        if (s - t) % 2 == 0
    ]


def family_cells(fam: str, k: int, l: int) -> list[tuple[int, int]]:
    """Cells of H1/H2/H3 in rotated king-grid coordinates (s, t), s = t mod 2."""
    if fam == "H1":
        return _rect(0, 2 * k, 0, 2 * l)
    if fam == "H2":
        return _rect(0, 2 * k + 1, -1, 2 * l) + [(-1, -1), (2 * k + 1, 2 * l + 1)]
    return _rect(0, 2 * k + 2, -1, 2 * l + 1) + [
        (-1, -1),
        (2 * k + 2, -2),
        (2 * k + 3, 2 * l + 1),
        (0, 2 * l + 2),
    ]


def family_graph(fam: str, k: int, l: int) -> tuple[int, list[tuple[int, int]]]:
    """The family as the subgraph of the king grid induced on its cells."""
    cells = sorted(family_cells(fam, k, l))
    index = {c: i for i, c in enumerate(cells)}
    edges = []
    for i, (s, t) in enumerate(cells):
        for ds, dt in ((0, 2), (1, 1), (1, -1), (2, 0)):
            j = index.get((s + ds, t + dt))
            if j is not None:
                edges.append((i, j))
    return len(cells), edges


def family_size(fam: str, k: int, l: int) -> int:
    """The paper's closed-form vertex count."""
    if fam == "H1":
        return (k + 1) * (l + 1) + k * l
    if fam == "H2":
        return 2 * k * l + 2 * k + 2 * l + 4
    return 2 * k * l + 3 * k + 3 * l + 8


def family_hyperbolicity_doubled(fam: str, k: int, l: int) -> int:
    """The paper's closed-form hyperbolicity, doubled."""
    base = min(k, l)
    if fam == "H1":
        return 2 * base
    if fam == "H2":
        return 2 * base + 1
    return 2 * base + 2


def helly_ladder_shapes() -> list[Case]:
    """54 fixed Helly inputs: king p x q (2 <= p <= q <= 8) and H1/H2/H3
    with k <= l <= 3 (k >= 1 for H1).  Each gets ``analyze`` and ``verify``."""
    cmds = ("analyze", "verify")
    cases = []
    for p in range(2, 9):
        for q in range(p, 9):
            diam = q - 1
            cases.append(
                Case(f"king_{p}x{q}", p * q, king_grid(p, q), True, cmds,
                     diam_rad=(diam, (diam + 1) // 2))
            )
    for fam, lo in (("H1", 1), ("H2", 0), ("H3", 0)):
        for k in range(lo, 4):
            for l in range(k, 4):
                n, edges = family_graph(fam, k, l)
                cases.append(Case(f"{fam}_{k}_{l}", n, edges, True, cmds, (fam, k, l)))
    return cases


# ---------------------------------------------------------------------------
# gnp_scan: seeded connected G(n, p), n = 50..119, mean degree about 5
# ---------------------------------------------------------------------------

def gnp_edges(n: int, prob: float, rng: random.Random) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < prob]


def connected_gnp(n: int, prob: float, rng: random.Random) -> list[tuple[int, int]]:
    while True:
        edges = gnp_edges(n, prob, rng)
        if edges and min(bfs(adjacency(n, edges), 0)) >= 0:
            return edges


def non_helly_certificate(
    adj: list[list[int]], rng: random.Random, tries: int = 400
) -> tuple[tuple[int, int], ...] | None:
    """Three pairwise-intersecting disks with no common vertex, or None.

    For a random triple (a, b, c) the radii are the rounded-up Gromov
    products, so every two disks meet (their radii sum to at least the
    distance between their centres); if no vertex lies in all three, the
    graph is not Helly.
    """
    n = len(adj)
    rows: dict[int, list[int]] = {}

    def row(v: int) -> list[int]:
        if v not in rows:
            rows[v] = bfs(adj, v)
        return rows[v]

    for _ in range(tries):
        a, b, c = rng.sample(range(n), 3)
        da, db, dc = row(a), row(b), row(c)
        ra = (da[b] + da[c] - db[c] + 1) // 2
        rb = (db[a] + db[c] - da[c] + 1) // 2
        rc = (dc[a] + dc[b] - da[b] + 1) // 2
        if not any(da[x] <= ra and db[x] <= rb and dc[x] <= rc for x in range(n)):
            return ((a, ra), (b, rb), (c, rc))
    return None


def gnp_scan_cases(rng: random.Random) -> list[Case]:
    """100 connected, certified non-Helly G(n, 5/(n-1)), n spread over 50..119."""
    cases = []
    for i in range(100):
        n = 50 + 70 * i // 100
        while True:
            edges = connected_gnp(n, 5.0 / (n - 1), rng)
            if non_helly_certificate(adjacency(n, edges), rng) is not None:
                break
        cases.append(Case(f"gnp_{i}_{n}", n, edges, False, ("analyze",)))
    return cases


# ---------------------------------------------------------------------------
# hull_small: G(n, 0.3), n = 9..12, stratified by prod(ecc+1)
# ---------------------------------------------------------------------------

# prod(ecc+1) strata: 25 inputs each in [1e5, 10^5.5), ..., [10^6.5, 1e7]
HULL_STRATA = (
    (10**5, 316_228),
    (316_228, 10**6),
    (10**6, 3_162_278),
    (3_162_278, HULL_SPACE_LIMIT + 1),
)
HULL_PER_STRATUM = 25


def helly_bruteforce(n: int, adj: list[list[int]]) -> bool:
    """Berge-Duchet test on the disk hypergraph: Helly iff for every vertex
    triple the disks containing at least two of them share a vertex.  The
    disks around one centre v are nested, so for each v only the one whose
    radius is the median of the three distances matters."""
    rows = [bfs(adj, v) for v in range(n)]
    balls = [
        [sum(1 << x for x in range(n) if rows[v][x] <= r) for r in range(n)]
        for v in range(n)
    ]
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                inter = (1 << n) - 1
                for v in range(n):
                    d = sorted((rows[v][a], rows[v][b], rows[v][c]))
                    inter &= balls[v][d[1]]
                if not inter:
                    return False
    return True


def hull_small_cases(rng: random.Random) -> list[Case]:
    """100 connected G(n, 0.3) with n cycling 9..12, 25 per prod(ecc+1) stratum."""
    buckets: list[list[Case]] = [[] for _ in HULL_STRATA]
    i = 0
    while any(len(b) < HULL_PER_STRATUM for b in buckets):
        n = 9 + i % 4
        i += 1
        edges = gnp_edges(n, 0.3, rng)
        adj = adjacency(n, edges)
        ecc = eccentricities(adj) if edges else None
        if ecc is None:
            continue
        space = 1
        for e in ecc:
            space *= e + 1
        for b, (lo, hi) in zip(buckets, HULL_STRATA):
            if lo <= space < hi and len(b) < HULL_PER_STRATUM:
                helly = helly_bruteforce(n, adj)
                b.append(
                    Case(f"hull_{space}_{n}_{i}", n, edges, helly, ("analyze",),
                         diam_rad=(max(ecc), min(ecc)), adj=adj)
                )
    return [c for b in buckets for c in b]
