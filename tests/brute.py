"""Independent brute-force oracles for the test suite.

These deliberately avoid the package's search machinery: path enumeration is
a plain DFS from every terminal over simple paths, and for induced paths over
the prefixes that have no chord in an adjacency matrix (the package keeps
bitmask free sets, prunes by reachability and searches from one end only),
components use union-find (the package uses BFS), and distances come from
Floyd-Warshall (the package uses BFS). Only usable at very small scale, which
is the point.
"""

from __future__ import annotations

from itertools import combinations

from apaths import Graph, GraphError

INF = float("inf")


def check_vertex_set(g: Graph, x) -> frozenset[int]:
    """Coerce x to a frozenset and check every member is a vertex of g: the
    package's coercion as it was before vertex sets became checked masks,
    frozen here for the reference implementations."""
    s = frozenset(x)
    for v in s:
        if not (0 <= v < g.n):
            raise GraphError(f"vertex {v} not in graph with {g.n} vertices")
    return s


def is_path(g: Graph, p: tuple[int, ...]) -> bool:
    """True iff p is a nonempty sequence of distinct vertices with
    consecutive edges: the package's path check as it was before paths
    became checked masks, frozen here for the reference implementations."""
    if len(p) == 0:
        return False
    if len(set(p)) != len(p):
        return False
    if any(not (0 <= v < g.n) for v in p):
        return False
    return all(g.has_edge(p[i], p[i + 1]) for i in range(len(p) - 1))


def is_induced_path(g: Graph, p: tuple[int, ...]) -> bool:
    """True iff p is a valid path with no chord between non-consecutive
    vertices, frozen as is_path is."""
    if not is_path(g, p):
        return False
    # The path's own edges give its vertices 2(|p| - 1) neighbours on p; a
    # chord adds two more.
    adj, on_p = g.neighbor_masks(), 0
    for v in p:
        on_p |= 1 << v
    return sum((adj[v] & on_p).bit_count() for v in p) == 2 * (len(p) - 1)


def adjacency_matrix(g: Graph) -> list[list[bool]]:
    return [[g.has_edge(u, v) for v in range(g.n)] for u in range(g.n)]


def all_pairs_dist(g: Graph) -> list[list[float]]:
    d = [[0 if i == j else (1 if g.has_edge(i, j) else INF) for j in range(g.n)] for i in range(g.n)]
    for m in range(g.n):
        for i in range(g.n):
            dim = d[i][m]
            if dim is INF:
                continue
            for j in range(g.n):
                alt = dim + d[m][j]
                if alt < d[i][j]:
                    d[i][j] = alt
    return d


def brute_ball(g: Graph, xs, r: int) -> frozenset[int]:
    d = all_pairs_dist(g)
    xs = set(xs)
    return frozenset(v for v in range(g.n) if any(d[x][v] <= r for x in xs))


def is_induced_seq(adj: list[list[bool]], seq: tuple[int, ...]) -> bool:
    for i in range(len(seq)):
        for j in range(i + 2, len(seq)):
            if adj[seq[i]][seq[j]]:
                return False
    return True


def simple_apaths(g: Graph, a, lo: int = 1, hi: int | None = None) -> list[tuple[int, ...]]:
    """All simple paths with both endpoints terminals and length in [lo, hi]."""
    a_set = set(a)
    found: set[tuple[int, ...]] = set()
    seq: list[int] = []
    used = [False] * g.n

    def dfs() -> None:
        last = seq[-1]
        length = len(seq) - 1
        if length >= lo and last in a_set and length >= 1:
            if hi is None or length <= hi:
                t = tuple(seq)
                found.add(t if t[0] < t[-1] else t[::-1])
        if hi is not None and length >= hi:
            return
        for w in range(g.n):
            if not used[w] and g.has_edge(last, w):
                used[w] = True
                seq.append(w)
                dfs()
                seq.pop()
                used[w] = False

    for s in sorted(a_set):
        used[s] = True
        seq.append(s)
        dfs()
        seq.pop()
        used[s] = False
    return sorted(found)


def brute_induced_apaths(g: Graph, a, lo: int = 1, hi: int | None = None) -> list[tuple[int, ...]]:
    """The induced paths among simple_apaths(g, a, lo, hi): its DFS, which
    extends a prefix only by a vertex with no chord to it, since a chord
    stays in every extension."""
    adj = adjacency_matrix(g)
    a_set = set(a)
    found: set[tuple[int, ...]] = set()
    seq: list[int] = []
    used = [False] * g.n

    def dfs() -> None:
        last = seq[-1]
        length = len(seq) - 1
        if length >= lo and last in a_set and length >= 1:
            if hi is None or length <= hi:
                t = tuple(seq)
                found.add(t if t[0] < t[-1] else t[::-1])
        if hi is not None and length >= hi:
            return
        for w in range(g.n):
            if not used[w] and adj[last][w] and not any(adj[u][w] for u in seq[:-1]):
                used[w] = True
                seq.append(w)
                dfs()
                seq.pop()
                used[w] = False

    for s in sorted(a_set):
        used[s] = True
        seq.append(s)
        dfs()
        seq.pop()
        used[s] = False
    return sorted(found)


def is_minimal_apath(p: tuple[int, ...], a, ell: int) -> bool:
    """True iff no interior vertex of the A-path p is a terminal that splits
    off a piece of length >= ell, i.e. lies at distance >= ell along p from
    one of its ends."""
    a_set = set(a)
    last = len(p) - 1
    return not any(p[i] in a_set and (i >= ell or last - i >= ell) for i in range(1, last))


def pair_anticomplete(g: Graph, p: tuple[int, ...], q: tuple[int, ...]) -> bool:
    ps, qs = set(p), set(q)
    if ps & qs:
        return False
    return not any(g.has_edge(u, v) for u in ps for v in qs)


def brute_max_anticomplete(g: Graph, a, ell: int, cap: int) -> int:
    paths = brute_induced_apaths(g, a, lo=ell)
    for m in range(min(cap, len(paths)), 0, -1):
        for combo in combinations(paths, m):
            if all(pair_anticomplete(g, p, q) for p, q in combinations(combo, 2)):
                return m
    return 0


def brute_max_disjoint(g: Graph, a, cap: int) -> int:
    paths = simple_apaths(g, a, lo=1)
    vsets = [set(p) for p in paths]
    best = 0

    def rec(start: int, chosen: list[int]) -> None:
        nonlocal best
        best = max(best, len(chosen))
        if best >= cap:
            return
        for i in range(start, len(paths)):
            if all(vsets[i].isdisjoint(vsets[j]) for j in chosen):
                chosen.append(i)
                rec(i + 1, chosen)
                chosen.pop()
                if best >= cap:
                    return

    rec(0, [])
    return min(best, cap)


def has_apath_after_deletion(g: Graph, a, removed) -> bool:
    """Union-find component check: does g minus removed still hold an A-path?"""
    removed = set(removed)
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges():
        if u in removed or v in removed:
            continue
        parent[find(u)] = find(v)
    roots: dict[int, int] = {}
    for t in a:
        if t in removed:
            continue
        r = find(t)
        roots[r] = roots.get(r, 0) + 1
        if roots[r] >= 2:
            return True
    return False


def brute_min_ball_cover(g: Graph, a, ell: int, r: int) -> int:
    """Minimum |Z| whose radius-r ball hits every induced A-path of length >= ell."""
    paths = [set(p) for p in brute_induced_apaths(g, a, lo=ell)]
    if not paths:
        return 0
    d = all_pairs_dist(g)
    for size in range(1, g.n + 1):
        for z in combinations(range(g.n), size):
            hit_set = {v for v in range(g.n) if any(d[x][v] <= r for x in z)}
            if all(ps & hit_set for ps in paths):
                return size
    raise AssertionError("covering everything always hits")
