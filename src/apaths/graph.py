"""Immutable simple undirected graphs with the metric primitives used everywhere else.

Vertices are dense 0-based ids. Adjacency lists are kept sorted so that every
search in this package has a deterministic iteration order, which the
tie-breaking rules of the higher-level modules inherit. Graphs are never
mutated after construction; deleting a vertex set X is expressed as the
subgraph induced on the rest, which keeps g's ids and leaves X isolated, so
paths, balls and certificates found in it speak g's ids unchanged.

Each graph also keeps its adjacency as one int bitmask per vertex
(Graph.neighbor_masks: bit w of N(v) is set iff w ~ v), built once on first
use. That is the representation of the chordless-path search and the frame
layer; to_mask, mask_members, mask_neighbors and mask_ball are its set
operations and its BFS.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Iterator, Sequence

VertexSet = frozenset[int]
Path = tuple[int, ...]
Edge = tuple[int, int]

INF = math.inf


class GraphError(ValueError):
    """Raised when a graph or one of its arguments is malformed."""


class Graph:
    """A simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "_adj", "_adj_sets", "_edge_count", "_adj_masks")

    def __init__(self, n: int, edges: Iterable[Edge]):
        if n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        self.n = n
        adj: list[list[int]] = [[] for _ in range(n)]
        seen: set[Edge] = set()
        count = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
            count += 1
        self._adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(nb)) for nb in adj)
        self._adj_sets: tuple[frozenset[int], ...] = tuple(frozenset(nb) for nb in adj)
        self._edge_count = count
        self._adj_masks: tuple[int, ...] | None = None

    @classmethod
    def _from_sorted_adjacency(cls, adj: list[tuple[int, ...]], edge_count: int) -> Graph:
        """A graph from adjacency lists that are already sorted, loop-free and
        symmetric, skipping __init__'s checks; only induced_subgraph builds
        such lists."""
        g = cls.__new__(cls)
        g.n = len(adj)
        g._adj = tuple(adj)
        g._adj_sets = tuple(frozenset(nb) for nb in adj)
        g._edge_count = edge_count
        g._adj_masks = None
        return g

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def neighbor_set(self, v: int) -> frozenset[int]:
        return self._adj_sets[v]

    def neighbor_masks(self) -> tuple[int, ...]:
        """N(v) for every vertex v as an int bitmask, bit w set iff w ~ v.

        Built on first use and kept by the graph, which never changes.
        """
        masks = self._adj_masks
        if masks is None:
            masks = self._adj_masks = tuple(map(to_mask, self._adj))
        return masks

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj_sets[u]

    def edges(self) -> Iterator[Edge]:
        """Yield each edge once, as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self._edge_count})"


def check_vertex_set(g: Graph, x: Iterable[int]) -> frozenset[int]:
    """Coerce x to a frozenset and check every member is a vertex of g."""
    s = frozenset(x)
    for v in s:
        if not (0 <= v < g.n):
            raise GraphError(f"vertex {v} not in graph with {g.n} vertices")
    return s


def to_mask(vertices: Iterable[int]) -> int:
    """The bitmask of nonnegative ids: bit v set iff v is a member."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def mask_members(mask: int) -> list[int]:
    """The ids whose bits are set in mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_neighbors(adj: Sequence[int], mask: int) -> int:
    """The union of adj[v] over the members v of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= adj[low.bit_length() - 1]
        mask ^= low
    return out


def mask_ball(adj: Sequence[int], sources: int, within: int = -1, radius: int | None = None) -> int:
    """The vertices within radius steps of sources (unbounded for None),
    moving along adj only through vertices of within (-1: everywhere).

    adj is a bitmask adjacency, a graph's neighbor_masks or any other list
    indexed by vertex, such as a tree's. The sources are always included.
    """
    reached = frontier = sources
    while frontier and radius != 0:
        frontier = mask_neighbors(adj, frontier) & within & ~reached
        reached |= frontier
        if radius is not None:
            radius -= 1
    return reached


def ball(g: Graph, x: Iterable[int], r: int) -> VertexSet:
    """All vertices at distance at most r from the set x (the closed ball N[x, r])."""
    if r < 0:
        raise GraphError(f"radius must be nonnegative, got {r}")
    current = check_vertex_set(g, x)
    reached = set(current)
    frontier = current
    for _ in range(r):
        if not frontier:
            break
        nxt = set()
        for v in frontier:
            for w in g.neighbors(v):
                if w not in reached:
                    reached.add(w)
                    nxt.add(w)
        frontier = nxt
    return frozenset(reached)


def dist(g: Graph, x: Iterable[int], y: Iterable[int]) -> int | float:
    """Length of a shortest path between the sets x and y (0 on overlap, inf if none)."""
    xs = check_vertex_set(g, x)
    ys = check_vertex_set(g, y)
    if not xs or not ys:
        return INF
    if xs & ys:
        return 0
    level = {v: 0 for v in xs}
    queue = deque(sorted(xs))
    while queue:
        v = queue.popleft()
        d = level[v] + 1
        for w in g.neighbors(v):
            if w not in level:
                if w in ys:
                    return d
                level[w] = d
                queue.append(w)
    return INF


def anti_complete(g: Graph, x: Iterable[int], y: Iterable[int]) -> bool:
    """True iff x and y are disjoint and no edge of g joins them."""
    xs = check_vertex_set(g, x)
    ys = check_vertex_set(g, y)
    if xs & ys:
        return False
    for v in xs:
        if g.neighbor_set(v) & ys:
            return False
    return True


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """The subgraph induced on s, on g's own vertex ids, plus s sorted.

    Returns (h, members): h has h.n == g.n and keeps exactly the edges of g
    with both ends in s, so every vertex outside s is isolated in h.
    members is tuple(sorted(s)).
    """
    keep = check_vertex_set(g, s)
    # Filtering a sorted neighbour list keeps it sorted.
    adj = [tuple([w for w in g.neighbors(v) if w in keep]) if v in keep else () for v in range(g.n)]
    edge_count = sum(map(len, adj)) // 2
    return Graph._from_sorted_adjacency(adj, edge_count), tuple(sorted(keep))


def components(g: Graph) -> list[VertexSet]:
    """Connected components, each as a vertex set, ordered by smallest member."""
    seen = [False] * g.n
    out: list[VertexSet] = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        out.append(frozenset(comp))
    return out


def is_path(g: Graph, p: Path) -> bool:
    """True iff p is a nonempty sequence of distinct vertices with consecutive edges."""
    if len(p) == 0:
        return False
    if len(set(p)) != len(p):
        return False
    if any(not (0 <= v < g.n) for v in p):
        return False
    return all(g.has_edge(p[i], p[i + 1]) for i in range(len(p) - 1))


def is_induced_path(g: Graph, p: Path) -> bool:
    """True iff p is a valid path with no chord between non-consecutive vertices."""
    if not is_path(g, p):
        return False
    for i in range(len(p)):
        for j in range(i + 2, len(p)):
            if g.has_edge(p[i], p[j]):
                return False
    return True


def path_length(p: Path) -> int:
    """Number of edges of a path (vertices minus one)."""
    return len(p) - 1


def single_source_distances(g: Graph, source: int) -> list[int | float]:
    """BFS distances from one vertex; unreachable vertices get inf."""
    level: list[int | float] = [INF] * g.n
    level[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        d = level[v] + 1
        for w in g.neighbors(v):
            if level[w] is INF:
                level[w] = d
                queue.append(w)
    return level


def power_graph(g: Graph, d: int) -> Graph:
    """The d-th power of g: same vertices, edges between all pairs at distance 1..d."""
    if d < 1:
        raise GraphError(f"power must be positive, got {d}")
    edges = []
    for u in range(g.n):
        near = ball(g, (u,), d)
        for v in near:
            if u < v:
                edges.append((u, v))
    return Graph(g.n, edges)
