"""Immutable simple undirected graphs with the metric primitives used everywhere else.

Vertices are dense 0-based ids. A graph has one representation of its
adjacency: one int bitmask per vertex (Graph.neighbor_masks: bit w of N(v)
is set iff w ~ v). Walks over a mask clear its top bit, so the int shrinks
at each step; mask_members still returns increasing ids, and walk_back and
the search engine take extensions lowest bit first, the order the
tie-breaking rules of the higher-level modules inherit. Graphs are never
mutated after construction; deleting a vertex set X is expressed as the
subgraph induced on the rest, adj[v] & keep for every v, which keeps g's
ids and leaves X isolated, so paths, balls and certificates found in it
speak g's ids unchanged.

vertex_mask, path_mask, to_mask, mask_members and mask_neighbors are the
set operations, and mask_ball is the BFS; mask_layers keeps its layers, and
walk_back turns them into a shortest path, stepping to the least neighbour
one layer closer. ball, dist, components and power_graph are calls on them.
A caller's vertex set (ids or a mask) or path is checked once, into a mask,
and every size, length, radius or budget of the package by _need_int. A
path is a tuple, list or range of ids. _packing_checks is the one check of
a packing, for the verifier and the frame's extraction alike.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

VertexSet = frozenset[int]
Path = tuple[int, ...]
Edge = tuple[int, int]

INF = math.inf


class GraphError(ValueError):
    """Raised when a graph or one of its arguments is malformed."""


def _need_int(name: str, value, least: int) -> None:
    """Refuse value with GraphError unless it is an int (no bool) >= least."""
    if type(value) is not int:
        raise GraphError(f"need an int {name}, got {value!r}")
    if value < least:
        raise GraphError(f"need {name} >= {least}, got {value}")


class Graph:
    """A simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[Edge]):
        _need_int("n", n, 0)
        adj = [0] * n
        for u, v in edges:
            if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if adj[u] >> v & 1:
                raise GraphError(f"duplicate edge ({u}, {v})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj: tuple[int, ...] = tuple(adj)

    @classmethod
    def _from_masks(cls, adj: Iterable[int]) -> Graph:
        """A graph from adjacency masks that are already loop-free and
        symmetric, skipping __init__'s checks; only _kept_subgraph and
        power_graph build such masks."""
        g = cls.__new__(cls)
        g._adj = tuple(adj)
        g.n = len(g._adj)
        return g

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def vertices(self) -> range:
        return range(self.n)

    def _vertex(self, v: int) -> int:
        """v, checked to be a vertex of the graph."""
        if type(v) is not int or not 0 <= v < self.n:
            raise GraphError(f"vertex {v!r} not in graph with {self.n} vertices")
        return v

    def neighbors(self, v: int) -> tuple[int, ...]:
        """N(v) in increasing order."""
        return tuple(mask_members(self._adj[self._vertex(v)]))

    def neighbor_set(self, v: int) -> frozenset[int]:
        return frozenset(mask_members(self._adj[self._vertex(v)]))

    def neighbor_masks(self) -> tuple[int, ...]:
        """N(v) for every vertex v as an int bitmask, bit w set iff w ~ v.

        This is the graph's adjacency itself, built by the constructor.
        """
        return self._adj

    def degree(self, v: int) -> int:
        return self._adj[self._vertex(v)].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return self._adj[self._vertex(u)] >> self._vertex(v) & 1 == 1

    def edges(self) -> Iterator[Edge]:
        """Yield each edge once, as (u, v) with u < v, in sorted order."""
        for u, nb in enumerate(self._adj):
            for v in mask_members(nb & -(2 << u)):  # -(2 << u): the ids above u
                yield (u, v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def vertex_mask(g: Graph, x: Iterable[int] | int) -> int:
    """The bitmask of the vertex set x of g, given as ids or as a mask (an int), checked."""
    if type(x) is int:
        if x < 0 or x >> g.n:
            raise GraphError(f"mask {x:#x} is not a vertex set of a graph with {g.n} vertices")
        return x
    n, mask = g.n, 0
    try:
        for v in x:
            if type(v) is not int or not 0 <= v < n:
                raise GraphError(f"vertex {v!r} not in graph with {n} vertices")
            mask |= 1 << v
    except TypeError:  # x is no iterable
        raise GraphError(f"{x!r} is neither a vertex mask nor vertex ids") from None
    return mask


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
        v = mask.bit_length() - 1
        out.append(v)
        mask ^= 1 << v
    out.reverse()
    return out


def mask_neighbors(adj: Sequence[int], mask: int) -> int:
    """The union of adj[v] over the members v of mask."""
    out = 0
    while mask:
        v = mask.bit_length() - 1
        out |= adj[v]
        mask ^= 1 << v
    return out


def mask_ball(adj: Sequence[int], sources: int, within: int = -1, radius: int | None = None) -> int:
    """The vertices within radius steps of sources (unbounded for None, and
    for a negative radius too), moving along adj only through vertices of
    within (-1: everywhere).

    adj is a bitmask adjacency, a graph's neighbor_masks or any other list
    indexed by vertex, such as a tree's. The sources are always included.
    """
    reached = frontier = sources
    while frontier and radius != 0:
        frontier = mask_neighbors(adj, frontier) & within
        frontier ^= frontier & reached
        reached |= frontier
        if radius is not None:
            radius -= 1
    return reached


def mask_layers(
    adj: Sequence[int], sources: int, within: int = -1, targets: int = 0, radius: int | None = None
) -> list[int]:
    """The BFS layers of mask_ball(adj, sources, within, radius): layers[i]
    holds the vertices at distance i from sources, layers[0] = sources.

    The walk also ends at the first layer that meets targets, so a nonempty
    layers[-1] & targets holds the targets nearest to sources, and none
    lies closer. No layer is empty, unless sources is.
    """
    layers = [sources]
    reached = sources
    while radius != 0 and not layers[-1] & targets:
        frontier = mask_neighbors(adj, layers[-1]) & within
        frontier ^= frontier & reached
        if not frontier:
            break
        layers.append(frontier)
        reached |= frontier
        if radius is not None:
            radius -= 1
    return layers


def walk_back(adj: Sequence[int], layers: Sequence[int], end: int) -> Path:
    """A shortest path from layers[0] to end, a member of layers[-1], for
    BFS layers as mask_layers returns them: each step back goes to the least
    neighbour one layer closer."""
    path = [end]
    for layer in reversed(layers[:-1]):
        closer = adj[path[-1]] & layer
        path.append((closer & -closer).bit_length() - 1)
    path.reverse()
    return tuple(path)


def ball(g: Graph, x: Iterable[int] | int, r: int) -> VertexSet:
    """All vertices at distance at most r from the set x (the closed ball N[x, r])."""
    _need_int("r", r, 0)
    return frozenset(mask_members(mask_ball(g.neighbor_masks(), vertex_mask(g, x), -1, r)))


def dist(g: Graph, x: Iterable[int] | int, y: Iterable[int] | int) -> int | float:
    """Length of a shortest path between the sets x and y (0 on overlap, inf if none)."""
    targets = vertex_mask(g, y)
    layers = mask_layers(g.neighbor_masks(), vertex_mask(g, x), -1, targets)
    return len(layers) - 1 if layers[-1] & targets else INF


def anti_complete(g: Graph, x: Iterable[int] | int, y: Iterable[int] | int) -> bool:
    """True iff x and y are disjoint and no edge of g joins them."""
    xs = vertex_mask(g, x)
    ys = vertex_mask(g, y)
    return not (xs | mask_neighbors(g.neighbor_masks(), xs)) & ys


def induced_subgraph(g: Graph, s: Iterable[int] | int) -> tuple[Graph, tuple[int, ...]]:
    """The subgraph induced on s, on g's own vertex ids, plus s sorted.

    Returns (h, members): h has h.n == g.n and keeps exactly the edges of g
    with both ends in s, so every vertex outside s is isolated in h.
    members is tuple(sorted(s)).
    """
    keep = vertex_mask(g, s)
    return _kept_subgraph(g, keep), tuple(mask_members(keep))


def _kept_subgraph(g: Graph, keep: int) -> Graph:
    """induced_subgraph on the vertex mask keep, for callers that hold a
    mask already: g's ids, the edges inside keep, the rest isolated."""
    return Graph._from_masks([m & keep if keep >> v & 1 else 0 for v, m in enumerate(g.neighbor_masks())])


def components(g: Graph) -> list[VertexSet]:
    """Connected components, each as a vertex set, ordered by smallest member."""
    adj = g.neighbor_masks()
    left = (1 << g.n) - 1
    out: list[VertexSet] = []
    while left:
        comp = mask_ball(adj, left & -left)
        out.append(frozenset(mask_members(comp)))
        left ^= comp
    return out


def _as_path(p) -> Path:
    """p as a tuple if it is a tuple, list or range, and else the empty path."""
    return tuple(p) if isinstance(p, (tuple, list, range)) else ()


def path_mask(g: Graph, p: Path) -> int:
    """The vertex mask of p if is_path(g, p), and 0 otherwise."""
    if not isinstance(p, (tuple, list, range)):  # what _as_path reads as the empty path
        return 0
    adj, mask = g.neighbor_masks(), 0
    for i, v in enumerate(p):
        if type(v) is not int or not (0 <= v < g.n and (i == 0 or adj[p[i - 1]] >> v & 1)):
            return 0
        mask |= 1 << v
    return mask if mask.bit_count() == len(p) else 0


def is_path(g: Graph, p: Path) -> bool:
    """True iff p is a nonempty sequence of distinct vertices with consecutive edges."""
    return path_mask(g, p) != 0


def is_induced_path(g: Graph, p: Path) -> bool:
    """True iff p is a valid path with no chord between non-consecutive vertices."""
    return _chordless(g.neighbor_masks(), p, path_mask(g, p))


def _chordless(adj: Sequence[int], p: Path, on_p: int) -> bool:
    """is_induced_path for on_p = path_mask(g, p) and adj = g.neighbor_masks()."""
    # The path's own edges give its vertices 2(|p| - 1) neighbours on p; a
    # chord adds two more.
    return on_p != 0 and sum((adj[v] & on_p).bit_count() for v in p) == 2 * (len(p) - 1)


def _packing_checks(g: Graph, ends: int, ell: int, paths: Sequence[Path]) -> list[tuple[str, bool, object]]:
    """The (name, ok, witness) checks that paths are a packing in g: induced
    paths between vertices of the mask ends, of length >= ell, pairwise
    anti-complete. Per path i, in order: path[i].valid, .induced,
    .endpoints_in_terminals and .length, each path checked once, into its
    mask; an entry that is no path is read by _as_path as the empty path,
    which fails all four. Then pairs.anti_complete, whatever the number of
    paths, lists the touching pairs [i, j] (i < j, in order): a pair touches
    iff a path is invalid or j meets i's closed neighbourhood, a mask_ball
    of radius 1."""
    adj, masks, checks = g.neighbor_masks(), [], []
    for i, p in enumerate(paths):
        q = _as_path(p)
        masks.append(m := path_mask(g, q))
        ok_ends = len(q) >= 2 and all(type(v) is int and 0 <= v < g.n and ends >> v & 1 for v in (q[0], q[-1]))
        checks += [
            (f"path[{i}].valid", m != 0, q or p),
            (f"path[{i}].induced", _chordless(adj, q, m), q or p),
            (f"path[{i}].endpoints_in_terminals", ok_ends, (q[0], q[-1]) if q else ()),
            (f"path[{i}].length", len(q) - 1 >= ell, len(q) - 1),
        ]
    closed = [mask_ball(adj, m, -1, 1) for m in masks]
    touching = [
        [i, j]
        for i in range(len(masks))
        for j in range(i + 1, len(masks))
        if not (masks[i] and masks[j]) or closed[i] & masks[j]
    ]
    checks.append(("pairs.anti_complete", not touching, touching))
    return checks


def power_graph(g: Graph, d: int) -> Graph:
    """The d-th power of g: same vertices, edges between all pairs at distance 1..d."""
    _need_int("d", d, 1)
    adj = g.neighbor_masks()
    return Graph._from_masks(mask_ball(adj, 1 << u, -1, d) ^ 1 << u for u in range(g.n))
