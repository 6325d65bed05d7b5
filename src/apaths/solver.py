"""The constructive dichotomy: pack k far-apart long induced A-paths, or
produce two small hitting sets whose ball-removal kills all of them.

solve() mirrors the inductive proof step by step. Intermediate-length paths
(length in [ell, 2*ell - 1]) are peeled off first with a radius-1 ball; once
every long induced A-path has length >= 2*ell, a frame is grown greedily and
either yields enough pairwise anti-complete paths directly, or its
neighbourhood separates the leftover terminals so the recursion can continue
on a strictly smaller k. Every recursive call works on an induced subgraph
that keeps the original graph's vertex ids, so its certificate is returned
as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Union

from .frame import Frame, FrameInvariantError, build_maximal_frame, extract_frame_paths
from .graph import (
    Graph,
    Path,
    VertexSet,
    anti_complete,
    ball,
    check_vertex_set,
    components,
    induced_subgraph,
    mask_ball,
    power_graph,
)
from .search import (
    DEFAULT_BUDGET,
    _Budget,
    LengthRange,
    find_induced_apath_in_range,
    has_long_induced_apath,
    shortest_long_induced_apath,
)


@dataclass(frozen=True)
class SolveParams:
    k: int
    ell: int
    node_budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"need k >= 0, got {self.k}")
        if self.ell < 1:
            raise ValueError(f"need ell >= 1, got {self.ell}")
        if self.node_budget < 1:
            raise ValueError(f"need a positive node budget, got {self.node_budget}")

    @property
    def ell_hat(self) -> int:
        return max(self.ell, 3)

    def cover_radius(self) -> int:
        """Ball radius for the second hitting set: max(ell + 1, 4)."""
        return self.ell_hat + 1

    def z1_limit(self) -> int:
        return (12 * self.ell_hat + 42) * max(self.k - 1, 0)

    def z2_limit(self) -> int:
        return 4 * max(self.k - 1, 0)


@dataclass(frozen=True)
class Packing:
    paths: tuple[Path, ...]


@dataclass(frozen=True)
class Cover:
    z1: VertexSet
    z2: VertexSet
    r1: int
    r2: int


Certificate = Union[Packing, Cover]

FrameObserver = Callable[[Frame], None]


def solve(
    g: Graph,
    a: Iterable[int],
    params: SolveParams,
    frame_observer: FrameObserver | None = None,
) -> Certificate:
    """Either a Packing of k paths or a Cover (z1, z2) within the size bounds.

    The recursion strictly decreases k, so it terminates on every input. A
    returned Cover satisfies the strong intersection form: removing
    N[z1] & N[z2, r2] already leaves no induced A-path of length >= ell (and
    hence so does removing either ball family alone). frame_observer, when
    given, is called with every frame the construction passes through.
    """
    ell = params.ell
    budget = _Budget(params.node_budget, "solve")
    radius = params.cover_radius()

    def level(g: Graph, a_set: VertexSet, params: SolveParams) -> Certificate:
        k = params.k
        if k == 0:
            return Packing(())
        if not has_long_induced_apath(g, a_set, ell, budget):
            return Cover(frozenset(), frozenset(), 1, radius)
        if k == 1:
            path = shortest_long_induced_apath(g, a_set, ell, budget)
            if path is None:
                raise FrameInvariantError("a long induced A-path exists, but the shortest search found none")
            return Packing((path,))

        mid = find_induced_apath_in_range(g, a_set, LengthRange(ell, 2 * ell - 1), budget)
        if mid is not None:
            removed = ball(g, mid, 1)
            h, _ = induced_subgraph(g, [v for v in range(g.n) if v not in removed])
            inner = level(h, a_set - removed, replace(params, k=k - 1))
            if isinstance(inner, Packing):
                return Packing((mid,) + inner.paths)
            return _bounded_cover(inner.z1 | frozenset(mid), inner.z2 | {mid[0], mid[-1]}, params)

        fr = build_maximal_frame(g, a_set, ell, budget, observer=frame_observer)
        if fr is None:
            raise FrameInvariantError("a long induced A-path exists, so a frame must too")
        half = fr.leaf_count // 2

        if half >= k:
            paths = extract_frame_paths(fr)
            return Packing(tuple(sorted(paths)[:k]))

        # Components of g - y_tilde holding a terminal still to process; the
        # vertices of y_tilde are singleton components of the cut graph.
        cut, _ = induced_subgraph(g, [v for v in range(g.n) if v not in fr.y_tilde])
        open_terminals = fr.a_bar - fr.y_tilde
        keep = frozenset().union(*(c for c in components(cut) if c & open_terminals))
        if not anti_complete(g, keep, fr.f_vertices):
            raise FrameInvariantError("remainder must be separated from the frame")
        h, _ = induced_subgraph(g, keep)
        inner = level(h, a_set & keep, replace(params, k=k - half))
        if isinstance(inner, Packing):
            frame_paths = extract_frame_paths(fr)
            return Packing(tuple(sorted(frame_paths + list(inner.paths))))
        return _bounded_cover(inner.z1 | fr.y, inner.z2 | fr.a_f | fr.hubs, params)

    return level(g, check_vertex_set(g, a), params)


def _bounded_cover(z1: VertexSet, z2: VertexSet, params: SolveParams) -> Cover:
    """The cover (z1, z2) at radii 1 and cover_radius, checked against the
    size bounds of params."""
    if len(z1) > params.z1_limit() or len(z2) > params.z2_limit():
        raise FrameInvariantError(
            f"cover sizes |z1| = {len(z1)}, |z2| = {len(z2)} exceed the bounds "
            f"{params.z1_limit()}, {params.z2_limit()} at k = {params.k}"
        )
    return Cover(z1, z2, 1, params.cover_radius())


def combine_check_theorem_forms(
    cert: Cover, g: Graph, a: Iterable[int], params: SolveParams
) -> tuple[bool, bool]:
    """Check the two single-set theorem forms implied by a Cover.

    Returns (holds_78_form, holds_4balls_form): whether g - N[z1] and
    g - N[z2, max(ell+1, 4)] are each free of long induced A-paths with the
    advertised sizes. At ell = 1 the z1 bound specialises to 78*(k-1) and the
    z2 radius to 4. Both removal searches draw on one budget of
    params.node_budget nodes.
    """
    a_set = check_vertex_set(g, a)
    budget = _Budget(params.node_budget, "combine_check_theorem_forms")

    def removal_is_clean(z: VertexSet, radius: int, limit: int) -> bool:
        if len(z) > limit:
            return False
        removed = ball(g, z, radius)
        h, _ = induced_subgraph(g, [v for v in range(g.n) if v not in removed])
        return not has_long_induced_apath(h, a_set - removed, params.ell, budget)

    return (
        removal_is_clean(cert.z1, cert.r1, params.z1_limit()),
        removal_is_clean(cert.z2, cert.r2, params.z2_limit()),
    )


@dataclass(frozen=True)
class PowerGraphMap:
    """A graph, its d-th power, and a short witness path per power edge."""

    base: Graph
    d: int
    powered: Graph
    witness: dict[tuple[int, int], Path]

    def witness_for(self, u: int, v: int) -> Path:
        """The stored base-graph path realising the power edge uv, oriented u -> v."""
        key = (u, v) if u < v else (v, u)
        path = self.witness[key]
        return path if path[0] == u else path[::-1]


def reduce_to_d3(g: Graph, d: int) -> PowerGraphMap:
    """Build the d-th power of g with a shortest base path witnessing each new edge.

    This is the reduction showing that far-apart path packing at distance d
    follows from the d = 3 case on the powered graph: power paths lift back
    to base paths along the witnesses. A witness u -> v walks back from v
    through the balls around u, always to the least neighbour one step
    closer to u.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    powered = power_graph(g, d)
    adj = g.neighbor_masks()
    witness: dict[tuple[int, int], Path] = {}
    for u in range(g.n):
        balls = [1 << u]  # balls[r]: the vertices within distance r of u
        for _ in range(d):
            balls.append(mask_ball(adj, balls[-1], -1, 1))
        for v in powered.neighbors(u):
            if v < u:
                continue
            path = [v]
            distance = next(r for r in range(1, d + 1) if balls[r] >> v & 1)
            for r in range(distance - 1, -1, -1):
                closer = adj[path[-1]] & balls[r]
                path.append((closer & -closer).bit_length() - 1)
            witness[(u, v)] = tuple(reversed(path))
    return PowerGraphMap(base=g, d=d, powered=powered, witness=witness)


def lift_path(pmap: PowerGraphMap, p_h: Path) -> Path:
    """A base-graph path with the same endpoints, inside the union of the
    witness paths of p_h's edges; its length is at most d times p_h's."""
    if len(p_h) == 1:
        return p_h
    allowed: set[int] = set()
    for u, v in zip(p_h, p_h[1:]):
        if not pmap.powered.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is not an edge of the powered graph")
        allowed.update(pmap.witness_for(u, v))
    g = pmap.base
    start, goal = p_h[0], p_h[-1]
    parent = {start: -1}
    queue = [start]
    while queue:
        nxt = []
        for v in queue:
            for w in g.neighbors(v):
                if w in allowed and w not in parent:
                    parent[w] = v
                    nxt.append(w)
        if goal in parent:
            break
        queue = nxt
    if goal not in parent:
        raise ValueError(f"the witnesses of {p_h} do not connect {start} to {goal}")
    path = [goal]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    return tuple(reversed(path))
