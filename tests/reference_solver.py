"""Frozen references for the solver's differential tests.

reference_solve is solve as a recursion: a closure, level, that calls itself
on the induced subgraph a peeled path or a split frame leaves, and adds its
own path, frame paths or sets to what the inner call returns. It takes the
same arguments as apaths.solve and returns an equal certificate, hands its
observer the same frames, and spends its budget in the same order; its
depth grows with k, so a large k ends in a RecursionError.

reference_reduce_to_d3 and reference_lift_path are the power-graph
reduction that ran one BFS distance list per source vertex, and the
lift_path that ran a BFS over neighbour lists, kept verbatim in behaviour.
reference_reduce_to_d3 takes the same arguments as apaths.reduce_to_d3 and
returns an equal PowerGraphMap. reference_lift_path takes the same arguments
as apaths.lift_path; it walks back along the first parent to discover each
vertex. Do not optimise any of them: their whole value is that they do not
change.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import replace
from typing import Iterable

from apaths.frame import FrameInvariantError, build_maximal_frame, extract_frame_paths
from apaths.graph import (
    Graph,
    Path,
    VertexSet,
    ball,
    induced_subgraph,
    mask_ball,
    mask_members,
    mask_neighbors,
)
from apaths.search import (
    _Budget,
    find_induced_apath_in_range,
    has_long_induced_apath,
    shortest_long_induced_apath,
)
from apaths.solver import (
    Certificate,
    Cover,
    FrameObserver,
    Packing,
    PowerGraphMap,
    SolveParams,
)
from brute import check_vertex_set


def reference_solve(
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
    empty = Cover(frozenset(), frozenset(), 1, params.cover_radius())

    def level(g: Graph, a_set: VertexSet, params: SolveParams) -> Certificate:
        k = params.k
        if k == 0:
            return Packing(())
        if k == 1:
            path = shortest_long_induced_apath(g, a_set, ell, budget)
            return empty if path is None else Packing((path,))
        if not has_long_induced_apath(g, a_set, ell, budget):
            return empty

        mid = find_induced_apath_in_range(g, a_set, (ell, 2 * ell - 1), budget)
        if mid is not None:
            removed = ball(g, mid, 1)
            h, _ = induced_subgraph(g, [v for v in range(g.n) if v not in removed])
            inner = level(h, a_set - removed, replace(params, k=k - 1))
            if isinstance(inner, Packing):
                return Packing((mid,) + inner.paths)
            return _bounded_cover(inner.z1 | frozenset(mid), inner.z2 | {mid[0], mid[-1]}, params)

        fr = build_maximal_frame(g, a_set, ell, budget, observer=frame_observer, k=k)
        if fr is None:
            raise FrameInvariantError("a long induced A-path exists, so a frame must too")
        half = fr.leaf_count // 2

        if half >= k:
            paths = extract_frame_paths(fr)
            return Packing(tuple(sorted(paths)[:k]))

        # The components of g - y_tilde holding a terminal still to process.
        adj = g.neighbor_masks()
        outside = ~fr.y_tilde
        reach = mask_ball(adj, fr.a_bar & outside, outside)
        if (reach | mask_neighbors(adj, reach)) & fr.f:
            raise FrameInvariantError("remainder must be separated from the frame")
        keep = mask_members(reach)
        h, _ = induced_subgraph(g, keep)
        inner = level(h, a_set.intersection(keep), replace(params, k=k - half))
        if isinstance(inner, Packing):
            frame_paths = extract_frame_paths(fr)
            return Packing(tuple(sorted(frame_paths + list(inner.paths))))
        z1 = inner.z1.union(mask_members(fr.y))
        return _bounded_cover(z1, inner.z2.union(mask_members(fr.a_f | fr.hubs)), params)

    cert = level(g, check_vertex_set(g, a), params)
    del level  # it refers to itself: free it now, not at the next collection
    return cert


def _bounded_cover(z1: VertexSet, z2: VertexSet, params: SolveParams) -> Cover:
    """The cover (z1, z2) at radii 1 and cover_radius, checked against the
    size bounds of params."""
    if len(z1) > params.z1_limit() or len(z2) > params.z2_limit():
        raise FrameInvariantError(
            f"cover sizes |z1| = {len(z1)}, |z2| = {len(z2)} exceed the bounds "
            f"{params.z1_limit()}, {params.z2_limit()} at k = {params.k}"
        )
    return Cover(z1, z2, 1, params.cover_radius())


def _single_source_distances(g: Graph, source: int) -> list[int | float]:
    """BFS distances from one vertex; unreachable vertices get inf."""
    level: list[int | float] = [math.inf] * g.n
    level[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        d = level[v] + 1
        for w in g.neighbors(v):
            if level[w] is math.inf:
                level[w] = d
                queue.append(w)
    return level


def reference_reduce_to_d3(g: Graph, d: int) -> PowerGraphMap:
    """The d-th power of g with a shortest base path witnessing each new edge;
    each witness steps back to the least neighbour one closer to its start."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    witness: dict[tuple[int, int], Path] = {}
    edges = []
    for u in range(g.n):
        dist_u = _single_source_distances(g, u)
        parents: dict[int, int] = {u: -1}
        order = sorted(
            (v for v in range(g.n) if 0 < dist_u[v] <= d),
            key=lambda v: (dist_u[v], v),
        )
        for v in order:
            best = min(
                (w for w in g.neighbors(v) if dist_u[w] == dist_u[v] - 1),
            )
            parents[v] = best
        for v in order:
            if v < u:
                continue
            edges.append((u, v))
            path = [v]
            while parents[path[-1]] != -1:
                path.append(parents[path[-1]])
            witness[(u, v)] = tuple(reversed(path))
    return PowerGraphMap(base=g, d=d, powered=Graph(g.n, edges), witness=witness)


def reference_lift_path(pmap: PowerGraphMap, p_h: Path) -> Path:
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
