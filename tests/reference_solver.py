"""Frozen references for the power-graph differential tests: the reduce_to_d3
that ran one BFS distance list per source vertex, and the lift_path that ran
a BFS over neighbour lists, kept verbatim in behaviour.

reference_reduce_to_d3 takes the same arguments as apaths.reduce_to_d3 and
returns an equal PowerGraphMap. reference_lift_path takes the same arguments
as apaths.lift_path; it walks back along the first parent to discover each
vertex. Do not optimise it: its whole value is that
it does not change.
"""

from __future__ import annotations

import math
from collections import deque

from apaths.graph import Graph, Path
from apaths.solver import PowerGraphMap


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
