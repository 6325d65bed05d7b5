"""Instance construction: extremal families and seeded random corpora.

Every generator is a deterministic function of its arguments; random ones take
an explicit seed so test corpora replay identically.
"""

from __future__ import annotations

import random

from .graph import Graph, VertexSet, _need_int


def complete_instance(n: int) -> tuple[Graph, VertexSet]:
    """K_n with every vertex a terminal."""
    _need_int("n", n, 0)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, edges), frozenset(range(n))


def subdivided_complete_instance(k: int, r: int) -> tuple[Graph, VertexSet]:
    """K_{2k-1} with each edge replaced by a path of length 3r; terminals are the branch vertices.

    Branch vertices get ids 0..2k-2; the 3r-1 interior vertices of each
    subdivided edge follow in edge-lexicographic order, oriented from the
    lower branch endpoint to the higher.
    """
    _need_int("k", k, 2)
    _need_int("r", r, 1)
    b = 2 * k - 1
    edges = []
    next_id = b
    for u in range(b):
        for v in range(u + 1, b):
            prev = u
            for _ in range(3 * r - 1):
                edges.append((prev, next_id))
                prev = next_id
                next_id += 1
            edges.append((prev, v))
    return Graph(next_id, edges), frozenset(range(b))


def random_instance(
    n: int, edge_prob: float, a_prob: float, seed: int
) -> tuple[Graph, VertexSet]:
    """Erdos-Renyi style graph with Bernoulli terminal membership."""
    _need_int("n", n, 0)
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < edge_prob
    ]
    a = frozenset(v for v in range(n) if rng.random() < a_prob)
    return Graph(n, edges), a


def random_subcubic_tree(n: int, seed: int) -> tuple[list[tuple[int, int]], VertexSet]:
    """Random tree with maximum degree 3, as (edge list, degree-1 vertices).

    Vertex i >= 1 attaches to a uniformly chosen earlier vertex of current
    degree at most 2, so the degree cap is never exceeded.
    """
    _need_int("n", n, 1)
    rng = random.Random(seed)
    degree = [0] * n
    edges: list[tuple[int, int]] = []
    for v in range(1, n):
        candidates = [u for u in range(v) if degree[u] <= 2]
        u = rng.choice(candidates)
        edges.append((u, v))
        degree[u] += 1
        degree[v] += 1
    leaves = frozenset(v for v in range(n) if degree[v] == 1)
    return edges, leaves


def caterpillar_instance(legs: int, seed: int) -> tuple[Graph, VertexSet]:
    """A spine path with `legs` pendant paths of 4-7 edges; the leg tips are the terminals.

    Consecutive legs hang from spine vertices 8-12 apart, and the spine runs
    from the first attachment vertex to the last, so the tips are exactly the
    degree-1 vertices. Gaps and leg lengths are drawn from the seed. At
    ell = 3 the greedy frame takes in every leg, one extension step each, so
    these instances pack k paths iff k <= legs // 2. Spine ids come first,
    then each leg's vertices from its attachment outwards.
    """
    _need_int("legs", legs, 2)
    rng = random.Random(seed)
    attach = [0]
    for _ in range(legs - 1):
        attach.append(attach[-1] + rng.randint(8, 12))
    edges = [(v, v + 1) for v in range(attach[-1])]
    tips = []
    nxt = attach[-1] + 1
    for start in attach:
        prev = start
        for _ in range(rng.randint(4, 7)):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        tips.append(prev)
    return Graph(nxt, edges), frozenset(tips)
