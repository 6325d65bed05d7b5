"""Frozen references for the differential tests, kept verbatim in behaviour.

reference_terminal_path_dfs is the original recursive, set-based
chordless-path search. It has the signature of
apaths.search._terminal_path_dfs, except that it takes the terminals as a
set where the engine takes their mask, so a test can swap it in, behind a
conversion, and compare what the public searches return and how many nodes
they spend. It recurses once
per path vertex, so it only serves small graphs.

The reference_* oracles are the brute-force oracles as they were before they
moved onto path bitmasks: the cover oracle builds an induced subgraph and runs
a fresh exact decision for every subset it tries, and the packing oracles test
compatibility one frozenset pair at a time. They call the live enumeration
and decision searches, which the engine tests above guard.

reference_live_extensions is the engine's liveness test as it was when it
flooded each extension's whole region from all of its seeds at once. It has
the signature of apaths.search._live_extensions, so a test can compare live
masks directly or swap it into the engine and compare nodes spent.

reference_shortest_apath is shortest_apath as a BFS over sorted neighbour
lists from each terminal, ending at the first terminal it discovers and
walking back along the first parent to discover each vertex.

Do not optimise any of this: its whole value is that it does not change.
"""

from __future__ import annotations

from itertools import combinations

from apaths.graph import ball, induced_subgraph, is_induced_path, mask_ball
from apaths.search import (
    DEFAULT_BUDGET,
    _as_budget,
    enumerate_induced_apaths,
    has_long_induced_apath,
)
from brute import check_vertex_set


def reference_terminal_path_dfs(
    g,
    a_set,
    lo: int,
    accept_hi: int | None,
    budget,
    emit,
    stop_at_terminals: bool = False,
) -> None:
    """Depth-first search over chordless paths anchored at a terminal.

    Extends partial paths one vertex at a time, refusing any extension that
    would create a chord, so every visited path is induced. emit(path) is
    called whenever the tip is a second terminal and the length falls in
    [lo, accept_hi]; its return value is the new cap on path length to keep
    exploring (None for unbounded), or the string "stop" to abort.
    With stop_at_terminals, paths are never extended past a terminal tip,
    which restricts the search to A-paths without interior terminals.
    """
    n = g.n
    on_path = bytearray(n)
    interior_adj = [0] * n
    path: list[int] = []
    ext_cap = accept_hi

    class _Stop(Exception):
        pass

    def rec() -> None:
        nonlocal ext_cap
        budget.spend()
        tip = path[-1]
        plen = len(path) - 1
        at_terminal = plen >= 1 and tip in a_set
        if at_terminal and plen >= lo and (accept_hi is None or plen <= accept_hi):
            signal = emit(tuple(path))
            if signal == "stop":
                raise _Stop
            ext_cap = signal
        if ext_cap is not None and plen >= ext_cap:
            return
        if stop_at_terminals and at_terminal:
            return
        for u in g.neighbors(tip):
            interior_adj[u] += 1
        for w in g.neighbors(tip):
            if on_path[w] or interior_adj[w] > 1:
                continue
            # interior_adj[w] == 1 here: the single count comes from tip itself
            on_path[w] = 1
            path.append(w)
            rec()
            path.pop()
            on_path[w] = 0
        for u in g.neighbors(tip):
            interior_adj[u] -= 1
    try:
        for s in sorted(a_set):
            on_path[s] = 1
            path.append(s)
            rec()
            path.pop()
            on_path[s] = 0
    except _Stop:
        pass


def reference_live_extensions(
    adj: tuple[int, ...], ext: int, child_blocked: int, targets: int, need: int, depth: int | None
) -> int:
    """The extensions in ext whose subtrees can still emit a path of at
    least need and at most depth + 1 more edges (depth None: no cap).

    A child w adds w, and after it only vertices reachable from w outside
    child_blocked. Its subtree can emit only if w is a target long enough
    to be emitted itself (need <= 1), or if that region holds a target and
    at least need - 1 vertices, both within depth BFS levels of w: a path
    through w reaches level j of the region no sooner than j edges after w.
    Under a cap those levels are one bounded mask_ball. Without one, the
    region is flooded one BFS level at a time, stopping as soon as both
    hold, so a live extension's region is rarely walked in full; this loop
    is the hot path of exhaustive searches and takes no per-level test.
    """
    free = ~child_blocked
    live = ext
    while ext:
        low = ext & -ext
        ext ^= low
        if need <= 1 and low & targets:
            continue
        reach = frontier = adj[low.bit_length() - 1] & free
        if depth is not None:
            reach = mask_ball(adj, reach, free, depth - 1) if depth else 0
            if not (reach & targets and reach.bit_count() >= need - 1):
                live ^= low
            continue
        while not (reach & targets and reach.bit_count() >= need - 1):
            grown = 0
            while frontier:
                bit = frontier & -frontier
                grown |= adj[bit.bit_length() - 1]
                frontier ^= bit
            frontier = grown & free & ~reach
            if not frontier:
                live ^= low
                break
            reach |= frontier
    return live


def reference_max_compatible_family(paths, path_sets, forbidden, cap, budget):
    """Largest family (up to cap) of paths with pairwise disjoint constraints.

    Path i is compatible with a chosen path j iff path_sets[i] avoids
    forbidden[j]; with forbidden = closed neighbourhoods this is
    anti-completeness, with forbidden = vertex sets it is plain disjointness.
    """
    best = 0
    best_witness = ()
    chosen: list[int] = []

    def rec(start: int) -> None:
        nonlocal best, best_witness
        if len(chosen) > best:
            best = len(chosen)
            best_witness = tuple(paths[i] for i in chosen)
        if best >= cap or len(chosen) + (len(paths) - start) <= best:
            return
        for i in range(start, len(paths)):
            budget.spend()
            if all(path_sets[i].isdisjoint(forbidden[j]) for j in chosen):
                chosen.append(i)
                rec(i + 1)
                chosen.pop()
                if best >= cap:
                    return

    rec(0)
    return min(best, cap), best_witness


def reference_max_anticomplete_packing_with_witness(g, a, ell, cap, budget=DEFAULT_BUDGET):
    """Maximum family (up to cap) of pairwise anti-complete induced A-paths of length >= ell."""
    if cap < 1:
        raise ValueError(f"need cap >= 1, got {cap}")
    b = _as_budget(budget, "oracle_max_anticomplete_packing")
    paths = enumerate_induced_apaths(g, a, ell, budget=b)
    path_sets = [frozenset(p) for p in paths]
    closed = [frozenset(ball(g, p, 1)) for p in paths]
    return reference_max_compatible_family(paths, path_sets, closed, cap, b)


def reference_oracle_max_anticomplete_packing(g, a, ell, cap, budget=DEFAULT_BUDGET):
    """Ground-truth packing number: see reference_max_anticomplete_packing_with_witness."""
    return reference_max_anticomplete_packing_with_witness(g, a, ell, cap, budget)[0]


def reference_max_vertex_disjoint_apath_packing(g, a, cap, budget=DEFAULT_BUDGET):
    """Classical brute-force baseline: maximum number of vertex-disjoint A-paths.

    Restricting to chordless A-paths without interior terminals loses no
    generality, since every A-path contains one on a subset of its vertices.
    """
    if cap < 1:
        raise ValueError(f"need cap >= 1, got {cap}")
    b = _as_budget(budget, "max_vertex_disjoint_apath_packing")
    paths = enumerate_induced_apaths(g, a, 1, budget=b, minimal=True)
    path_sets = [frozenset(p) for p in paths]
    size, _ = reference_max_compatible_family(paths, path_sets, path_sets, cap, b)
    return size


def reference_oracle_min_ball_cover(g, a, ell, r, budget=DEFAULT_BUDGET):
    """Smallest Z such that deleting the radius-r ball around Z kills every
    induced A-path of length >= ell; found by subset enumeration by size.

    Returns (|Z|, Z) for the lexicographically first minimum Z.
    """
    a_set = check_vertex_set(g, a)
    if r < 0:
        raise ValueError(f"need r >= 0, got {r}")
    b = _as_budget(budget, "oracle_min_ball_cover")
    for size in range(g.n + 1):
        for z in combinations(range(g.n), size):
            b.spend(g.n)
            removed = ball(g, z, r)
            h, _ = induced_subgraph(g, [v for v in range(g.n) if v not in removed])
            if not has_long_induced_apath(h, a_set - removed, ell, budget=b):
                return size, frozenset(z)
    raise AssertionError("deleting every vertex always works")  # pragma: no cover


def reference_shortest_apath(g, a):
    """A minimum-length path joining two distinct terminals, or None; ties
    go by BFS order (smaller start vertex first, sorted adjacency)."""
    a_set = check_vertex_set(g, a)
    if len(a_set) < 2:
        return None
    best = None
    for s in sorted(a_set):
        if best is not None and len(best) == 2:
            break
        parent = {s: -1}
        queue = [s]
        depth = 0
        found = None
        while queue and found is None:
            depth += 1
            if best is not None and depth > len(best) - 2:
                break  # cannot strictly improve on the incumbent from this start
            nxt = []
            for v in queue:
                for w in g.neighbors(v):
                    if w in parent:
                        continue
                    parent[w] = v
                    if w in a_set:
                        found = w
                        break
                    nxt.append(w)
                if found is not None:
                    break
            queue = nxt
        if found is not None:
            path = [found]
            while path[-1] != s:
                path.append(parent[path[-1]])
            path.reverse()
            if best is None or len(path) < len(best):
                best = tuple(path)
    if best is not None and not is_induced_path(g, best):
        raise AssertionError(f"shortest A-path {best} has a chord")
    if best is not None and set(best[1:-1]) & a_set:
        raise AssertionError(f"shortest A-path {best} has an interior terminal")
    return best
