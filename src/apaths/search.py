"""Exact detection and search for A-paths and long induced A-paths.

An A-path is a path with at least one edge whose two endpoints lie in the
terminal set; interior terminal vertices are allowed unless stated otherwise.
Long induced A-path search is NP-hard in general, so every exact long-path
query (find in a length range, shortest long path, enumeration, and the
brute-force oracles built on them) runs one engine, _terminal_path_dfs: an
iterative depth-first search over chordless paths from each terminal.

The engine keeps vertex sets as int bitmasks. A path on its stack carries
blocked = path | N(path - tip), the vertices it may never use again, so its
extensions are adj[tip] & ~blocked. Where a path has two or more extensions,
a flood fill from each extension through the vertices still free drops that
extension's whole subtree if the region holds no terminal or is too small to
reach the minimum length. Dropped subtrees contain no result, and extensions
are taken in sorted order, so results and their order are those of the full
search.

A node budget bounds every call: one node per visited path, shared by all
searches one oracle, solve or verify call makes, so runaway searches end in
an explicit BudgetExceededError instead of a silent hang.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .graph import (
    Graph,
    Path,
    VertexSet,
    ball,
    check_vertex_set,
    components,
    induced_subgraph,
    is_induced_path,
    to_mask,
)

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """The exact search spent more nodes than the configured budget allows."""

    def __init__(self, budget: int, where: str):
        super().__init__(f"search budget of {budget} nodes exhausted in {where}")
        self.budget = budget
        self.where = where


class _Budget:
    __slots__ = ("remaining", "limit", "where")

    def __init__(self, limit: int, where: str):
        self.remaining = limit
        self.limit = limit
        self.where = where

    def spend(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise BudgetExceededError(self.limit, self.where)


def _as_budget(budget: int | _Budget, where: str) -> _Budget:
    """A fresh budget of `budget` nodes, or the caller's running budget, so
    that searches made inside one oracle, solve or verify call all draw on
    the same nodes."""
    return _Budget(budget, where) if isinstance(budget, int) else budget


@dataclass(frozen=True)
class LengthRange:
    """Closed interval of path lengths; hi=None means unbounded above."""

    lo: int
    hi: int | None = None

    def __post_init__(self):
        if self.lo < 0:
            raise ValueError(f"length bound must be nonnegative, got lo={self.lo}")
        if self.hi is not None and self.lo > self.hi:
            raise ValueError(f"empty length range [{self.lo}, {self.hi}]")

    def contains(self, length: int) -> bool:
        return length >= self.lo and (self.hi is None or length <= self.hi)


def exists_apath(g: Graph, a: Iterable[int]) -> bool:
    """True iff some connected component contains at least two terminals."""
    a_set = check_vertex_set(g, a)
    if len(a_set) < 2:
        return False
    return any(len(comp & a_set) >= 2 for comp in components(g))


def shortest_apath(g: Graph, a: Iterable[int]) -> Path | None:
    """A minimum-length path joining two distinct terminals, or None.

    The result of minimisation is necessarily chordless with no interior
    terminal; both are checked rather than assumed. Ties are broken by the
    deterministic BFS order (smaller start vertex first, sorted adjacency).
    """
    a_set = check_vertex_set(g, a)
    if len(a_set) < 2:
        return None
    best: Path | None = None
    for s in sorted(a_set):
        if best is not None and len(best) == 2:
            break
        parent: dict[int, int] = {s: -1}
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


def _live_extensions(adj: tuple[int, ...], ext: int, child_blocked: int, terminals: int, need: int) -> int:
    """The extensions in ext whose subtrees can still emit a path of at
    least need more edges.

    A child w adds w, and after it only vertices reachable from w outside
    child_blocked. Its subtree can emit only if w is a terminal long enough
    to be emitted itself (need <= 1), or if that region holds a terminal and
    at least need - 1 vertices. The region is flooded one BFS level at a
    time, stopping as soon as both hold, so a live extension's region is
    rarely walked in full.
    """
    free = ~child_blocked
    live = ext
    while ext:
        low = ext & -ext
        ext ^= low
        if need <= 1 and low & terminals:
            continue
        reach = frontier = adj[low.bit_length() - 1] & free
        while not (reach & terminals and reach.bit_count() >= need - 1):
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


def _terminal_path_dfs(
    g: Graph,
    a_set: VertexSet,
    lo: int,
    accept_hi: int | None,
    budget: _Budget,
    emit,
    stop_at_terminals: bool = False,
) -> None:
    """Depth-first search over chordless paths anchored at a terminal.

    Every visited path is induced. emit(path) is called whenever the tip is a
    second terminal and the length falls in [lo, accept_hi]; its return value
    is the new cap on path length to keep exploring (None for unbounded), or
    the string "stop" to abort. With stop_at_terminals, paths are never
    extended past a terminal tip, which restricts the search to A-paths
    without interior terminals. budget.spend() is called once per visited
    path.

    Vertex sets are int bitmasks, and adjacency is g's own cached
    neighbor_masks. The search is iterative, so its depth is bounded by
    memory, not by the interpreter's recursion limit. Each path on the stack
    carries blocked = path | N(path - tip): a vertex w may extend the path
    iff it is adjacent to the tip and not blocked, since any other path
    vertex next to w would be a chord. The extensions are therefore
    adj[tip] & ~blocked, and the child's mask is blocked | adj[tip].

    Pruning: at a path with two or more extensions, each extension is tested
    before it is visited (_live_extensions). After w the search can add only
    vertices reachable from w outside the child's mask, which already holds
    w's siblings; a subtree can emit only if that region holds a terminal and
    enough vertices to reach length lo. Failing extensions are dropped with
    their whole subtree. The test floods the region, so it runs only where
    the path branches: along a chain of single extensions the region ahead
    loses just the new tip at each step, so a test there would repeat the
    last verdict at a cost linear in the region, which is quadratic along
    long chains.

    Order: roots are the terminals in increasing order and extensions are
    taken lowest bit first, i.e. in sorted-neighbour order. A dropped subtree
    holds no emit, so the emitted sequence, and with it every length cap and
    every result, is the same as a full search's; only fewer paths are
    visited and paid for.
    """
    adj = g.neighbor_masks()
    terminals = to_mask(a_set)
    spend = budget.spend
    ext_cap = accept_hi
    for s in sorted(a_set):
        path = [s]
        blocked = 1 << s
        # One entry per path vertex with extensions left to try: the mask its
        # children start from, and those extensions.
        child_blocked: list[int] = []
        pending: list[int] = []
        while True:
            spend()
            tip = path[-1]
            plen = len(path) - 1
            at_terminal = plen >= 1 and terminals >> tip & 1
            if at_terminal and plen >= lo and (accept_hi is None or plen <= accept_hi):
                signal = emit(tuple(path))
                if signal == "stop":
                    return
                ext_cap = signal
            ext = 0
            if (ext_cap is None or plen < ext_cap) and not (stop_at_terminals and at_terminal):
                ext = adj[tip] & ~blocked
                after = blocked | adj[tip]
                if ext & (ext - 1):
                    ext = _live_extensions(adj, ext, after, terminals, lo - plen)
            if ext:
                child_blocked.append(after)
                pending.append(ext)
            else:
                path.pop()
            while pending:
                ext = pending[-1]
                if ext:
                    low = ext & -ext
                    pending[-1] = ext ^ low
                    path.append(low.bit_length() - 1)
                    blocked = child_blocked[-1]
                    break
                pending.pop()
                child_blocked.pop()
                path.pop()
            else:
                break


def find_induced_apath_in_range(
    g: Graph,
    a: Iterable[int],
    length_range: LengthRange | tuple[int, int | None],
    budget: int | _Budget = DEFAULT_BUDGET,
) -> Path | None:
    """Some induced A-path whose length lies in the range, or None (exact)."""
    if isinstance(length_range, tuple):
        length_range = LengthRange(*length_range)
    if length_range.lo < 1:
        raise ValueError("A-paths have at least one edge; need lo >= 1")
    a_set = check_vertex_set(g, a)
    if len(a_set) < 2:
        return None
    found: list[Path] = []

    def emit(path: Path):
        found.append(path)
        return "stop"

    _terminal_path_dfs(
        g, a_set, length_range.lo, length_range.hi,
        _as_budget(budget, "find_induced_apath_in_range"), emit,
    )
    return found[0] if found else None


def has_long_induced_apath(
    g: Graph, a: Iterable[int], ell: int, budget: int | _Budget = DEFAULT_BUDGET
) -> bool:
    """Exact decision: does g contain an induced A-path of length >= ell?"""
    if ell < 1:
        raise ValueError(f"need ell >= 1, got {ell}")
    if ell == 1:
        return exists_apath(g, a)
    return find_induced_apath_in_range(g, a, LengthRange(ell, None), budget) is not None


def shortest_long_induced_apath(
    g: Graph, a: Iterable[int], ell: int, budget: int | _Budget = DEFAULT_BUDGET
) -> Path | None:
    """A minimum-length induced A-path among those of length >= ell, or None.

    Branch-and-bound over the chordless-extension search: once a path of some
    length is found, extensions are pruned to strictly shorter candidates, and
    a path of length exactly ell ends the search immediately.
    """
    if ell < 1:
        raise ValueError(f"need ell >= 1, got {ell}")
    a_set = check_vertex_set(g, a)
    if len(a_set) < 2:
        return None
    best: list[Path] = []

    def emit(path: Path):
        if not best or len(path) < len(best[0]):
            best[:] = [path]
        if len(best[0]) - 1 == ell:
            return "stop"
        return len(best[0]) - 2  # only explore strictly shorter paths

    _terminal_path_dfs(
        g, a_set, ell, None,
        _as_budget(budget, "shortest_long_induced_apath"), emit,
    )
    return best[0] if best else None


def enumerate_induced_apaths(
    g: Graph,
    a: Iterable[int],
    ell: int,
    budget: int | _Budget = DEFAULT_BUDGET,
    no_interior_terminals: bool = False,
) -> list[Path]:
    """All induced A-paths of length >= ell, one orientation each, sorted."""
    a_set = check_vertex_set(g, a)
    out: set[Path] = set()

    def emit(path: Path):
        out.add(path if path[0] < path[-1] else path[::-1])
        return None

    _terminal_path_dfs(
        g, a_set, ell, None,
        _as_budget(budget, "enumerate_induced_apaths"), emit,
        stop_at_terminals=no_interior_terminals,
    )
    return sorted(out)


def _max_compatible_family(
    paths: list[Path],
    path_sets: list[frozenset[int]],
    forbidden: list[frozenset[int]],
    cap: int,
    budget: _Budget,
) -> tuple[int, tuple[Path, ...]]:
    """Largest family (up to cap) of paths with pairwise disjoint constraints.

    Path i is compatible with a chosen path j iff path_sets[i] avoids
    forbidden[j]; with forbidden = closed neighbourhoods this is
    anti-completeness, with forbidden = vertex sets it is plain disjointness.
    """
    best = 0
    best_witness: tuple[Path, ...] = ()
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


def max_anticomplete_packing_with_witness(
    g: Graph, a: Iterable[int], ell: int, cap: int, budget: int | _Budget = DEFAULT_BUDGET
) -> tuple[int, tuple[Path, ...]]:
    """Maximum family (up to cap) of pairwise anti-complete induced A-paths of length >= ell."""
    if cap < 1:
        raise ValueError(f"need cap >= 1, got {cap}")
    b = _as_budget(budget, "oracle_max_anticomplete_packing")
    paths = enumerate_induced_apaths(g, a, ell, budget=b)
    path_sets = [frozenset(p) for p in paths]
    closed = [frozenset(ball(g, p, 1)) for p in paths]
    return _max_compatible_family(paths, path_sets, closed, cap, b)


def oracle_max_anticomplete_packing(
    g: Graph, a: Iterable[int], ell: int, cap: int, budget: int | _Budget = DEFAULT_BUDGET
) -> int:
    """Ground-truth packing number: see max_anticomplete_packing_with_witness."""
    return max_anticomplete_packing_with_witness(g, a, ell, cap, budget)[0]


def max_vertex_disjoint_apath_packing(
    g: Graph, a: Iterable[int], cap: int, budget: int | _Budget = DEFAULT_BUDGET
) -> int:
    """Classical brute-force baseline: maximum number of vertex-disjoint A-paths.

    Restricting to chordless A-paths without interior terminals loses no
    generality, since every A-path contains one on a subset of its vertices.
    """
    if cap < 1:
        raise ValueError(f"need cap >= 1, got {cap}")
    b = _as_budget(budget, "max_vertex_disjoint_apath_packing")
    paths = enumerate_induced_apaths(g, a, 1, budget=b, no_interior_terminals=True)
    path_sets = [frozenset(p) for p in paths]
    size, _ = _max_compatible_family(paths, path_sets, path_sets, cap, b)
    return size


def oracle_min_ball_cover(
    g: Graph, a: Iterable[int], ell: int, r: int, budget: int | _Budget = DEFAULT_BUDGET
) -> tuple[int, VertexSet]:
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
