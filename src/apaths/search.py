"""Exact detection and search for A-paths and long induced A-paths.

An A-path is a path with at least one edge whose two endpoints lie in the
terminal set; interior terminal vertices are allowed unless stated otherwise.
Long induced A-path search is NP-hard in general, so every exact long-path
query runs one engine, _terminal_path_dfs: an iterative depth-first search
over chordless paths from each terminal but the largest, which targets only
the terminals above it, so each A-path is searched from its lesser end
only. find, has_long and shortest are one pass of it with a starting cap
(_shortest_path_until). Every query takes its terminal set a as vertex ids
or as their mask, and checks it once (graph.vertex_mask).

The engine keeps vertex sets as int bitmasks. A path on its stack carries
its free set, V minus the path and N(path - tip), so its extensions are
adj[tip] & free. Where a path has two or more extensions, an extension's
whole subtree is dropped if the region it can still reach through the
free vertices, as far as a length cap lets a path reach, holds no terminal
above the root or is too small to reach the minimum length.
Dropped subtrees contain no result, a path left out from its greater end
was offered from its lesser end first, and extensions are taken in sorted
order, so every caller's result is that of the full search.

The brute-force oracles run one pipeline. They enumerate the minimal long
paths once, which have no interior terminal at distance >= ell along them
from either end, and then work on bitmasks alone: path i is bit i of an
int. Cutting a long path at such a terminal, again and again, leaves a
minimal one on a subset of its vertices, so a set meets every long path iff
it meets every minimal one, and an anti-complete (or disjoint) family stays
one, of the same size, when each path becomes a minimal subpath; a
witness family names minimal paths. The engine extends no path past the
first terminal that splits it. Each oracle ORs per-vertex masks, the paths
that meet ball(v, r), and builds no ball: Z covers iff its OR at radius r
is all ones, and path j is compatible with path i iff path i's OR at
radius 1 (0 for disjointness) misses j. Families are searched as in
bit-parallel maximum clique.

A node budget bounds every call, shared by all searches one oracle, solve
or verify call makes, so runaway searches end in an explicit
BudgetExceededError instead of a silent hang. A node is one visited path of
the search engine, and in the oracles also one subset tried or one family
node.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .graph import (
    Graph,
    Path,
    VertexSet,
    _chordless,
    _need_int,
    mask_ball,
    mask_layers,
    mask_members,
    mask_neighbors,
    path_mask,
    vertex_mask,
    walk_back,
)

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """The exact search spent more nodes than the configured budget allows."""

    def __init__(self, budget: int, where: str):
        super().__init__(f"search budget of {budget} nodes exhausted in {where}")
        self.budget = budget
        self.where = where


class _Budget:
    """A running count of at least one node; spend() raises once it is overdrawn."""

    __slots__ = ("remaining", "limit", "where")

    def __init__(self, limit: int, where: str):
        _need_int("node budget", limit, 1)
        self.remaining = limit
        self.limit = limit
        self.where = where

    def spend(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise BudgetExceededError(self.limit, self.where)


def _as_budget(budget: int | _Budget, where: str) -> _Budget:
    """The caller's running budget, or a fresh one of `budget` nodes, so
    that searches made inside one oracle, solve or verify call all draw on
    the same nodes."""
    return budget if isinstance(budget, _Budget) else _Budget(budget, where)


def exists_apath(g: Graph, a: Iterable[int] | int) -> bool:
    """True iff some connected component contains at least two terminals."""
    adj = g.neighbor_masks()
    left = vertex_mask(g, a)
    while left:
        low = left & -left
        reach = mask_ball(adj, low)
        if reach & left != low:
            return True
        left &= ~reach
    return False


def shortest_apath(g: Graph, a: Iterable[int] | int) -> Path | None:
    """A minimum-length path joining two distinct terminals, or None.

    The result of minimisation is necessarily chordless with no interior
    terminal; both are checked rather than assumed. Ties go to the smallest
    start terminal, then to the least terminal at the shortest distance
    from it, and the path is walked back from there to the least neighbour
    one BFS layer closer at each step.
    """
    terminals = vertex_mask(g, a)
    adj = g.neighbor_masks()
    best: Path | None = None
    for s in mask_members(terminals):
        # Only a strictly shorter path improves on the incumbent.
        radius = None if best is None else len(best) - 2
        layers = mask_layers(adj, 1 << s, -1, terminals ^ 1 << s, radius)
        ends = layers[-1] & terminals
        if len(layers) > 1 and ends:
            best = walk_back(adj, layers, (ends & -ends).bit_length() - 1)
    if best is None:
        return None
    on_best = path_mask(g, best)
    if not _chordless(adj, best, on_best):
        raise AssertionError(f"shortest A-path {best} has a chord")
    if on_best & terminals != 1 << best[0] | 1 << best[-1]:
        raise AssertionError(f"shortest A-path {best} has an interior terminal")
    return best


def _live_extensions(
    adj: tuple[int, ...], ext: int, free: int, targets: int, need: int, depth: int | None
) -> int:
    """The extensions in ext whose subtrees can still emit a path of at
    least need and at most depth + 1 more edges (depth None: no cap).

    A child w adds w, and after it only vertices of free, the children's
    free set, reachable from w through free. Its subtree can emit only if w
    is a target long enough to be emitted itself (need <= 1), or if that
    region holds a target and at least need - 1 vertices, both within depth
    BFS levels of w: a path through w reaches level j of the region no
    sooner than j edges after w. If all of free is too small or holds no
    target, every child but such a target dies unflooded. Under a cap,
    emit's or a minimal path's, each child's levels are one mask_ball.

    Without a cap a child's region is the union of the components of free
    that its seeds, adj[w] & free, meet. A flood starts at one seed, so it
    stays in one component; it walks each frontier top bit first, and free
    is finite, so it takes no complement. If it alone meets the bound, it
    proves live every sibling with a seed in it (good); if it runs out, it
    is a whole component, which later siblings reuse (spent) and which
    counts towards the union. This is the hot path of exhaustive searches.
    """
    if free.bit_count() < need - 1 or not free & targets:
        return ext & targets if need <= 1 else 0
    live = ext
    good = 0  # the floods that met the bound on their own
    spent: list[int] = []  # the floods that ran out: whole components
    while ext:
        low = ext & -ext
        ext ^= low
        if need <= 1 and low & targets:
            continue
        seeds = adj[low.bit_length() - 1] & free
        if depth is not None:
            reach = mask_ball(adj, seeds, free, depth - 1) if depth else 0
            if not (reach & targets and reach.bit_count() >= need - 1):
                live ^= low
            continue
        if seeds & good:
            continue
        region = 0
        for comp in spent:
            if comp & seeds:
                region |= comp
        seeds ^= seeds & region
        while not (region & targets and region.bit_count() >= need - 1):
            if not seeds:
                live ^= low
                break
            reach = frontier = seeds & -seeds
            while not (reach & targets and reach.bit_count() >= need - 1):
                grown = 0
                while frontier:
                    v = frontier.bit_length() - 1
                    grown |= adj[v]
                    frontier ^= 1 << v
                frontier = grown & (free ^ reach)  # reach lies inside free
                if not frontier:
                    break
                reach |= frontier
            if frontier:  # met the bound on its own
                good |= reach
                break
            spent.append(reach)
            region |= reach
            seeds ^= seeds & reach
    return live


def _terminal_path_dfs(
    g: Graph,
    terminals: int,
    lo: int,
    cap: int | None,
    budget: _Budget,
    emit,
    minimal: bool = False,
) -> None:
    """Depth-first search over chordless paths anchored at a member of terminals.

    Every visited path is induced. The roots are the terminals but the
    largest, and root s targets the terminals above it. cap is the starting
    cap on path length (None: no cap). emit(path) is called at every path
    of length >= lo at a target, so path[0] < path[-1] for every emitted
    path; no path longer than the cap is visited, and emit returns the new
    cap (None: no cap), or the string "stop" to abort. With minimal, a
    terminal at index f >= 1 also caps every path through it, at f if
    f >= lo and else at f + lo - 1, since a longer path holds it at
    distance >= lo from one end. Each visited path costs one node, counted
    locally and settled into budget on every exit, so emit must not spend
    from budget. Every length query runs here, so this is the one check of
    its bounds: a lo or cap that is no int, lo < 1 or a cap below lo
    raises ValueError before any node is spent.

    Vertex sets are int bitmasks, and adjacency is g's own
    neighbor_masks. The search is iterative, so its depth is bounded by
    memory, not by the interpreter's recursion limit. Each path on the stack
    carries its free set, V minus path and N(path - tip): a vertex w may
    extend the path iff it is adjacent to the tip and free, since any other
    path vertex next to w would be a chord. The extensions are therefore
    ext = adj[tip] & free, and the children start from free ^ ext.

    Pruning: at a path with two or more extensions, each extension is tested
    before it is visited (_live_extensions). After w the search can add only
    vertices reachable from w in the children's free set, which lacks w's
    siblings, and under a cap C only within C - plen - 1 BFS levels of w;
    a subtree can emit only if that region holds a target and enough
    vertices to reach length lo. Terminals below the root are no targets
    but may still be interior vertices. Failing extensions are dropped with
    their whole subtree. The test runs only where the path branches: along
    a chain of single extensions the region ahead loses just the new tip at
    each step, so a test there would repeat the last verdict at a cost
    linear in the region, which is quadratic along long chains.

    Soundness: roots are taken in increasing order and extensions lowest
    bit first, i.e. in sorted-neighbour order. A dropped subtree holds no
    emit, and shared floods give each extension its own region's verdict.
    With minimal, no path past a terminal's cap, or its extension, is minimal.
    A path from root s to a terminal t < s is never emitted, but its
    reverse has the same length and was already offered from the earlier
    root t. That changes no caller's answer: the pass of every length query
    keeps only strictly shorter paths, and its cap only shrinks, so an
    extension dropped under the cap would stay dropped under a later one;
    enumerate keeps only path[0] < path[-1]. So every result, witness and
    visible emit order is a full search's; only fewer paths are visited and
    paid for.
    """
    _need_int("ell", lo, 1)
    if cap is not None:
        _need_int("cap", cap, lo)
    adj = g.neighbor_masks()
    left = budget.remaining  # nodes are counted here, and settled into budget on every exit
    targets = terminals
    everything = (1 << len(adj)) - 1
    # With minimal, caps[i] is the least cap of the terminals in path[1 : i + 1], or n; the root reads caps[-1].
    caps = [len(adj)] * (len(adj) + 1) if minimal else []
    try:
        while targets & (targets - 1):  # the largest terminal is never a root
            root = targets & -targets  # the lowest first
            targets ^= root  # the terminals above the root
            path = [root.bit_length() - 1]
            free = everything ^ root
            # One entry per path vertex with extensions left to try: the free
            # set its children start from, and those extensions.
            child_free: list[int] = []
            pending: list[int] = []
            while True:
                left -= 1
                if left < 0:
                    raise BudgetExceededError(budget.limit, budget.where)
                tip = path[-1]
                plen = len(path) - 1
                if targets >> tip & 1 and plen >= lo:
                    signal = emit(tuple(path))
                    if signal == "stop":
                        return
                    cap = signal
                limit = cap
                if minimal:
                    term_cap = caps[plen - 1]
                    if plen and terminals >> tip & 1:
                        own = plen if plen >= lo else plen + lo - 1
                        term_cap = own if own < term_cap else term_cap
                    caps[plen] = term_cap
                    if term_cap < (len(adj) if limit is None else limit):
                        limit = term_cap
                ext = 0
                if limit is None or plen < limit:
                    ext = adj[tip] & free
                    after = free ^ ext
                    if ext & (ext - 1):
                        depth = None if limit is None else limit - plen - 1
                        ext = _live_extensions(adj, ext, after, targets, lo - plen, depth)
                if ext:
                    child_free.append(after)
                    pending.append(ext)
                else:
                    path.pop()
                while pending:
                    ext = pending[-1]
                    if ext:
                        low = ext & -ext
                        pending[-1] = ext ^ low
                        path.append(low.bit_length() - 1)
                        free = child_free[-1]
                        break
                    pending.pop()
                    child_free.pop()
                    path.pop()
                else:
                    break
    finally:
        budget.remaining = left


def find_induced_apath_in_range(
    g: Graph,
    a: Iterable[int] | int,
    length_range: tuple[int, int | None],
    budget: int | _Budget = DEFAULT_BUDGET,
) -> Path | None:
    """Some induced A-path whose length lies in the closed range (lo, hi),
    or None (exact); hi None means no upper bound."""
    lo, hi = length_range
    b = _as_budget(budget, "find_induced_apath_in_range")
    return _shortest_path_until(g, vertex_mask(g, a), lo, g.n if hi is None else hi, b, hi)


def has_long_induced_apath(
    g: Graph, a: Iterable[int] | int, ell: int, budget: int | _Budget = DEFAULT_BUDGET
) -> bool:
    """Exact decision: does g contain an induced A-path of length >= ell?"""
    b = _as_budget(budget, "has_long_induced_apath")
    return _shortest_path_until(g, vertex_mask(g, a), ell, g.n, b) is not None


def shortest_long_induced_apath(
    g: Graph, a: Iterable[int] | int, ell: int, budget: int | _Budget = DEFAULT_BUDGET
) -> Path | None:
    """A minimum-length induced A-path among those of length >= ell, or None."""
    b = _as_budget(budget, "shortest_long_induced_apath")
    return _shortest_path_until(g, vertex_mask(g, a), ell, ell, b)


def _shortest_path_until(
    g: Graph, terminals: int, ell: int, stop: int, budget: _Budget, cap: int | None = None
) -> Path | None:
    """The shortest induced A-path of length in [ell, cap], or None, unless
    the search first emits one of length <= stop, which it returns at once.

    Branch-and-bound: once a path is found, only strictly shorter ones are
    sought. stop = ell gives shortest. find in (ell, hi) is stop = cap = hi,
    and stops at its first emit, as no path beyond the cap is visited; with
    no hi, stop = n does the same, as no path is longer than n - 1. With
    stop = 2 * ell - 1 and no cap the pass returns find's path in (ell, stop)
    if there is one: paths emitted before it are longer, so the cap stays
    >= stop, and pruning under such a cap keeps every subtree holding a
    path in [ell, stop]; both searches meet it first in the engine's order.
    """
    best: list[Path] = []

    def emit(path: Path):
        if not best or len(path) < len(best[0]):
            best[:] = [path]
        if len(best[0]) - 1 <= stop:
            return "stop"
        return len(best[0]) - 2  # only explore strictly shorter paths

    _terminal_path_dfs(g, terminals, ell, cap, budget, emit)
    return best[0] if best else None


def enumerate_induced_apaths(
    g: Graph,
    a: Iterable[int] | int,
    ell: int,
    budget: int | _Budget = DEFAULT_BUDGET,
    minimal: bool = False,
) -> list[Path]:
    """All induced A-paths of length >= ell, one orientation each, sorted;
    with minimal, only the minimal ones (see the module docstring)."""
    terminals = vertex_mask(g, a)
    out: list[Path] = []

    def emit(path: Path):
        if path[0] < path[-1]:  # one orientation under any engine; the reference emits both
            out.append(path)
        return None

    _terminal_path_dfs(
        g, terminals, ell, None,
        _as_budget(budget, "enumerate_induced_apaths"), emit, minimal,
    )
    return sorted(out)


def _path_masks(
    g: Graph, a: Iterable[int] | int, ell: int, budget: _Budget, r: int
) -> tuple[list[Path], list[int]]:
    """The minimal induced A-paths of length >= ell, enumerated once, and
    near[v], the mask of those that meet ball(v, r) (path i is bit i).

    near starts as the paths through v, and grows one round at a time: a
    path meets ball(v, j + 1) iff it meets ball(u, j) for a u in N[v].
    ball(v, n) is v's whole component, so at most n rounds are run.
    """
    paths = enumerate_induced_apaths(g, a, ell, budget, minimal=True)
    near = [0] * g.n
    for i, p in enumerate(paths):
        bit = 1 << i
        for v in p:
            near[v] |= bit
    adj = g.neighbor_masks()
    for _ in range(min(r, g.n)):
        near = [h | mask_neighbors(near, nbrs) for h, nbrs in zip(near, adj)]
    return paths, near


def _compatibility(paths: list[Path], near: list[int]) -> list[int]:
    """Per path i, the later paths j > i in no near[v] over v in path i, a
    symmetric relation: disjointness at radius 0, anti-completeness at radius 1."""
    top = 1 << len(paths)
    compat = []
    for i, p in enumerate(paths):
        hit = 0
        for v in p:
            hit |= near[v]
        compat.append((top - (2 << i)) & ~hit)
    return compat


def _max_compatible_family(
    compat: list[int], cap: int, budget: _Budget
) -> tuple[int, tuple[int, ...]]:
    """Largest family (up to cap) of pairwise compatible paths, and the
    indices of the first such family found.

    A bit-parallel branch and bound, as in bit-parallel maximum clique: a
    node carries its candidates, the later paths compatible with every
    chosen one, as one int. Children are taken lowest bit first, so families
    are visited in lexicographic index order, and a node whose chosen paths
    plus candidates cannot beat the best family so far is cut. A cut subtree
    holds no family larger than the best, so the first family found of each
    size, and with it the witness, is that of the unpruned search.
    budget.spend() is called once per family node. The search is a loop
    over an explicit stack, so a family of any size fits.
    """
    best = 0
    best_family: tuple[int, ...] = ()
    chosen: list[int] = []
    left = [(1 << len(compat)) - 1]  # the candidates still to try at each open node, root first
    spend = budget.spend
    while left:
        cands = left[-1]
        if cands and best < cap and len(chosen) + cands.bit_count() > best:
            low = cands & -cands
            left[-1] = cands = cands ^ low
            i = low.bit_length() - 1
            spend()
            chosen.append(i)
            if len(chosen) > best:
                best = len(chosen)
                best_family = tuple(chosen)
            left.append(cands & compat[i])
        else:
            left.pop()
            if chosen:
                chosen.pop()
    return best, best_family


def _max_family(
    g: Graph, a: Iterable[int] | int, ell: int, cap: int, r: int, budget: int | _Budget, where: str
) -> tuple[int, tuple[Path, ...]]:
    """The largest family (up to cap) of minimal long paths, no one of which
    meets another's radius-r ball, and the first in lexicographic path
    order; a fresh budget is named where, after the caller, and pays for the
    enumeration and the family search."""
    _need_int("cap", cap, 1)
    b = _as_budget(budget, where)
    paths, near = _path_masks(g, a, ell, b, r)
    size, family = _max_compatible_family(_compatibility(paths, near), cap, b)
    return size, tuple(paths[i] for i in family)


def max_anticomplete_packing_with_witness(
    g: Graph, a: Iterable[int] | int, ell: int, cap: int, budget: int | _Budget = DEFAULT_BUDGET
) -> tuple[int, tuple[Path, ...]]:
    """Maximum family (up to cap) of pairwise anti-complete induced A-paths
    of length >= ell, and the first such family in lexicographic order over
    the minimal paths (see the module docstring): radius 1."""
    return _max_family(g, a, ell, cap, 1, budget, "max_anticomplete_packing_with_witness")


def oracle_max_anticomplete_packing(
    g: Graph, a: Iterable[int] | int, ell: int, cap: int, budget: int | _Budget = DEFAULT_BUDGET
) -> int:
    """The packing number of max_anticomplete_packing_with_witness."""
    return _max_family(g, a, ell, cap, 1, budget, "oracle_max_anticomplete_packing")[0]


def max_vertex_disjoint_apath_packing(
    g: Graph, a: Iterable[int] | int, cap: int, budget: int | _Budget = DEFAULT_BUDGET
) -> int:
    """Classical brute-force baseline: maximum number of vertex-disjoint
    A-paths, searched among the minimal ones at ell = 1 (chordless, with no
    interior terminal) at radius 0."""
    return _max_family(g, a, 1, cap, 0, budget, "max_vertex_disjoint_apath_packing")[0]


def oracle_min_ball_cover(
    g: Graph, a: Iterable[int] | int, ell: int, r: int, budget: int | _Budget = DEFAULT_BUDGET
) -> tuple[int, VertexSet]:
    """Smallest Z such that deleting the radius-r ball around Z kills every
    induced A-path of length >= ell; found by subset enumeration by size.

    Returns (|Z|, Z) for the lexicographically first minimum Z.

    An induced path of g - X is an induced path of g, so deleting ball(Z, r)
    kills every long induced A-path iff the ball meets each minimal one,
    since every long path holds one (see the module docstring): iff the OR
    of hit[v], the paths that meet ball(v, r), over Z is all ones. The
    budget pays for the enumeration and one node per subset tried.
    """
    terminals = vertex_mask(g, a)
    _need_int("r", r, 0)
    b = _as_budget(budget, "oracle_min_ball_cover")
    paths, hit = _path_masks(g, terminals, ell, b, r)
    full = (1 << len(paths)) - 1
    b.spend()  # the empty set
    if not full:
        return 0, frozenset()
    # Subsets of each size in lexicographic order, grouped by all but their
    # last vertex, whose OR is formed once per group.
    for size in range(1, g.n + 1):
        for head in combinations(range(g.n), size - 1):
            acc = 0
            for v in head:
                acc |= hit[v]
            first = head[-1] + 1 if head else 0
            for last in range(first, g.n):
                if acc | hit[last] == full:
                    b.spend(last - first + 1)
                    return size, frozenset(head + (last,))
            b.spend(g.n - first)
    raise AssertionError("deleting every vertex always works")  # pragma: no cover
