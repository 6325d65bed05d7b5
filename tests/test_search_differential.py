"""Differential tests against the frozen references in reference_search.py.

The bitset search engine against the recursive reference: pruning may only
skip subtrees that hold no result, so every public search must return
exactly what the reference returns (the same path, not just a path of the
same length) and may never spend more budget. The engine's minimal mode is
compared with the reference's full search, its emits filtered by
brute.is_minimal_apath, and with the engine's own full search, emit by emit.

The liveness test against the whole-region flood it replaced: on branch
points taken from real path states it must return the same live mask, so
the engine run with either visits the same paths and spends exactly the
same nodes.

The mask oracles against the per-subset and frozenset oracles they replaced:
the same cover size and lexicographically first Z, the same packing counts,
the same disjoint-packing value. Every oracle searches the minimal paths,
while those references search every path, so the packing witness, which
names minimal paths, is compared with the first family over the minimal
paths of brute.py. Budgets are charged differently, so only answers are
compared.

shortest_apath against the neighbour-list BFS it replaced: ties may now end
at another terminal or walk back another way, so only None-ness and length
must agree.

Correctness against independent brute force is tested in test_search.py.
"""

from unittest import mock

from hypothesis import assume, given, settings, strategies as st

import apaths.search as search
from apaths import (
    Graph,
    enumerate_induced_apaths,
    find_induced_apath_in_range,
    max_anticomplete_packing_with_witness,
    max_vertex_disjoint_apath_packing,
    oracle_max_anticomplete_packing,
    oracle_min_ball_cover,
    random_instance,
    shortest_apath,
    shortest_long_induced_apath,
)
from apaths.graph import mask_members, to_mask
from brute import brute_ball, brute_induced_apaths, is_minimal_apath
from reference_search import (
    reference_live_extensions,
    reference_max_compatible_family,
    reference_max_anticomplete_packing_with_witness,
    reference_max_vertex_disjoint_apath_packing,
    reference_oracle_max_anticomplete_packing,
    reference_oracle_min_ball_cover,
    reference_shortest_apath,
    reference_terminal_path_dfs,
)

instances = st.builds(
    random_instance,
    st.integers(2, 10),
    st.sampled_from([0.2, 0.35, 0.5, 0.7]),
    st.sampled_from([0.3, 0.6, 1.0]),
    st.integers(0, 100_000),
)


def reference_on_mask(g, terminals, lo, cap, budget, emit, minimal=False):
    """reference_terminal_path_dfs behind the engine's signature: the
    terminal mask is turned back into a set, and minimal filters the full
    search's emits with brute.is_minimal_apath."""
    a_set = frozenset(mask_members(terminals))
    if minimal:
        full_emit = emit

        def emit(path):
            return full_emit(path) if is_minimal_apath(path, a_set, lo) else None

    return reference_terminal_path_dfs(g, a_set, lo, cap, budget, emit)


def both_engines(call):
    """(result, nodes spent) of call(budget) under the engine and the reference."""
    out = []
    for reference in (False, True):
        budget = search._Budget(10**9, "differential")
        if reference:
            with mock.patch.object(search, "_terminal_path_dfs", reference_on_mask):
                result = call(budget)
        else:
            result = call(budget)
        out.append((result, budget.limit - budget.remaining))
    return out


def assert_same(call):
    (got, spent), (want, ref_spent) = both_engines(call)
    assert got == want
    assert spent <= ref_spent


class TestAgainstReference:
    @given(instances, st.integers(1, 8), st.one_of(st.none(), st.integers(0, 4)))
    @settings(max_examples=150, deadline=None)
    def test_find_in_range(self, inst, lo, width):
        g, a = inst
        rng = (lo, None if width is None else lo + width)
        assert_same(lambda b: find_induced_apath_in_range(g, a, rng, b))

    @given(instances, st.integers(1, 7))
    @settings(max_examples=150, deadline=None)
    def test_shortest_long(self, inst, ell):
        g, a = inst
        assert_same(lambda b: shortest_long_induced_apath(g, a, ell, b))

    @given(instances, st.integers(1, 7), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_enumerate(self, inst, ell, minimal):
        g, a = inst
        assert_same(lambda b: enumerate_induced_apaths(g, a, ell, b, minimal=minimal))

    def test_reference_is_really_swapped_in(self):
        # Guard against the patch silently missing: on a 4x4 grid with
        # corner terminals the exhaustive reference visits far more paths.
        edges = [(r * 4 + c, r * 4 + c + 1) for r in range(4) for c in range(3)]
        edges += [(r * 4 + c, r * 4 + c + 4) for r in range(3) for c in range(4)]
        g, a = Graph(16, edges), {0, 3, 12, 15}
        (got, spent), (want, ref_spent) = both_engines(
            lambda b: find_induced_apath_in_range(g, a, (12, None), b)
        )
        assert got is None and want is None
        assert spent < ref_spent


# Sparse graphs with few terminals split the free region into several
# components, some of them without a target.
sparse_instances = st.builds(
    random_instance,
    st.integers(4, 14),
    st.sampled_from([0.15, 0.25, 0.35]),
    st.sampled_from([0.1, 0.25, 0.5]),
    st.integers(0, 100_000),
)


@st.composite
def branch_points(draw):
    """The arguments of one liveness test, at the tip of an induced path
    drawn step by step as the engine grows it: each step goes to a free
    neighbour of the tip and blocks the old tip's neighbourhood."""
    g, a = draw(sparse_instances)
    adj = g.neighbor_masks()
    tip = draw(st.integers(0, g.n - 1))
    blocked = 1 << tip
    for _ in range(draw(st.integers(0, g.n))):
        ext = adj[tip] & ~blocked
        if not ext:
            break
        blocked |= adj[tip]
        tip = draw(st.sampled_from([v for v in range(g.n) if ext >> v & 1]))
    ext = adj[tip] & ~blocked & draw(st.one_of(st.just(-1), st.integers(0, 2**g.n - 1)))
    targets = sum(1 << v for v in a)
    need = draw(st.integers(-1, g.n + 1))
    depth = draw(st.one_of(st.none(), st.integers(0, g.n)))
    return adj, ext, blocked | adj[tip], targets, need, depth


@st.composite
def spent_union_points(draw):
    """The arguments of one uncapped liveness test whose last child is live
    only by a union: its seeds meet two or more components of the free
    region, each flooded to its end by an earlier sibling and each too small
    alone, while together they hold a target and need - 1 vertices.

    Vertex 0 is the tip, 1..c its children, the last child c, and the
    components follow, each a random tree plus random chords. Each
    component has one or two siblings with seeds in it, and up to two more
    siblings have no free neighbour at all."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    met = draw(st.lists(st.sampled_from(range(len(sizes))), min_size=2, unique=True))
    union = sum(sizes[i] for i in met)
    assume(union > max(sizes))
    owners = [i for i in range(len(sizes)) for _ in range(draw(st.integers(1, 2)))]
    siblings = draw(st.permutations(owners + [None] * draw(st.integers(0, 2))))  # each one's component
    c = len(siblings) + 1
    start = [c + 1 + sum(sizes[:i]) for i in range(len(sizes))]
    parts = [list(range(s, s + size)) for s, size in zip(start, sizes)]
    edges = {(0, w) for w in range(1, c + 1)}
    for part in parts:
        for j in range(1, len(part)):
            edges.add((draw(st.sampled_from(part[:j])), part[j]))
        chords = [(u, v) for j, u in enumerate(part) for v in part[j + 1:]]
        if chords:
            edges |= set(draw(st.lists(st.sampled_from(chords), max_size=2)))

    def some(part):
        return draw(st.lists(st.sampled_from(part), min_size=1, unique=True))

    for w, i in enumerate(siblings, start=1):
        if i is not None:
            edges |= {(w, v) for v in some(parts[i])}
    for i in met:
        edges |= {(c, v) for v in some(parts[i])}
    free = [v for part in parts for v in part]
    sure = draw(st.sampled_from([v for i in met for v in parts[i]]))  # a target in the union
    targets = sum(1 << v for v in {sure, *draw(st.lists(st.sampled_from(free)))})
    need = draw(st.integers(max(sizes) + 2, union + 1))
    g = Graph(start[-1] + sizes[-1], edges)
    ext = (2 << c) - 2
    return g.neighbor_masks(), ext, ext | 1, targets, need, None


def on_free(reference):
    """reference_live_extensions, which takes the children's blocked mask,
    as a liveness test on the engine's free set: the engine's free set
    lies inside V, so its complement is blocked, up to bits above V that
    the reference never reads (it works on ~blocked, which is free)."""
    return lambda adj, ext, free, *rest: reference(adj, ext, ~free, *rest)


def free_set(args):
    """Liveness arguments with their blocked mask replaced by the free set
    the engine passes: the vertices of V outside it."""
    adj, ext, blocked, *rest = args
    return (adj, ext, (1 << len(adj)) - 1 & ~blocked, *rest)


def spent_under(live_extensions, call):
    """(result, nodes spent) of call(budget) with the engine's liveness test
    swapped for live_extensions."""
    budget = search._Budget(10**9, "differential")
    with mock.patch.object(search, "_live_extensions", live_extensions):
        result = call(budget)
    return result, budget.limit - budget.remaining


class TestLiveExtensionsAgainstReference:
    @given(branch_points())
    @settings(max_examples=600, deadline=None)
    def test_same_live_mask(self, args):
        assert search._live_extensions(*free_set(args)) == reference_live_extensions(*args)

    @given(spent_union_points())
    @settings(max_examples=200, deadline=None)
    def test_same_live_mask_on_spent_unions(self, args):
        last = args[1].bit_length() - 1
        assert reference_live_extensions(*args) == 1 << last
        assert search._live_extensions(*free_set(args)) == 1 << last

    def assert_same_search(self, call):
        assert spent_under(search._live_extensions, call) == spent_under(on_free(reference_live_extensions), call)

    @given(instances, st.integers(1, 8), st.one_of(st.none(), st.integers(0, 4)))
    @settings(max_examples=150, deadline=None)
    def test_find_in_range(self, inst, lo, width):
        g, a = inst
        rng = (lo, None if width is None else lo + width)
        self.assert_same_search(lambda b: find_induced_apath_in_range(g, a, rng, b))

    @given(instances, st.integers(1, 7))
    @settings(max_examples=150, deadline=None)
    def test_shortest_long(self, inst, ell):
        g, a = inst
        self.assert_same_search(lambda b: shortest_long_induced_apath(g, a, ell, b))

    @given(instances, st.integers(1, 7), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_enumerate(self, inst, ell, minimal):
        g, a = inst
        self.assert_same_search(lambda b: enumerate_induced_apaths(g, a, ell, b, minimal=minimal))

    def test_grid_exhausts_in_the_same_nodes(self):
        # The 5x5 grid with corner terminals has no induced corner path of
        # length 17, so the search exhausts. The counting wrapper shows the
        # reference really ran in the engine.
        edges = [(r * 5 + c, r * 5 + c + 1) for r in range(5) for c in range(4)]
        edges += [(r * 5 + c, r * 5 + c + 5) for r in range(4) for c in range(5)]
        g, a = Graph(25, edges), {0, 4, 20, 24}
        calls = []

        def counted(*args):
            calls.append(args)
            return on_free(reference_live_extensions)(*args)

        call = lambda b: find_induced_apath_in_range(g, a, (17, None), b)
        assert spent_under(search._live_extensions, call) == (None, 539)
        assert spent_under(counted, call) == (None, 539)
        assert calls


class TestLesserEndFirst:
    """Every path the engine emits, and every path a query returns, runs
    from its lesser end to its greater end."""

    @given(instances, st.integers(1, 7), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_engine_emits_one_orientation(self, inst, ell, minimal):
        g, a = inst
        emitted = []

        def emit(path):
            emitted.append(path)

        search._terminal_path_dfs(
            g, to_mask(a), ell, None, search._Budget(10**9, "orientation"), emit,
            minimal=minimal,
        )
        assert all(p[0] < p[-1] for p in emitted)
        assert sorted(emitted) == enumerate_induced_apaths(g, a, ell, minimal=minimal)

    @given(instances, st.integers(1, 7), st.one_of(st.none(), st.integers(0, 4)))
    @settings(max_examples=150, deadline=None)
    def test_queries_return_one_orientation(self, inst, ell, width):
        g, a = inst
        rng = (ell, None if width is None else ell + width)
        found = [
            find_induced_apath_in_range(g, a, rng),
            shortest_long_induced_apath(g, a, ell),
            *enumerate_induced_apaths(g, a, ell),
        ]
        assert all(p[0] < p[-1] for p in found if p is not None)


class TestMinimalEmitOrder:
    """The engine's own minimal mode against its full search: the emits are
    the full search's minimal ones in the full search's order, which
    enumerate_induced_apaths hides by sorting, and no more nodes are spent."""

    @given(instances, st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_minimal_emits_are_the_full_emits_filtered(self, inst, ell):
        g, a = inst
        runs = []
        for minimal in (False, True):
            emitted = []
            budget = search._Budget(10**9, "emit order")
            search._terminal_path_dfs(g, to_mask(a), ell, None, budget, emitted.append, minimal=minimal)
            runs.append((emitted, budget.limit - budget.remaining))
        (full, full_spent), (minimal, minimal_spent) = runs
        assert minimal == [p for p in full if is_minimal_apath(p, a, ell)]
        assert minimal_spent <= full_spent


@given(instances)
@settings(max_examples=150, deadline=None)
def test_shortest_apath_matches_reference_length(inst):
    g, a = inst
    got, want = shortest_apath(g, a), reference_shortest_apath(g, a)
    assert (got is None) == (want is None)
    if got is not None:
        assert len(got) == len(want)
        assert got[0] in a and got[-1] in a and got[0] != got[-1]


@st.composite
def planted_long_paths(draw):
    """((g, a), ell) whose first long path is not minimal: the path
    0-1-...-m with terminals 0, t and m, where t lies fewer than ell steps
    from 0 and at least ell from m, so (0, ..., m) comes first in path
    order and holds the minimal (t, ..., m). Up to three more vertices,
    above m, join the path and each other at random and may be terminals."""
    ell = draw(st.integers(2, 3))
    t = draw(st.integers(1, ell - 1))
    m = t + draw(st.integers(ell, ell + 2))
    n = m + 1 + draw(st.integers(0, 3))
    extra = range(m + 1, n)
    edges = {(i, i + 1) for i in range(m)}
    pairs = [(u, v) for v in extra for u in range(v)]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=6)))
        a = {0, t, m} | draw(st.sets(st.sampled_from(extra)))
    else:
        a = {0, t, m}
    return (Graph(n, sorted(edges)), a), ell


def minimal_family_reference(g, a, ell, cap):
    """The first maximum anti-complete family over the minimal paths, from
    brute.py alone: brute_induced_apaths filtered by is_minimal_apath, each
    path's closed neighbourhood by brute_ball, and the frozen recursive
    family search."""
    paths = [p for p in brute_induced_apaths(g, a, lo=ell) if is_minimal_apath(p, a, ell)]
    closed = [brute_ball(g, p, 1) for p in paths]
    sets = [frozenset(p) for p in paths]
    return reference_max_compatible_family(paths, sets, closed, cap, search._Budget(10**9, "reference"))


class TestOraclesAgainstReference:
    @given(instances, st.integers(1, 3), st.integers(0, 2))
    @settings(max_examples=150, deadline=None)
    def test_cover(self, inst, ell, r):
        g, a = inst
        assert oracle_min_ball_cover(g, a, ell, r) == reference_oracle_min_ball_cover(g, a, ell, r)

    @given(st.one_of(st.tuples(instances, st.integers(1, 3)), planted_long_paths()), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_anticomplete_packing(self, case, cap):
        # The witness is the first family over the minimal paths; its size
        # is the packing number over every path (see search.py).
        (g, a), ell = case
        got = max_anticomplete_packing_with_witness(g, a, ell, cap)
        assert got == minimal_family_reference(g, a, ell, cap)
        assert got[0] == reference_oracle_max_anticomplete_packing(g, a, ell, cap)

    def test_witness_is_the_first_family_over_the_minimal_paths(self):
        # Each instance's first family over every path holds a path that is
        # not minimal, so the witness differs from it. Planted: on the path
        # 0-1-2-3 at ell 2, terminal 1 lies 2 steps from 3, so (0, 1, 2, 3)
        # comes first over every path, and its minimal subpath (1, 2, 3) is
        # the witness. Drawn: the oracle workload's first instance.
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert max_anticomplete_packing_with_witness(g, {0, 1, 3}, 2, 1) == (1, ((1, 2, 3),))
        for (g, a), ell, cap in (((g, {0, 1, 3}), 2, 1), (random_instance(11, 0.25, 0.6, 0), 2, 3)):
            witness = max_anticomplete_packing_with_witness(g, a, ell, cap)
            assert witness == minimal_family_reference(g, a, ell, cap)
            assert witness != reference_max_anticomplete_packing_with_witness(g, a, ell, cap)

    @given(instances, st.integers(1, 3), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_anticomplete_packing_count(self, inst, ell, cap):
        # The count oracle searches the minimal paths; the reference, all.
        g, a = inst
        assert oracle_max_anticomplete_packing(
            g, a, ell, cap
        ) == reference_oracle_max_anticomplete_packing(g, a, ell, cap)

    @given(instances, st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_disjoint_packing(self, inst, cap):
        g, a = inst
        assert max_vertex_disjoint_apath_packing(
            g, a, cap
        ) == reference_max_vertex_disjoint_apath_packing(g, a, cap)
