import dataclasses
import gc
import random
import sys
from contextlib import ExitStack, contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import brute
from apaths import (
    BudgetExceededError,
    Cover,
    FrameInvariantError,
    Graph,
    GraphError,
    Packing,
    SolveParams,
    ball,
    build_maximal_frame,
    caterpillar_instance,
    complete_instance,
    dist,
    extract_frame_paths,
    find_extension,
    find_induced_apath_in_range,
    has_long_induced_apath,
    induced_subgraph,
    is_path,
    lift_path,
    max_anticomplete_packing_with_witness,
    oracle_max_anticomplete_packing,
    random_instance,
    reduce_to_d3,
    shortest_long_induced_apath,
    solve,
    subdivided_complete_instance,
    verify_certificate,
    verify_cover,
    verify_packing,
)
import apaths.graph
import apaths.search as search
import apaths.solver as solver_module
import reference_solver
from apaths.graph import to_mask
from apaths.search import _Budget, _shortest_path_until
from reference_solver import reference_lift_path, reference_reduce_to_d3, reference_solve
from test_search import spent


# The apaths modules that check a vertex set with vertex_mask, and a path
# with path_mask.
VERTEX_MASK_MODULES = ("apaths.graph", "apaths.search", "apaths.frame", "apaths.solver", "apaths.verify")
PATH_MASK_MODULES = ("apaths.graph", "apaths.search", "apaths.frame")

# The verify_certificate checks that make up the two single-set theorem forms.
SINGLE_SET_FORMS = ("z1.size", "z1.removal.path_free", "z2.size", "z2.removal.path_free", "radii")


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestSolveParams:
    def test_ell_hat_floor(self):
        assert SolveParams(2, 1).ell_hat == 3
        assert SolveParams(2, 5).ell_hat == 5

    def test_limits_specialise_at_ell_one(self):
        p = SolveParams(k=3, ell=1)
        assert p.z1_limit() == 78 * 2
        assert p.z2_limit() == 4 * 2
        assert p.cover_radius() == 4

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolveParams(-1, 1)
        with pytest.raises(ValueError):
            SolveParams(1, 0)

    @pytest.mark.parametrize(
        "args", [(1.5, 3), (2, 2.5), (2, 3, 1e9), (2.0, 3), (True, 3), (2, True), (2, 3, True), ("2", 3)]
    )
    def test_refuses_sizes_that_are_not_ints(self, args):
        # A float k once reached the solver's separation check, a float ell
        # the engine's comparisons, and a float budget was accepted.
        with pytest.raises(ValueError, match="need an int"):
            SolveParams(*args)


class TestSolveBaseCases:
    def test_k_zero_empty_packing(self):
        g, a = complete_instance(4)
        assert solve(g, a, SolveParams(0, 1)) == Packing(())

    @pytest.mark.parametrize("bad", [1.0, True, "1"])
    def test_a_terminal_that_is_no_int_is_refused(self, bad):
        with pytest.raises(GraphError, match="not in graph"):
            solve(complete_instance(4)[0], {0, bad}, SolveParams(1, 1))

    def test_no_long_path_gives_empty_cover(self):
        g = Graph(3, [])
        cert = solve(g, {0, 1}, SolveParams(2, 1))
        assert cert == Cover(frozenset(), frozenset(), 1, 4)

    def test_single_terminal_short_circuits(self):
        g, _ = complete_instance(4)
        cert = solve(g, {2}, SolveParams(3, 1))
        assert isinstance(cert, Cover) and not cert.z1 and not cert.z2

    def test_k_one_packs_shortest(self):
        g, a = complete_instance(5)
        cert = solve(g, a, SolveParams(1, 1))
        assert isinstance(cert, Packing) and len(cert.paths) == 1
        assert len(cert.paths[0]) == 2


class TestSolveTraces:
    def test_k5_cover_is_one_edge(self):
        g, a = complete_instance(5)
        params = SolveParams(2, 1)
        cert = solve(g, a, params)
        assert cert == Cover(frozenset({0, 1}), frozenset({0, 1}), 1, 4)
        assert ball(g, cert.z1, 1) == frozenset(range(5))

    def test_two_disjoint_edges_pack(self):
        g = Graph(4, [(0, 1), (2, 3)])
        cert = solve(g, {0, 1, 2, 3}, SolveParams(2, 1))
        assert cert == Packing(((0, 1), (2, 3)))

    def test_certificates_use_original_ids(self):
        # shifted instance: vertex 0 is isolated, the action is on 1..5
        g = Graph(6, [(1, 2), (3, 4), (4, 5)])
        cert = solve(g, {1, 2, 3, 5}, SolveParams(2, 1))
        assert isinstance(cert, Packing)
        assert set(v for p in cert.paths for v in p) <= {1, 2, 3, 4, 5}

    def test_deterministic(self):
        g, a = random_instance(12, 0.3, 0.6, 7)
        params = SolveParams(3, 2)
        assert solve(g, a, params) == solve(g, a, params)


    @pytest.mark.parametrize(
        "instance,k,ell",
        [
            (complete_instance(5), 2, 1),
            (random_instance(10, 0.3, 0.6, 34), 2, 2),  # peels a middle-length path
            (caterpillar_instance(10, 0), 6, 3),  # splits at a frame, then covers
        ],
    )
    def test_leaves_no_reference_cycles(self, instance, k, ell):
        # A solve that left cyclic garbage would hand it to the collector,
        # whose next full pass could land inside the benchmark's reuse probe
        # and read as reuse.
        gc.collect()
        gc.disable()
        try:
            solve(*instance, SolveParams(k, ell))
            assert gc.collect() == 0
        finally:
            gc.enable()


random_corpus = st.builds(
    random_instance,
    st.integers(3, 12),
    st.sampled_from([0.15, 0.3, 0.5]),
    st.sampled_from([0.4, 0.8, 1.0]),
    st.integers(0, 10_000),
)


class TestSolveDichotomy:
    @given(random_corpus, st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_certificate_always_verifies(self, inst, k, ell):
        g, a = inst
        params = SolveParams(k, ell)
        cert = solve(g, a, params)
        report = verify_certificate(g, a, params, cert)
        assert report.passed, [str(c) for c in report.failures()]

    @given(random_corpus, st.integers(2, 3), st.integers(1, 2))
    @settings(max_examples=50, deadline=None)
    def test_packing_certifies_oracle_lower_bound(self, inst, k, ell):
        # the dichotomy is not exclusive (a cover may coexist with a large
        # packing), but a returned packing is a lower-bound witness the
        # brute-force oracle must confirm
        g, a = inst
        if g.n > 9:
            return
        params = SolveParams(k, ell)
        cert = solve(g, a, params)
        if isinstance(cert, Packing):
            assert oracle_max_anticomplete_packing(g, a, ell, k) >= k

    def test_a_cover_may_coexist_with_k_anti_complete_paths(self):
        """The theorem is an "or": a solve may return a cover although k
        pairwise anti-complete paths exist. On the path 1-3-0-4-2, all
        terminals, k 2, ell 1, the first peel is the middle-length path
        0-3, whose radius-1 ball takes every vertex but 2. What is left
        holds no A-path, so the solve covers, while 1-3 and 2-4 pack."""
        g, a = Graph(5, [(1, 3), (3, 0), (0, 4), (4, 2)]), set(range(5))
        params = SolveParams(2, 1)
        cert = solve(g, a, params)
        assert cert == Cover(frozenset({0, 3}), frozenset({0, 3}), 1, 4)
        assert ball(g, {0, 3}, 1) == frozenset(range(5)) - {2}
        assert verify_certificate(g, a, params, cert).passed
        assert max_anticomplete_packing_with_witness(g, a, 1, 2) == (2, ((1, 3), (2, 4)))

    @given(random_corpus, st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_theorem_forms_at_ell_one(self, inst, k):
        g, a = inst
        params = SolveParams(k, 1)
        cert = solve(g, a, params)
        if isinstance(cert, Cover):
            # The single-set forms: each ball family's removal alone, within its size bound.
            report = verify_certificate(g, a, params, cert)
            checks = {c.name: c.ok for c in report.checks}
            assert all(checks[name] for name in SINGLE_SET_FORMS), report.failures()
            assert len(cert.z1) <= 78 * (k - 1)
            assert len(cert.z2) <= 4 * (k - 1)
            assert cert.r2 == 4


class TestReduceAndLift:
    def test_d_one_identity(self):
        g = cycle(5)
        pmap = reduce_to_d3(g, 1)
        assert pmap.powered == g
        assert all(len(p) == 2 for p in pmap.witness.values())

    def test_c9_witnesses_short(self):
        pmap = reduce_to_d3(cycle(9), 3)
        assert all(1 <= len(p) - 1 <= 3 for p in pmap.witness.values())
        for (u, v), p in pmap.witness.items():
            assert p[0] == u and p[-1] == v

    def test_no_cross_component_edges(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        pmap = reduce_to_d3(g, 4)
        assert not any(u < 3 <= v for u, v in pmap.powered.edges())

    def test_lift_single_edge_is_witness(self):
        pmap = reduce_to_d3(cycle(9), 3)
        assert lift_path(pmap, (0, 3)) == pmap.witness_for(0, 3)

    def test_lift_length_two_on_c9(self):
        pmap = reduce_to_d3(cycle(9), 3)
        lifted = lift_path(pmap, (0, 3, 6))
        assert lifted[0] == 0 and lifted[-1] == 6
        assert len(lifted) - 1 <= 6

    def test_d_below_one_is_refused(self):
        with pytest.raises(ValueError, match="need d >= 1"):
            reduce_to_d3(cycle(5), 0)

    @pytest.mark.parametrize("d", [1.5, 2.0, True])
    def test_d_that_is_not_an_int_is_refused(self, d):
        # d = 1.5 once powered the 6-vertex path into K6, with 15 witnesses.
        with pytest.raises(GraphError, match="need an int d, got"):
            reduce_to_d3(Graph(6, [(v, v + 1) for v in range(5)]), d)

    def test_lift_refuses_a_pair_that_is_not_a_power_edge(self):
        # 0 and 4 lie 4 apart on C9, beyond the power d = 3
        pmap = reduce_to_d3(cycle(9), 3)
        with pytest.raises(ValueError, match="is not an edge of the powered graph"):
            lift_path(pmap, (0, 4))

    @pytest.mark.parametrize(
        "p_h", [(), (-1, 2), (2, -1), (0, 9), (99,), (-1,), (0, 3, 0), (0, 3, 6, 3), (0, 3.0), (True, 3), ("a",)]
    )
    def test_lift_refuses_a_sequence_that_is_no_powered_path(self, p_h):
        # (0, 3, 0) and (0, 3, 6, 3) repeat a vertex along power edges.
        pmap = reduce_to_d3(cycle(9), 3)
        with pytest.raises(ValueError):
            lift_path(pmap, p_h)

    @pytest.mark.parametrize("p_h", [5, None, {0, 3}, {3}, iter([0, 3]), 3.0])
    def test_lift_refuses_what_is_no_sequence(self, p_h):
        pmap = reduce_to_d3(cycle(9), 3)
        with pytest.raises(ValueError, match="is not a path of the powered graph"):
            lift_path(pmap, p_h)

    def test_lift_of_one_vertex_is_itself(self):
        pmap = reduce_to_d3(cycle(9), 3)
        assert lift_path(pmap, (3,)) == (3,)

    def test_lift_of_base_edges_path(self):
        g = cycle(9)
        pmap = reduce_to_d3(g, 3)
        assert lift_path(pmap, (0, 1, 2)) == (0, 1, 2)

    @given(
        st.integers(1, 14),
        st.sampled_from([0.15, 0.3, 0.5]),
        st.integers(0, 5_000),
        st.integers(1, 5),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, n, p, seed, d):
        g, _ = random_instance(n, p, 1.0, seed)
        new, old = reduce_to_d3(g, d), reference_reduce_to_d3(g, d)
        assert new.powered == old.powered
        assert new.witness == old.witness

    @given(
        st.integers(4, 12),
        st.sampled_from([0.25, 0.4, 0.6]),
        st.integers(0, 5_000),
        st.integers(2, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_lift_contract_on_random_graphs(self, n, p, seed, d):
        g, _ = random_instance(n, p, 1.0, seed)
        pmap = reduce_to_d3(g, d)
        dh = brute.all_pairs_dist(pmap.powered)
        h_paths = []
        for u in range(0, g.n, 3):
            for v in range(1, g.n, 3):
                if dh[u][v] is not brute.INF and u != v:
                    h_paths.append(_shortest_h_path(pmap.powered, u, v))
        for ph in h_paths[:6]:
            lifted = lift_path(pmap, ph)
            assert lifted[0] == ph[0] and lifted[-1] == ph[-1]
            assert len(lifted) - 1 <= d * (len(ph) - 1)
        for i in range(min(len(h_paths), 4)):
            for j in range(i + 1, min(len(h_paths), 4)):
                pi, pj = lift_path(pmap, h_paths[i]), lift_path(pmap, h_paths[j])
                if dist(g, pi, pj) < d:
                    assert dist(pmap.powered, h_paths[i], h_paths[j]) <= 2

    @given(
        st.integers(4, 12),
        st.sampled_from([0.25, 0.4, 0.6]),
        st.integers(0, 5_000),
        st.integers(2, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_lift_matches_reference_length(self, n, p, seed, d):
        # Ties may walk back another way, so only the length must agree.
        g, _ = random_instance(n, p, 1.0, seed)
        pmap = reduce_to_d3(g, d)
        dh = brute.all_pairs_dist(pmap.powered)
        for u in range(g.n):
            for v in range(g.n):
                if dh[u][v] is brute.INF:
                    continue
                ph = _shortest_h_path(pmap.powered, u, v)
                got, want = lift_path(pmap, ph), reference_lift_path(pmap, ph)
                assert len(got) == len(want)
                assert got[0] == u and got[-1] == v and is_path(g, got)
                allowed = {w for e in zip(ph, ph[1:]) for w in pmap.witness_for(*e)}
                assert len(ph) == 1 or set(got) <= allowed


def _shortest_h_path(h, u, v):
    from collections import deque

    parent = {u: -1}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == v:
            break
        for w in h.neighbors(x):
            if w not in parent:
                parent[w] = x
                queue.append(w)
    path = [v]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def spider_instance(seed: int):
    """3-6 paths of 1-6 edges glued at vertex 0, terminals at the tips."""
    rng = random.Random(2000 + seed)
    edges, tips = [], []
    nid = 1
    for _ in range(rng.randrange(3, 7)):
        prev = 0
        for _ in range(rng.randrange(1, 7)):
            edges.append((prev, nid))
            prev = nid
            nid += 1
        tips.append(prev)
    return Graph(nid, edges), frozenset(tips)


SPIDER_SEEDS = range(30)


def double_spider_instance(seed: int):
    """Two centres joined by a path of 4-7 edges, each with two legs of 4-7
    edges, terminals at the four leg tips."""
    rng = random.Random(3000 + seed)
    edges = []  # a tree grown from vertex 0, so edge i adds vertex i + 1

    def walk(start: int) -> int:
        for _ in range(rng.randint(4, 7)):
            edges.append((start, len(edges) + 1))
            start = len(edges)
        return start

    centres = (0, walk(0))
    tips = [walk(c) for c in centres for _ in range(2)]
    return Graph(len(edges) + 1, edges), frozenset(tips)


class TestFrameHeavyInstances:
    def test_spiders_exercise_extension_and_extraction(self):
        # spiders (paths glued at a hub, terminals at the tips) force the
        # solver through frame extension; a single-centre spider's frame
        # stops at 3 leaves, so only the double spiders, whose frames reach
        # 4 leaves, pack k = 2 paths through extraction
        seen = []
        runs = [(spider_instance(seed), k, ell) for seed in SPIDER_SEEDS for k in (2, 3) for ell in (1, 2, 3)]
        doubles = [(double_spider_instance(seed), 2, ell) for seed in range(10) for ell in (1, 2, 3)]
        with mock.patch.object(solver_module, "extract_frame_paths", wraps=extract_frame_paths) as spy:
            for (g, a), k, ell in runs + doubles:
                params = SolveParams(k, ell)
                cert = solve(g, a, params, frame_observer=seen.append)
                report = verify_certificate(g, a, params, cert)
                assert report.passed, (a, k, ell)
        assert any(fr.hubs for fr in seen)  # an init frame is a path, with no hub
        assert spy.call_count == len(doubles)

    def test_four_leaf_frame_packs_directly(self):
        # two pendant terminals on a long path: the frame reaches four
        # leaves, and floor(p/2) = k = 2 paths come straight off the hub tree
        edges = [(i, i + 1) for i in range(12)]
        edges += [(13, 14), (14, 15), (15, 16), (16, 17), (17, 4)]
        edges += [(18, 19), (19, 20), (20, 21), (21, 22), (22, 8)]
        g = Graph(23, edges)
        a = frozenset({0, 12, 13, 18})
        params = SolveParams(2, 3)
        cert = solve(g, a, params)
        assert cert == Packing(
            (
                (0, 1, 2, 3, 4, 17, 16, 15, 14, 13),
                (12, 11, 10, 9, 8, 22, 21, 20, 19, 18),
            )
        )
        assert verify_certificate(g, a, params, cert).passed


def traced_solve(solver, module, g, a, params):
    """solver's certificate, the tree edges of the frames it observed, in
    order, and the nodes it spent; module is where solver looks up _Budget."""
    budgets = []

    class Recorded(_Budget):
        __slots__ = ()

        def __init__(self, limit, where):
            super().__init__(limit, where)
            budgets.append(self)

    seen = []
    with mock.patch.object(module, "_Budget", Recorded):
        cert = solver(g, a, params, frame_observer=seen.append)
    (budget,) = budgets
    return cert, [fr.tree_edges for fr in seen], budget.limit - budget.remaining


@contextmanager
def calls_of(name, bound_in=()):
    """The argument tuples of the calls of apaths.graph's function name, in
    every apaths module that binds it (the modules bound_in among them),
    while the block runs."""
    real = vars(apaths.graph)[name]
    modules = [m for key, m in sys.modules.items() if key.startswith("apaths") and vars(m).get(name) is real]
    assert set(bound_in) <= {m.__name__ for m in modules}
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    with ExitStack() as stack:
        for m in modules:
            stack.enter_context(mock.patch.object(m, name, spy))
        yield calls


@contextmanager
def vertex_sets_checked():
    """The sets handed to vertex_mask, in every apaths module that binds it,
    while the block runs; a mask (an int) already passed its check."""
    sets = []
    with calls_of("vertex_mask", VERTEX_MASK_MODULES) as calls:
        yield sets
    sets.extend(x for _, x in calls if type(x) is not int)


def level_passes(g, a, params):
    """The reference recursion's certificate and observed frames, and the
    (graph, terminal mask, stop) of the one engine pass the loop runs per
    level the recursion visits: each level's first search is a shortest
    search at k = 1, stopping at ell, and a has_long search above, for a
    pass that stops at 2 * ell - 1."""
    passes = []

    def first_search(name, stop):
        real = vars(reference_solver)[name]

        def spy(h, a_set, ell, budget):
            passes.append((h, to_mask(a_set), stop))
            return real(h, a_set, ell, budget)

        return mock.patch.object(reference_solver, name, spy)

    ell = params.ell
    with first_search("shortest_long_induced_apath", ell), first_search("has_long_induced_apath", 2 * ell - 1):
        cert, frames, _ = traced_solve(reference_solve, reference_solver, g, a, params)
    return cert, frames, passes


def assert_matches_recursion(g, a, params):
    """The loop's certificate and frames are the recursion's, and it spends
    the nodes of one pass per level the recursion visits, replayed here on a
    fresh budget each; returns those nodes."""
    cert, frames, nodes = traced_solve(solve, solver_module, g, a, params)
    want, want_frames, passes = level_passes(g, a, params)
    assert (cert, frames) == (want, want_frames)
    replayed = [spent(lambda b: _shortest_path_until(h, s, params.ell, stop, b)) for h, s, stop in passes]
    assert nodes == sum(replayed)
    return nodes


CATERPILLAR_RUNS = [(legs, k) for legs in range(4, 26) for k in (2, legs // 2 + 1)]
SPIDER_RUNS = [(seed, k, ell) for seed in SPIDER_SEEDS for k in (2, 3) for ell in (1, 2, 3)]


class TestLoopMatchesRecursion:
    """The loop over levels against the frozen recursive solve: the same
    certificate and the same frames observed in the same order. The
    recursion runs up to three searches a level and the loop one, so the
    loop's nodes are checked against that pass replayed per level, and
    pinned in total on the deterministic families."""

    @given(random_corpus, st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_random_instances(self, inst, k, ell):
        assert_matches_recursion(*inst, SolveParams(k, ell))

    @pytest.mark.parametrize("legs", range(4, 26))
    def test_caterpillars(self, legs):
        # the caterpillars of test_frame_documents: k = 2 packs, and
        # k = legs // 2 + 1 splits at the maximal frame and covers
        g, a = caterpillar_instance(legs, legs)
        for k in (2, legs // 2 + 1):
            assert_matches_recursion(g, a, SolveParams(k, 3))

    @pytest.mark.parametrize("seed", SPIDER_SEEDS)
    def test_spiders(self, seed):
        g, a = spider_instance(seed)
        for k in (2, 3):
            for ell in (1, 2, 3):
                assert_matches_recursion(g, a, SolveParams(k, ell))

    def test_node_totals(self):
        # The recursion spends 23,716 nodes on the caterpillar runs and
        # 6,536 on the spider runs; one pass per level spends these.
        caterpillars = sum(
            traced_solve(solve, solver_module, *caterpillar_instance(legs, legs), SolveParams(k, 3))[2]
            for legs, k in CATERPILLAR_RUNS
        )
        spiders = sum(
            traced_solve(solve, solver_module, *spider_instance(seed), SolveParams(k, ell))[2]
            for seed, k, ell in SPIDER_RUNS
        )
        assert (caterpillars, spiders) == (13_866, 4_748)

    @pytest.mark.parametrize("k", [150, 250])
    def test_many_peels(self, k):
        # 200 disjoint edges, all terminals: one middle-length peel per
        # level, so k = 150 packs and k = 250 covers after 200 levels. Each
        # peel level's pass visits one root and its edge, as the recursion's
        # middle-length search does, and the last pass has no terminal.
        g, a = Graph(400, [(v, v + 1) for v in range(0, 400, 2)]), range(400)
        assert assert_matches_recursion(g, a, SolveParams(k, 1)) == 2 * min(k, 200)
        # The caller's set is checked once in all those levels; every level
        # hands its searches a mask, and so does the verifier.
        with vertex_sets_checked() as sets:
            cert = solve(g, a, SolveParams(k, 1))
        assert len(sets) == 1 and sets[0] is a
        assert isinstance(cert, Packing if k == 150 else Cover)
        if isinstance(cert, Cover):
            with vertex_sets_checked() as sets:
                assert verify_cover(g, a, SolveParams(k, 1), cert.z1, cert.z2).passed
            assert len(sets) == 3 and all(x is y for x, y in zip(sets, (a, cert.z1, cert.z2)))
        else:
            # Each of the k paths is checked once, and no pair calls
            # anti_complete: the pairs are read off the paths' masks.
            with calls_of("path_mask", PATH_MASK_MODULES) as paths, calls_of("anti_complete") as pairs:
                assert verify_packing(g, a, SolveParams(k, 1), cert.paths).passed
            assert [p for _, p in paths] == list(cert.paths) and not pairs


def middle_or_shortest(g, a, ell):
    """What a level's pass must return: the middle-length search's path if
    there is one, and else the shortest long path, so None when both are."""
    mid = find_induced_apath_in_range(g, a, (ell, 2 * ell - 1))
    return mid if mid is not None else shortest_long_induced_apath(g, a, ell)


@contextmanager
def engine_passes():
    """The graphs of the engine's passes while the block runs."""
    real = search._terminal_path_dfs
    graphs = []

    def spy(g, *args):
        graphs.append(g)
        return real(g, *args)

    with mock.patch.object(search, "_terminal_path_dfs", spy):
        yield graphs


class TestOnePassPerLevel:
    """A level's one engine pass, the shortest search stopped at its first
    path shorter than 2 * ell, returns the middle-length search's path when
    there is one and else the shortest long path; solve makes no other
    search."""

    @given(random_corpus, st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_the_pass_is_the_middle_or_the_shortest_search(self, inst, ell):
        g, a = inst
        got = _shortest_path_until(g, to_mask(a), ell, 2 * ell - 1, _Budget(10**9, "pass"))
        assert got == middle_or_shortest(g, a, ell)

    @pytest.mark.parametrize("legs", [2, 3, 5, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_the_pass_on_caterpillars(self, legs, seed):
        # Tips lie at least 16 apart: at ell 3 and 6 the pass ends on the
        # shortest long path, at ell 9 and 12 it may stop early, and at 100
        # it finds nothing.
        g, a = caterpillar_instance(legs, seed)
        for ell in (3, 6, 9, 12, 100):
            got = _shortest_path_until(g, to_mask(a), ell, 2 * ell - 1, _Budget(10**9, "pass"))
            assert got == middle_or_shortest(g, a, ell)

    def test_a_frame_level_runs_one_pass(self):
        # The recursion runs has_long, the middle-length search and
        # init_frame's search before its first frame.
        g, a = caterpillar_instance(12, 0)
        before_frames = []
        with engine_passes() as graphs:
            cert = solve(g, a, SolveParams(2, 3), frame_observer=lambda fr: before_frames.append(len(graphs)))
        assert before_frames == [1, 1, 1] and graphs == [g]
        assert cert == reference_solve(g, a, SolveParams(2, 3))

    def test_a_peel_level_runs_one_pass(self):
        # Two induced paths of length 2 at ell 2: the first level peels one,
        # where the recursion runs has_long and the middle-length search,
        # and the k = 1 level packs the other.
        g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        with engine_passes() as graphs:
            cert = solve(g, {0, 2, 3, 5}, SolveParams(2, 2))
        assert cert == Packing(((0, 1, 2), (3, 4, 5))) and len(graphs) == 2 and graphs[0] is g


class TestFrameStop:
    """A level's frame stops growing at the 2k leaves that pack its k paths;
    only a frame that runs out of extensions first, the cover branch's, is
    maximal."""

    def test_packing_level_stops_at_2k_leaves(self):
        g, a = caterpillar_instance(12, 0)
        seen, maximal = [], []
        cert = solve(g, a, SolveParams(2, 3), frame_observer=seen.append)
        build_maximal_frame(g, a, 3, observer=maximal.append)
        assert [fr.leaf_count for fr in seen] == [2, 3, 4]
        assert [fr.tree_edges for fr in seen] == [fr.tree_edges for fr in maximal[:3]]
        assert maximal[-1].leaf_count == 12
        assert cert == Packing(tuple(extract_frame_paths(seen[-1])))

    def test_inner_level_stops_at_its_own_k(self):
        # A 12-leg caterpillar and, apart from it, a path of length 6 whose
        # ends are terminals. The path is the shortest long A-path, so the
        # k = 3 level's frame is the path alone: maximal, with one pair. The
        # inner level, on the caterpillar, packs k = 2 from 4 leaves.
        cat, tips = caterpillar_instance(12, 0)
        n = cat.n
        g = Graph(n + 7, list(cat.edges()) + [(v, v + 1) for v in range(n, n + 6)])
        a = tips | {n, n + 6}
        seen = []
        cert = solve(g, a, SolveParams(3, 3), frame_observer=seen.append)
        assert [fr.leaf_count for fr in seen] == [2, 2, 3, 4]
        assert find_extension(seen[0]) is None and seen[1].terminals == tips
        inner = []
        build_maximal_frame(seen[1].host, seen[1].terminals, 3, observer=inner.append)
        assert inner[-1].leaf_count == 12
        assert [fr.tree_edges for fr in seen[1:]] == [fr.tree_edges for fr in inner[:3]]
        assert isinstance(cert, Packing) and len(cert.paths) == 3
        assert tuple(range(n, n + 7)) in cert.paths
        assert verify_certificate(g, a, SolveParams(3, 3), cert).passed

    def test_cover_level_reaches_the_maximal_frame(self):
        # 12 legs pack 6 paths; at k = 7 the frame takes in every leg, and
        # the cover is built from the maximal frame.
        g, a = caterpillar_instance(12, 0)
        seen, maximal = [], []
        cert = solve(g, a, SolveParams(7, 3), frame_observer=seen.append)
        build_maximal_frame(g, a, 3, observer=maximal.append)
        assert [fr.tree_edges for fr in seen] == [fr.tree_edges for fr in maximal]
        assert seen[-1].leaf_count == 12 and find_extension(seen[-1]) is None
        assert isinstance(cert, Cover)
        assert verify_certificate(g, a, SolveParams(7, 3), cert).passed


class TestBoundArithmetic:
    @pytest.mark.parametrize("k,ell", [(2, 1), (3, 1), (2, 2), (3, 3), (2, 5)])
    def test_cover_bounds_on_subdivided_instances(self, k, ell):
        g, a = subdivided_complete_instance(2, 1)
        params = SolveParams(k, ell)
        cert = solve(g, a, params)
        report = verify_certificate(g, a, params, cert)
        assert report.passed, [str(c) for c in report.failures()]
        if isinstance(cert, Cover):
            ell_hat = max(ell, 3)
            assert len(cert.z1) <= (12 * ell_hat + 42) * (k - 1)
            assert len(cert.z2) <= 4 * (k - 1)

    def test_each_level_checks_its_own_bounds(self):
        # 20 disjoint edges at k = 25: 20 peels, at k = 25 down to 6, then
        # the empty cover. With every bound but the outermost level's z2
        # bound cut to 0, the innermost cut level's two ends break its own
        # bound, though the whole cover meets the outermost one.
        g, a = Graph(40, [(v, v + 1) for v in range(0, 40, 2)]), range(40)
        real = SolveParams.z2_limit
        with mock.patch.object(SolveParams, "z2_limit", lambda self: real(self) if self.k == 25 else 0):
            for solver in (solve, reference_solve):
                with pytest.raises(FrameInvariantError, match=r"\|z2\| = 2 exceed the bounds 390, 0 at k = 6$"):
                    solver(g, a, SolveParams(25, 1))
        assert len(solve(g, a, SolveParams(25, 1)).z2) == 40 <= real(SolveParams(25, 1))


class TestPerCallObjects:
    """A solve builds each level's params afresh, and the verifier's
    removal searches take their length range as a pair."""

    def test_multi_level_solve_and_verify_build_no_range_and_no_replace(self, monkeypatch):
        replaced = []
        real_replace = dataclasses.replace

        def replace_spy(*args, **kwargs):
            replaced.append(args)
            return real_replace(*args, **kwargs)

        for m in [dataclasses] + [m for key, m in sys.modules.items() if key.startswith("apaths")]:
            for attr, value in list(vars(m).items()):
                if value is real_replace:
                    monkeypatch.setattr(m, attr, replace_spy)
        # Two disjoint edges at k = 3, ell = 1: two levels each peel an edge,
        # the third finds no path, and the cover replayed over both cuts is
        # checked by a search of g minus everything.
        g, a, params = Graph(4, [(0, 1), (2, 3)]), {0, 1, 2, 3}, SolveParams(3, 1)
        cert = solve(g, a, params)
        assert cert == Cover(frozenset(range(4)), frozenset(range(4)), 1, 4)
        assert verify_certificate(g, a, params, cert).passed
        assert replaced == []


def caterpillar_and_path():
    """A 12-leg caterpillar and, apart from it, a terminal-ended path of
    length 6: at ell 3 the path is a maximal frame of its own, split off
    first."""
    cat, tips = caterpillar_instance(12, 0)
    n = cat.n
    return Graph(n + 7, list(cat.edges()) + [(v, v + 1) for v in range(n, n + 6)]), tips | {n, n + 6}


class TestOneAnswer:
    """The answering level hands over its paths or nothing, and one fold
    over the cut levels builds the one Packing or Cover."""

    @pytest.mark.parametrize(
        "instance, params, kind, cuts",
        [
            ((Graph(40, [(v, v + 1) for v in range(0, 40, 2)]), range(40)), SolveParams(25, 1), Cover, 20),
            ((Graph(400, [(v, v + 1) for v in range(0, 400, 2)]), range(400)), SolveParams(150, 1), Packing, 149),
            (caterpillar_and_path(), SolveParams(3, 3), Packing, 1),
            (caterpillar_instance(12, 0), SolveParams(7, 3), Cover, 1),
        ],
        ids=["peels-cover", "peels-packing", "split-packing", "split-cover"],
    )
    def test_a_solve_builds_one_certificate(self, monkeypatch, instance, params, kind, cuts):
        built, kept = [], []
        for cls in (Packing, Cover):
            monkeypatch.setattr(solver_module, cls.__name__, lambda *args, cls=cls: built.append(cls) or cls(*args))
        real_kept = solver_module._kept_subgraph
        monkeypatch.setattr(solver_module, "_kept_subgraph", lambda g, keep: kept.append(keep) or real_kept(g, keep))
        cert = solve(*instance, params)
        assert built == [kind] and type(cert) is kind and len(kept) == cuts
        assert cert == reference_solve(*instance, params)


class TestDeepPaths:
    def test_1500_vertex_path_packs(self):
        # far longer than the interpreter's recursion limit
        g = Graph(1500, [(i, i + 1) for i in range(1499)])
        cert = solve(g, {0, 1499}, SolveParams(1, 1499))
        assert cert == Packing((tuple(range(1500)),))


class TestSolveBudget:
    """One budget bounds a whole solve: every search of every level draws
    on it, so their sum can exceed it although each fits."""

    def test_levels_share_one_budget(self):
        # k = 2 at ell = 2 peels a middle-length path, then packs a second
        # path in what is left: one pass per level, the first stopped at the
        # middle-length path, and at k = 1 a shortest-path search.
        g, a = random_instance(10, 0.3, 0.6, 34)
        ell = 2
        mid = find_induced_apath_in_range(g, a, (ell, 2 * ell - 1))
        removed = ball(g, mid, 1)
        h, _ = induced_subgraph(g, [v for v in range(g.n) if v not in removed])
        rest = a - removed
        parts = [
            spent(lambda b: _shortest_path_until(g, to_mask(a), ell, 2 * ell - 1, b)),
            spent(lambda b: shortest_long_induced_apath(h, rest, ell, b)),
        ]
        assert parts == [4, 5]
        total = sum(parts)
        expected = solve(g, a, SolveParams(2, ell))
        assert isinstance(expected, Packing) and expected.paths[0] == mid
        assert solve(g, a, SolveParams(2, ell, node_budget=total)) == expected
        assert max(parts) < total - 1
        with pytest.raises(BudgetExceededError, match="solve"):
            solve(g, a, SolveParams(2, ell, node_budget=total - 1))
