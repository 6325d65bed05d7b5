import pytest
from hypothesis import given, settings, strategies as st

import brute
from apaths import (
    BudgetExceededError,
    Cover,
    Graph,
    Packing,
    SolveParams,
    ball,
    combine_check_theorem_forms,
    complete_instance,
    dist,
    find_induced_apath_in_range,
    has_long_induced_apath,
    induced_subgraph,
    lift_path,
    oracle_max_anticomplete_packing,
    random_instance,
    reduce_to_d3,
    shortest_long_induced_apath,
    solve,
    subdivided_complete_instance,
    verify_certificate,
)
from reference_solver import reference_reduce_to_d3
from test_search import spent


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


class TestSolveBaseCases:
    def test_k_zero_empty_packing(self):
        g, a = complete_instance(4)
        assert solve(g, a, SolveParams(0, 1)) == Packing(())

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

    @given(random_corpus, st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_theorem_forms_at_ell_one(self, inst, k):
        g, a = inst
        params = SolveParams(k, 1)
        cert = solve(g, a, params)
        if isinstance(cert, Cover):
            holds_78, holds_4balls = combine_check_theorem_forms(cert, g, a, params)
            assert holds_78 and holds_4balls
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


class TestFrameHeavyInstances:
    def test_spiders_exercise_extension_and_extraction(self):
        # spiders (paths glued at a hub, terminals at the tips) force the
        # solver through frame extension and hub-tree extraction
        import random

        import apaths.frame as frame_module

        before = dict(frame_module.validation_stats)
        for seed in range(30):
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
            g = Graph(nid, edges)
            a = frozenset(tips)
            for k in (2, 3):
                for ell in (1, 2, 3):
                    params = SolveParams(k, ell)
                    cert = solve(g, a, params)
                    report = verify_certificate(g, a, params, cert)
                    assert report.passed, (seed, k, ell)
        after = frame_module.validation_stats
        assert after["extend_frame"] > before["extend_frame"]

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


class TestDeepPaths:
    def test_1500_vertex_path_packs(self):
        # far longer than the interpreter's recursion limit
        g = Graph(1500, [(i, i + 1) for i in range(1499)])
        cert = solve(g, {0, 1499}, SolveParams(1, 1499))
        assert cert == Packing((tuple(range(1500)),))


class TestSolveBudget:
    """One budget bounds a whole solve: every search of every recursion
    level draws on it, so their sum can exceed it although each fits."""

    def test_levels_share_one_budget(self):
        # k = 2 at ell = 2 peels a middle-length path, then packs a second
        # path in what is left: four searches over two levels.
        g, a = random_instance(10, 0.3, 0.6, 34)
        ell = 2
        mid = find_induced_apath_in_range(g, a, (ell, 2 * ell - 1))
        removed = ball(g, mid, 1)
        h, _ = induced_subgraph(g, [v for v in range(g.n) if v not in removed])
        rest = a - removed
        parts = [
            spent(lambda b: has_long_induced_apath(g, a, ell, b)),
            spent(lambda b: find_induced_apath_in_range(g, a, (ell, 2 * ell - 1), b)),
            spent(lambda b: has_long_induced_apath(h, rest, ell, b)),
            spent(lambda b: shortest_long_induced_apath(h, rest, ell, b)),
        ]
        total = sum(parts)
        expected = solve(g, a, SolveParams(2, ell))
        assert isinstance(expected, Packing) and expected.paths[0] == mid
        assert solve(g, a, SolveParams(2, ell, node_budget=total)) == expected
        assert max(parts) < total - 1
        with pytest.raises(BudgetExceededError, match="solve"):
            solve(g, a, SolveParams(2, ell, node_budget=total - 1))


class TestCombineCheckBudget:
    """Both removal checks of combine_check_theorem_forms draw on one budget."""

    def test_checks_share_one_budget(self):
        # 5x5 grid, corner terminals, ell 17: the empty cover removes nothing,
        # so each check is a full search that exhausts in 844 nodes.
        grid = Graph(
            25,
            [(5 * r + c, 5 * r + c + 1) for r in range(5) for c in range(4)]
            + [(5 * r + c, 5 * r + c + 5) for r in range(4) for c in range(5)],
        )
        corners = {0, 4, 20, 24}
        cert = Cover(frozenset(), frozenset(), 1, 18)
        assert spent(lambda b: has_long_induced_apath(grid, corners, 17, b)) == 844
        params = SolveParams(2, 17, node_budget=2 * 844)
        assert combine_check_theorem_forms(cert, grid, corners, params) == (True, True)
        # Each check fits in 1000 nodes; the two together do not.
        for budget in (2 * 844 - 1, 1000):
            with pytest.raises(BudgetExceededError, match="combine_check_theorem_forms"):
                combine_check_theorem_forms(cert, grid, corners, SolveParams(2, 17, node_budget=budget))
