import gc
import inspect
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import apaths.frame
import apaths.search
import brute
from apaths import (
    BudgetExceededError,
    Graph,
    ball,
    build_maximal_frame,
    complete_instance,
    enumerate_induced_apaths,
    exists_apath,
    find_induced_apath_in_range,
    has_long_induced_apath,
    induced_subgraph,
    init_frame,
    is_induced_path,
    max_anticomplete_packing_with_witness,
    max_vertex_disjoint_apath_packing,
    oracle_max_anticomplete_packing,
    oracle_min_ball_cover,
    random_instance,
    shortest_apath,
    shortest_long_induced_apath,
    subdivided_complete_instance,
)
from apaths.graph import mask_ball, mask_neighbors
from apaths.search import _Budget, _live_extensions, _max_compatible_family, _terminal_path_dfs
from reference_search import reference_live_extensions


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


random_instances = st.builds(
    random_instance,
    st.integers(2, 9),
    st.sampled_from([0.2, 0.35, 0.5, 0.7]),
    st.sampled_from([0.4, 0.7, 1.0]),
    st.integers(0, 100_000),
)


@pytest.mark.parametrize("seed", range(6))
def test_brute_lists_the_simple_apaths_without_a_chord(seed):
    # brute_induced_apaths extends only chordless prefixes; the simple
    # A-paths filtered for chords afterwards are the same list.
    for n, p in ((6, 0.7), (7, 0.35), (8, 0.7)):
        g, a = random_instance(n, p, 0.7, seed)
        matrix = brute.adjacency_matrix(g)
        for lo, hi in ((1, None), (2, 4), (3, None)):
            filtered = [q for q in brute.simple_apaths(g, a, lo, hi) if brute.is_induced_seq(matrix, q)]
            assert brute.brute_induced_apaths(g, a, lo, hi) == filtered


class TestExistsApath:
    def test_triangle_all_terminals(self):
        g, a = complete_instance(3)
        assert exists_apath(g, a)

    def test_single_terminal(self):
        assert not exists_apath(path(4), {1})

    def test_terminals_in_different_components(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert not exists_apath(g, {0, 2})


class TestShortestApath:
    def test_single_edge(self):
        assert shortest_apath(path(2), {0, 1}) == (0, 1)

    def test_whole_path(self):
        assert shortest_apath(path(4), {0, 3}) == (0, 1, 2, 3)

    def test_c6_antipodal_tie(self):
        # both arcs have length 3; deterministic tie-break picks this one
        assert shortest_apath(cycle(6), {0, 3}) == (0, 1, 2, 3)

    def test_tie_ends_at_the_least_nearest_terminal(self):
        # from 0, terminals 3 and 4 are both two steps away; 4 is discovered
        # first, but the path ends at the least of them
        g = Graph(5, [(0, 1), (0, 2), (1, 4), (2, 3)])
        assert shortest_apath(g, {0, 3, 4}) == (0, 2, 3)

    def test_none_when_no_path(self):
        assert shortest_apath(Graph(3, []), {0, 1}) is None

    @given(random_instances)
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_minimum(self, inst):
        g, a = inst
        result = shortest_apath(g, a)
        lengths = [len(p) - 1 for p in brute.simple_apaths(g, a)]
        if not lengths:
            assert result is None
        else:
            assert result is not None
            assert len(result) - 1 == min(lengths)
            assert is_induced_path(g, result)
            assert not (set(result[1:-1]) & set(a))


class TestShortestLongInducedApath:
    def test_ell_one_single_edge(self):
        assert shortest_long_induced_apath(path(2), {0, 1}, 1) == (0, 1)

    def test_subdivided_k3_ell_three(self):
        g, a = subdivided_complete_instance(2, 1)
        assert shortest_long_induced_apath(g, a, 3) == (0, 3, 4, 1)

    def test_triangle_ell_two_none(self):
        g, a = complete_instance(3)
        assert shortest_long_induced_apath(g, a, 2) is None

    @given(random_instances, st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_and_agrees_at_one(self, inst, ell):
        g, a = inst
        result = shortest_long_induced_apath(g, a, ell)
        lengths = [len(p) - 1 for p in brute.brute_induced_apaths(g, a, lo=ell)]
        if not lengths:
            assert result is None
        else:
            assert result is not None and len(result) - 1 == min(lengths)
            assert is_induced_path(g, result)
        if ell == 1:
            base = shortest_apath(g, a)
            if base is None:
                assert result is None
            else:
                assert result is not None and len(result) == len(base)


class TestFindInRange:
    def test_k4_single_edges(self):
        g, a = complete_instance(4)
        p = find_induced_apath_in_range(g, a, (1, 1))
        assert p is not None and len(p) == 2

    def test_star_leaf_to_leaf(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        p = find_induced_apath_in_range(g, {1, 2, 3, 4}, (2, 3))
        assert p is not None and len(p) - 1 == 2 and p[1] == 0

    def test_k4_no_length_two(self):
        g, a = complete_instance(4)
        assert find_induced_apath_in_range(g, a, (2, 3)) is None

    def test_a_path_beyond_hi_is_no_answer(self):
        # The one A-path, 0-1-2-3-4, has length 4: above the range, and the
        # shortest path of length >= 2.
        assert find_induced_apath_in_range(path(5), {0, 4}, (2, 3)) is None

    def test_rejects_zero_lo(self):
        with pytest.raises(ValueError):
            find_induced_apath_in_range(path(3), {0, 2}, (0, 2))

    @pytest.mark.parametrize(
        "lo, hi, message",
        [
            (-1, None, "need ell >= 1"),
            (3, 2, "empty length range"),
            (0, -1, "empty length range"),
            (0, 2, "need ell >= 1"),
            (0, None, "need ell >= 1"),
        ],
    )
    def test_rejects_malformed_pair(self, lo, hi, message):
        with pytest.raises(ValueError, match=message):
            find_induced_apath_in_range(path(3), {0, 2}, (lo, hi))

    def test_pair_is_read_as_it_is(self):
        g, a = path(5), {0, 2, 4}
        assert find_induced_apath_in_range(g, a, (2, 3)) == (0, 1, 2)
        assert has_long_induced_apath(g, a, 4) and not has_long_induced_apath(g, a, 5)

    @given(random_instances, st.integers(1, 3), st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_exact_against_enumeration(self, inst, lo, extra):
        g, a = inst
        hi = lo + extra
        found = find_induced_apath_in_range(g, a, (lo, hi))
        expected = brute.brute_induced_apaths(g, a, lo=lo, hi=hi)
        if found is None:
            assert expected == []
        else:
            assert lo <= len(found) - 1 <= hi
            assert is_induced_path(g, found)
            assert found[0] in a and found[-1] in a


class TestHasLongInducedApath:
    def test_empty_graph(self):
        assert not has_long_induced_apath(Graph(0, []), set(), 2)

    def test_path_endpoints(self):
        assert has_long_induced_apath(path(6), {0, 5}, 5)

    def test_c6_all_terminals_ell_four(self):
        assert has_long_induced_apath(cycle(6), set(range(6)), 4)

    @given(random_instances, st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration(self, inst, ell):
        g, a = inst
        expected = bool(brute.brute_induced_apaths(g, a, lo=ell))
        assert has_long_induced_apath(g, a, ell) == expected


class TestPackingOracle:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_complete_graphs_pack_one(self, n):
        g, a = complete_instance(n)
        assert oracle_max_anticomplete_packing(g, a, 1, 2) == 1

    def test_two_disjoint_edges(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert oracle_max_anticomplete_packing(g, set(range(4)), 1, 3) == 2

    def test_subdivided_k3(self):
        g, a = subdivided_complete_instance(2, 1)
        assert oracle_max_anticomplete_packing(g, a, 1, 2) == 1

    @given(random_instances, st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute(self, inst, ell):
        # Both oracles search the minimal paths; brute force, all of them.
        g, a = inst
        count = oracle_max_anticomplete_packing(g, a, ell, 3)
        assert count == max_anticomplete_packing_with_witness(g, a, ell, 3)[0]
        assert count == brute.brute_max_anticomplete(g, a, ell, 3)

    @given(random_instances, st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_oracle_sandwich(self, inst, ell):
        g, a = inst
        value = oracle_max_anticomplete_packing(g, a, ell, 3)
        if value >= 1:
            assert has_long_induced_apath(g, a, ell)


class TestMinimalPaths:
    """A long induced A-path is minimal if no interior vertex is a terminal
    at distance >= ell along it from either end. random_instances draws
    terminal probability 1 a third of the time, so every vertex is a
    terminal there."""

    @given(random_instances, st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_enumeration_matches_brute(self, inst, ell):
        g, a = inst
        want = [p for p in brute.brute_induced_apaths(g, a, lo=ell) if brute.is_minimal_apath(p, a, ell)]
        assert enumerate_induced_apaths(g, a, ell, minimal=True) == want

    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_all_terminals_leave_paths_of_length_ell(self, ell):
        # With every vertex a terminal, a path longer than ell splits at
        # its vertex ell, so the minimal paths of a path graph are its
        # windows of exactly ell edges; those of a cycle, the same arcs.
        assert enumerate_induced_apaths(path(7), range(7), ell, minimal=True) == [
            tuple(range(s, s + ell + 1)) for s in range(7 - ell)
        ]
        arcs = enumerate_induced_apaths(cycle(9), range(9), ell, minimal=True)
        assert len(arcs) == 9 and all(len(p) == ell + 1 for p in arcs)

    def test_an_early_terminal_is_allowed(self):
        # 0-1-2-3 with terminals 0, 1, 3 at ell 3: the only long path has
        # terminal 1 inside, at distance 1 and 2 from its ends, so it is
        # minimal; at ell 2 it splits at 1 into 1-2-3.
        g = path(4)
        assert enumerate_induced_apaths(g, {0, 1, 3}, 3, minimal=True) == [(0, 1, 2, 3)]
        assert enumerate_induced_apaths(g, {0, 1, 3}, 2, minimal=True) == [(1, 2, 3)]

    def test_a_root_stops_at_its_first_splitting_terminal(self):
        # 0-1-...-9 with terminals 0, 1 and 9 at ell 2: terminal 1 caps every
        # path through it at length 1 + 2 - 1, so root 0 visits [0], [0, 1]
        # and [0, 1, 2] only, and root 1 walks to 9 in 9 nodes. Root 0 would
        # walk to 9 as well without the cap, as the full enumeration does.
        g, a = path(10), {0, 1, 9}
        assert enumerate_induced_apaths(g, a, 2, minimal=True) == [tuple(range(1, 10))]
        assert spent(lambda b: enumerate_induced_apaths(g, a, 2, b, minimal=True)) == 12
        assert spent(lambda b: enumerate_induced_apaths(g, a, 2, b)) == 19


class TestCoverOracle:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_complete_radius_zero(self, n):
        g, a = complete_instance(n)
        size, z = oracle_min_ball_cover(g, a, 1, 0)
        assert size == n - 1

    def test_complete_radius_one(self):
        g, a = complete_instance(6)
        assert oracle_min_ball_cover(g, a, 1, 1)[0] == 1

    def test_subdivided_k3_radius_one(self):
        g, a = subdivided_complete_instance(2, 1)
        size, _ = oracle_min_ball_cover(g, a, 1, 1)
        assert size == 2  # strictly above the 2k-3 = 1 bound

    @given(random_instances, st.integers(1, 3), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute(self, inst, ell, r):
        g, a = inst
        size, z = oracle_min_ball_cover(g, a, ell, r)
        expected = brute.brute_min_ball_cover(g, a, ell, r)
        assert size == expected
        # the returned witness actually works
        removed = ball(g, z, r)
        h, _ = induced_subgraph(g, [v for v in range(g.n) if v not in removed])
        assert not has_long_induced_apath(h, a - removed, ell)


class TestDisjointPackingDuality:
    @given(random_instances)
    @settings(max_examples=30, deadline=None)
    def test_disjoint_matches_brute(self, inst):
        g, a = inst
        if g.n > 7:
            return  # the fully independent oracle enumerates all simple paths
        assert max_vertex_disjoint_apath_packing(g, a, 4) == brute.brute_max_disjoint(g, a, 4)

    @given(random_instances)
    @settings(max_examples=30, deadline=None)
    def test_classical_duality_bound(self, inst):
        g, a = inst
        nu = max_vertex_disjoint_apath_packing(g, a, g.n)
        size, _ = oracle_min_ball_cover(g, a, 1, 0)
        assert size <= 2 * nu


class TestPerVertexMasks:
    """The oracles build one mask per vertex, the paths that meet its
    radius-r ball, and OR those; they build no ball per path or vertex."""

    INSTANCE = random_instance(12, 0.3, 0.6, 1)  # 89 paths at ell 2, 30 minimal; 25 minimal at ell 1

    ORACLES = {
        "packing-witness": lambda g, a: max_anticomplete_packing_with_witness(g, a, 2, 3),
        "packing-count": lambda g, a: oracle_max_anticomplete_packing(g, a, 2, 3),
        "disjoint-packing": lambda g, a: max_vertex_disjoint_apath_packing(g, a, 5),
        "ball-cover-r1": lambda g, a: oracle_min_ball_cover(g, a, 2, 1),
        "ball-cover-r2": lambda g, a: oracle_min_ball_cover(g, a, 2, 2),
    }

    @pytest.mark.parametrize("name", ORACLES)
    def test_no_ball_per_path(self, name, monkeypatch):
        # A count, not a clock: the uncapped enumeration floods without
        # mask_ball, so every call counted here would be one per path or
        # per vertex.
        g, a = self.INSTANCE
        assert len(enumerate_induced_apaths(g, a, 1, minimal=True)) >= 24
        calls = []
        real = apaths.search.mask_ball

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(apaths.search, "mask_ball", counting)
        answer = self.ORACLES[name](g, a)
        monkeypatch.undo()
        assert calls == []
        assert answer == self.ORACLES[name](g, a)

    def test_a_shared_vertex_is_incompatible_in_both_searches(self):
        # 0-1-2-3-4 with terminals 0, 2, 4: every A-path holds vertex 2.
        g, a = path(5), {0, 2, 4}
        assert enumerate_induced_apaths(g, a, 2) == [(0, 1, 2), (0, 1, 2, 3, 4), (2, 3, 4)]
        assert max_anticomplete_packing_with_witness(g, a, 2, 3) == (1, ((0, 1, 2),))
        assert oracle_max_anticomplete_packing(g, a, 2, 3) == 1
        assert max_vertex_disjoint_apath_packing(g, a, 3) == 1

    def test_one_joining_edge_is_incompatible_only_when_anti_complete(self):
        # 0-1-2 and 3-4-5 are joined by the one edge 1-4; without it they pack.
        a = {0, 2, 3, 5}
        apart = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        joined = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (1, 4)])
        assert max_anticomplete_packing_with_witness(apart, a, 2, 3) == (2, ((0, 1, 2), (3, 4, 5)))
        assert max_anticomplete_packing_with_witness(joined, a, 2, 3) == (1, ((0, 1, 2),))
        assert oracle_max_anticomplete_packing(joined, a, 2, 3) == 1
        assert max_vertex_disjoint_apath_packing(joined, a, 3) == 2

    @given(random_instances, st.integers(1, 3), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_path_masks_match_one_ball_per_vertex(self, inst, ell, r):
        g, a = inst
        paths, near = apaths.search._path_masks(g, a, ell, _Budget(10**9, "probe"), r)
        assert paths == enumerate_induced_apaths(g, a, ell, minimal=True)
        through = [sum(1 << i for i, p in enumerate(paths) if v in p) for v in range(g.n)]
        adj = g.neighbor_masks()
        assert near == [mask_neighbors(through, mask_ball(adj, 1 << v, -1, r)) for v in range(g.n)]

    def test_rounds_stop_at_n(self, monkeypatch):
        # A count, not a clock: ball(v, n) is v's whole component, so a
        # radius far above n runs at most n rounds of n ORs, and answers as
        # radius n does.
        g, a = random_instance(11, 0.25, 0.6, 0)
        calls = []
        real = apaths.search.mask_neighbors

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(apaths.search, "mask_neighbors", counting)
        answer = oracle_min_ball_cover(g, a, 2, 10**4, budget=10**4)
        monkeypatch.undo()
        assert 0 < len(calls) <= g.n**2
        assert answer == oracle_min_ball_cover(g, a, 2, g.n)

    def test_a_radius_above_n_reaches_the_whole_component(self):
        # On the path 0-...-7 only 6-7 is an A-path, 6 steps from 0, so
        # vertex 0 covers it only at radius 6 or more.
        assert oracle_min_ball_cover(path(8), {6, 7}, 1, 10**4) == (1, frozenset({0}))
        assert oracle_min_ball_cover(path(8), {6, 7}, 1, 5) == (1, frozenset({1}))


BAD_BOUNDS = {
    "find-lo-0": lambda g, a, b: find_induced_apath_in_range(g, a, (0, None), b),
    "find-lo-minus-1": lambda g, a, b: find_induced_apath_in_range(g, a, (-1, None), b),
    "find-empty": lambda g, a, b: find_induced_apath_in_range(g, a, (3, 2), b),
    "has_long": lambda g, a, b: has_long_induced_apath(g, a, 0, b),
    "shortest": lambda g, a, b: shortest_long_induced_apath(g, a, 0, b),
    "enumerate": lambda g, a, b: enumerate_induced_apaths(g, a, 0, b),
    "enumerate-minimal": lambda g, a, b: enumerate_induced_apaths(g, a, 0, b, minimal=True),
    "witness-packing": lambda g, a, b: max_anticomplete_packing_with_witness(g, a, 0, 2, b),
    "count-packing": lambda g, a, b: oracle_max_anticomplete_packing(g, a, 0, 2, b),
    "ball-cover": lambda g, a, b: oracle_min_ball_cover(g, a, 0, 1, b),
    "init_frame": lambda g, a, b: init_frame(g, a, 0, b),
    "build_maximal_frame": lambda g, a, b: build_maximal_frame(g, a, 0, b),
}


class TestEllBelowOne:
    """Every long-path query refuses ell < 1 rather than answer for ell = 1."""

    @pytest.mark.parametrize("name", BAD_BOUNDS)
    def test_bad_bound_spends_no_node(self, name):
        # The engine checks the bound before its first node, whatever the
        # query spends its budget on around it.
        b = _Budget(100, "probe")
        with pytest.raises(ValueError, match=r"need ell >= 1, got|empty length range \[3, 2\]"):
            BAD_BOUNDS[name](path(5), {0, 2, 4}, b)
        assert b.remaining == b.limit

    @pytest.mark.parametrize("ell", [0, -3])
    def test_enumeration_raises(self, ell):
        g, a = complete_instance(4)
        with pytest.raises(ValueError, match="need ell >= 1"):
            enumerate_induced_apaths(g, a, ell)

    @pytest.mark.parametrize("ell", [0, -3])
    def test_packing_oracles_raise(self, ell):
        g, a = complete_instance(4)
        with pytest.raises(ValueError, match="need ell >= 1"):
            max_anticomplete_packing_with_witness(g, a, ell, 2)
        with pytest.raises(ValueError, match="need ell >= 1"):
            oracle_max_anticomplete_packing(g, a, ell, 2)

    @pytest.mark.parametrize("ell", [0, -3])
    def test_long_path_searches_raise(self, ell):
        g, a = complete_instance(4)
        for search in (has_long_induced_apath, shortest_long_induced_apath):
            with pytest.raises(ValueError, match="need ell >= 1"):
                search(g, a, ell)


class TestOracleArguments:
    @pytest.mark.parametrize("cap", [0, -2])
    def test_packing_oracles_refuse_cap_below_one(self, cap):
        g, a = complete_instance(4)
        with pytest.raises(ValueError, match="need cap >= 1"):
            oracle_max_anticomplete_packing(g, a, 1, cap)
        with pytest.raises(ValueError, match="need cap >= 1"):
            max_vertex_disjoint_apath_packing(g, a, cap)

    def test_cover_oracle_refuses_negative_radius(self):
        g, a = complete_instance(4)
        with pytest.raises(ValueError, match="need r >= 0"):
            oracle_min_ball_cover(g, a, 1, -1)


P6, A6 = path(6), {0, 2, 5}

# Every length, cap, radius and size a query or oracle of search.py or a
# frame builder takes, set to value.
INT_ARGUMENTS = {
    "find-lo": lambda v, b: find_induced_apath_in_range(P6, A6, (v, None), b),
    "find-hi": lambda v, b: find_induced_apath_in_range(P6, A6, (1, v), b),
    "has_long": lambda v, b: has_long_induced_apath(P6, A6, v, b),
    "shortest": lambda v, b: shortest_long_induced_apath(P6, A6, v, b),
    "enumerate": lambda v, b: enumerate_induced_apaths(P6, A6, v, b),
    "enumerate-minimal": lambda v, b: enumerate_induced_apaths(P6, A6, v, b, minimal=True),
    "witness-packing-ell": lambda v, b: max_anticomplete_packing_with_witness(P6, A6, v, 2, b),
    "witness-packing-cap": lambda v, b: max_anticomplete_packing_with_witness(P6, A6, 2, v, b),
    "count-packing-cap": lambda v, b: oracle_max_anticomplete_packing(P6, A6, 2, v, b),
    "disjoint-packing-cap": lambda v, b: max_vertex_disjoint_apath_packing(P6, A6, v, b),
    "ball-cover-ell": lambda v, b: oracle_min_ball_cover(P6, A6, v, 1, b),
    "ball-cover-radius": lambda v, b: oracle_min_ball_cover(P6, A6, 2, v, b),
    "init_frame": lambda v, b: init_frame(P6, A6, v, b),
    "build_maximal_frame": lambda v, b: build_maximal_frame(P6, A6, v, b),
    "build_maximal_frame-k": lambda v, b: build_maximal_frame(P6, A6, 2, b, k=v),
}


@pytest.mark.parametrize("value", [2.5, 3.0, True])
@pytest.mark.parametrize("name", sorted(INT_ARGUMENTS))
def test_a_non_int_argument_is_refused_before_any_node(name, value):
    # A float is no length (3.0 was read as 3, 2.5 as 3 or as a radius that
    # never reaches 0), and a bool is no size.
    b = _Budget(100, "probe")
    with pytest.raises(ValueError, match="need (an )?int "):
        INT_ARGUMENTS[name](value, b)
    assert b.remaining == b.limit


GRID5 = Graph(
    25,
    [(5 * r + c, 5 * r + c + 1) for r in range(5) for c in range(4)]
    + [(5 * r + c, 5 * r + c + 5) for r in range(4) for c in range(5)],
)

# Every public function of search.py and frame.py that takes a budget, called
# on (g, a, budget), at ell 17 where it takes an ell.
BUDGETED = {
    "find_induced_apath_in_range": lambda g, a, b: find_induced_apath_in_range(g, a, (17, None), b),
    "has_long_induced_apath": lambda g, a, b: has_long_induced_apath(g, a, 17, b),
    "shortest_long_induced_apath": lambda g, a, b: shortest_long_induced_apath(g, a, 17, b),
    "enumerate_induced_apaths": lambda g, a, b: enumerate_induced_apaths(g, a, 17, b),
    "max_anticomplete_packing_with_witness": lambda g, a, b: max_anticomplete_packing_with_witness(g, a, 17, 2, b),
    "oracle_max_anticomplete_packing": lambda g, a, b: oracle_max_anticomplete_packing(g, a, 17, 2, b),
    "max_vertex_disjoint_apath_packing": lambda g, a, b: max_vertex_disjoint_apath_packing(g, a, 2, b),
    "oracle_min_ball_cover": lambda g, a, b: oracle_min_ball_cover(g, a, 17, 0, b),
    "init_frame": lambda g, a, b: init_frame(g, a, 17, b),
    "build_maximal_frame": lambda g, a, b: build_maximal_frame(g, a, 17, b),
}


class TestBudget:
    def test_budget_exceeded_raises(self):
        g, a = complete_instance(9)
        with pytest.raises(BudgetExceededError):
            enumerate_induced_apaths(g, a, 1, budget=5)

    def test_budget_error_names_location(self):
        # K_9 has no induced A-path of length >= 3, so the search must
        # exhaust the whole chordless space and trip the tiny budget
        g, a = complete_instance(9)
        try:
            shortest_long_induced_apath(g, a, 3, budget=2)
        except BudgetExceededError as exc:
            assert "shortest_long_induced_apath" in str(exc)
        else:
            pytest.fail("expected the budget to trip")

    def test_engine_settles_its_count_into_the_shared_budget(self):
        # The engine counts its nodes locally and settles them into the
        # budget on every exit: a "stop", a return and an exception. On
        # path(3) with terminals 0 and 2 at ell 2 each call visits [0],
        # [0, 1] and [0, 1, 2], and emits the last.
        g, terminals = path(3), 0b101
        b = _Budget(10, "shared")
        _terminal_path_dfs(g, terminals, 2, None, b, lambda p: "stop")
        assert b.remaining == 7
        _terminal_path_dfs(g, terminals, 2, None, b, lambda p: None)
        assert b.remaining == 4

        def fail(p):
            raise KeyError(p)

        with pytest.raises(KeyError):
            _terminal_path_dfs(g, terminals, 2, None, b, fail)
        assert b.remaining == 1
        # An overdraw on the second node of the next call: the budget reads
        # -1, as spend() leaves it, and the error names the budget's own
        # limit and place.
        with pytest.raises(BudgetExceededError, match="budget of 10 nodes exhausted in shared$") as info:
            _terminal_path_dfs(g, terminals, 2, None, b, lambda p: None)
        assert (info.value.budget, info.value.where, b.remaining) == (10, "shared", -1)

    @pytest.mark.parametrize("budget", [10.0**9, 2.0, True, "x"])
    @pytest.mark.parametrize("name", sorted(BUDGETED))
    def test_a_budget_that_is_no_int_is_refused(self, name, budget):
        # Not a running budget, so it is handed to _Budget, which takes only
        # an int: a float had no `remaining`, and True was one node.
        with pytest.raises(ValueError, match="need an int node budget"):
            BUDGETED[name](GRID5, {0, 4, 20, 24}, budget)

    def test_has_long_at_ell_one_spends_engine_nodes(self):
        # has_long is one engine pass at every ell: on path(3) at ell 1 it
        # visits [0], [0, 1] and [0, 1, 2], so a budget of 2 trips.
        with pytest.raises(BudgetExceededError, match="exhausted in has_long_induced_apath$"):
            has_long_induced_apath(path(3), {0, 2}, 1, budget=2)
        assert spent(lambda b: has_long_induced_apath(path(3), {0, 2}, 1, b)) == 3

    @pytest.mark.parametrize("name", sorted(BUDGETED))
    def test_has_long_budget_error_names_itself(self, name):
        # Corner terminals of the 5x5 grid at ell 17: the longest induced
        # corner path has length 16, so every search exhausts. A budget
        # built from an int names the function the caller called.
        with pytest.raises(BudgetExceededError, match=f"exhausted in {name}$"):
            BUDGETED[name](GRID5, {0, 4, 20, 24}, 5)

    def test_every_public_budgeted_function_is_named(self):
        public = {
            name
            for module in (apaths.search, apaths.frame)
            for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
            and "budget" in inspect.signature(fn).parameters
        }
        assert public == set(BUDGETED)

    @pytest.mark.parametrize("budget", [0, -5])
    @pytest.mark.parametrize(
        "call",
        [
            lambda g, a, b: find_induced_apath_in_range(g, a, (1, None), b),
            lambda g, a, b: find_induced_apath_in_range(g, {0}, (1, None), b),
            lambda g, a, b: has_long_induced_apath(g, a, 1, b),
            lambda g, a, b: has_long_induced_apath(g, a, 2, b),
            lambda g, a, b: shortest_long_induced_apath(g, a, 2, b),
            lambda g, a, b: shortest_long_induced_apath(g, {0}, 2, b),
            lambda g, a, b: enumerate_induced_apaths(g, a, 1, b),
            lambda g, a, b: max_anticomplete_packing_with_witness(g, a, 1, 2, b),
            lambda g, a, b: oracle_max_anticomplete_packing(g, a, 1, 2, b),
            lambda g, a, b: max_vertex_disjoint_apath_packing(g, a, 2, b),
            lambda g, a, b: oracle_min_ball_cover(g, a, 1, 0, b),
        ],
        ids=[
            "find", "find-one-terminal", "has_long-ell1", "has_long", "shortest", "shortest-one-terminal",
            "enumerate", "packing-witness", "packing", "disjoint-packing", "cover",
        ],
    )
    def test_budget_below_one_is_refused(self, call, budget):
        # A budget below one node is malformed input, not an exhausted search,
        # even where the call would spend nothing.
        g, a = path(3), {0, 2}
        with pytest.raises(ValueError, match="need a positive node budget"):
            call(g, a, budget)


class TestDeepPaths:
    """A path far longer than the interpreter's recursion limit."""

    def test_1500_vertex_path(self):
        g = path(1500)
        assert has_long_induced_apath(g, {0, 1499}, 1499)
        assert not has_long_induced_apath(g, {0, 1499}, 1500)


def spent(call) -> int:
    """Nodes that call(budget) spends from one shared, ample budget."""
    budget = _Budget(10**9, "probe")
    call(budget)
    return budget.limit - budget.remaining


class TestRootRule:
    """Each A-path is searched from its lesser end only."""

    def test_hand_counted_nodes(self):
        # Root 0 visits [0], [0, 1] and [0, 1, 2]; the largest terminal, 2,
        # is never a root. Searching from both ends would spend 6.
        g = path(3)
        assert spent(lambda b: enumerate_induced_apaths(g, {0, 2}, 2, b)) == 3

    def test_only_the_terminals_above_the_root_are_targets(self):
        # Root 0 visits [0], [0, 1] and [0, 1, 2]. Root 1 targets only 2, so
        # its extension to 0 holds no target and is dropped: it visits [1]
        # and [1, 2]. Searching from every terminal to every terminal would
        # spend 9.
        g = path(3)
        assert enumerate_induced_apaths(g, {0, 1, 2}, 1) == [(0, 1), (0, 1, 2), (1, 2)]
        assert spent(lambda b: enumerate_induced_apaths(g, {0, 1, 2}, 1, b)) == 5


class TestLengthCap:
    """Under a cap on path length, each liveness flood takes only the BFS
    levels that a path within the cap can reach."""

    # Terminal 0 and a fork at 1: the arm 2-4-6-8 ends at terminal 8 (a path
    # of length 5), the arm 3-5-7 at terminal 7 (length 4).
    FORK = Graph(9, [(0, 1), (1, 2), (2, 4), (4, 6), (6, 8), (1, 3), (3, 5), (5, 7)])

    def test_an_arm_beyond_the_cap_is_dropped(self):
        # At [0, 1] under the cap 4 a child may take two more levels. Arm 2
        # holds no terminal within two levels and is dropped; arm 3 reaches 7
        # at exactly two. Visited: [0], [0, 1], [0, 1, 3], [0, 1, 3, 5] and
        # [0, 1, 3, 5, 7]. An uncapped flood would also walk 2, 4 and 6.
        call = lambda b: find_induced_apath_in_range(self.FORK, {0, 7, 8}, (4, 4), b)
        assert call(_Budget(10**9, "probe")) == (0, 1, 3, 5, 7)
        assert spent(call) == 5

    # Terminal 0 and a fork at 1: the arm 2-4-6-8-10 ends at terminal 10 (a
    # path of length 6), the arm 3-5-7-11 at terminal 11 (length 5), and 9
    # hangs off 3.
    TWO_ARMS = Graph(12, [(0, 1), (1, 2), (2, 4), (4, 6), (6, 8), (8, 10), (1, 3), (3, 5), (5, 7), (7, 11), (3, 9)])

    def test_shortest_search_keeps_a_path_at_the_cap(self):
        # From 0 the arm 2-4-6-8-10 is found first (length 6), so the cap
        # becomes 5. At [0, 1, 3] the children 5 and 9 may take one more
        # level: 9 leads nowhere, and 5 reaches terminal 11 at exactly that
        # level, which gives the shortest path.
        g = self.TWO_ARMS
        assert shortest_long_induced_apath(g, {0, 10, 11}, 4) == (0, 1, 3, 5, 7, 11)
        # Without the cap the search would also walk 2, 4, ... 11 from root
        # 10, for 21 nodes in all.
        assert spent(lambda b: shortest_long_induced_apath(g, {0, 10, 11}, 4, b)) == 16


    def test_find_starts_the_pass_at_its_cap(self):
        # In (4, 5) the cap is 5 from the first node: at [0, 1] arm 2 holds
        # no terminal within three levels and is dropped. Visited: [0],
        # [0, 1], [0, 1, 3], [0, 1, 3, 5], [0, 1, 3, 5, 7] and the answer.
        call = lambda b: find_induced_apath_in_range(self.TWO_ARMS, {0, 10, 11}, (4, 5), b)
        assert call(_Budget(10**9, "probe")) == (0, 1, 3, 5, 7, 11)
        assert spent(call) == 6

    def test_find_with_no_upper_bound_stops_at_its_first_path(self):
        # The first path emitted is the arm 2-4-6-8-10, seven nodes in; a
        # shorter one exists, but with no upper bound any path answers.
        call = lambda b: find_induced_apath_in_range(self.TWO_ARMS, {0, 10, 11}, (4, None), b)
        assert call(_Budget(10**9, "probe")) == (0, 1, 2, 4, 6, 8, 10)
        assert spent(call) == 7

    def test_has_long_stops_at_its_first_path(self):
        # The same first path answers the decision; the shortest search
        # spends 16 nodes on this graph.
        assert spent(lambda b: has_long_induced_apath(self.TWO_ARMS, {0, 10, 11}, 4, b)) == 7


class CountingAdj(tuple):
    """Adjacency masks that count how often they are read: the flood work."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return super().__getitem__(v)


def bits(*vertices) -> int:
    return sum(1 << v for v in vertices)


class TestLiveExtensions:
    """One case per rule of _live_extensions. Each verdict is also the
    reference's, and the read counts show the floods a rule saves."""

    # Tip 0 with children 1, 2 and 3; the free region is 4-5 and 6-7.
    # Child 1 sees only 4, child 2 only 6, and child 3 both.
    TWO_PARTS = CountingAdj(
        Graph(8, [(0, 1), (0, 2), (0, 3), (1, 4), (3, 4), (3, 6), (2, 6), (4, 5), (6, 7)]).neighbor_masks()
    )
    CHILDREN, BLOCKED = bits(1, 2, 3), bits(0, 1, 2, 3)

    def live(self, adj, ext, child_blocked, targets, need, depth=None):
        adj.reads = 0
        free = (1 << len(adj)) - 1 & ~child_blocked  # the children's free set, as the engine passes it
        got = _live_extensions(adj, ext, free, targets, need, depth)
        assert got == reference_live_extensions(tuple(adj), ext, child_blocked, targets, need, depth)
        return got

    @pytest.mark.parametrize("depth", [None, 0, 3])
    def test_a_small_free_region_kills_every_child_unflooded(self, depth):
        # Four free vertices cannot hold the need - 1 = 5 a child requires,
        # whatever it is: target child 2 dies too, as it is too short to
        # be emitted. At need <= 1 target child 2 is kept.
        adj = self.TWO_PARTS
        assert self.live(adj, self.CHILDREN, self.BLOCKED, bits(2, 5), 6, depth) == 0
        assert adj.reads == 0
        assert self.live(adj, self.CHILDREN, self.BLOCKED, bits(2), 1, depth) == bits(2)
        assert adj.reads == 0

    @pytest.mark.parametrize("depth", [None, 3])
    @pytest.mark.parametrize("need", [-1, 0, 1, 2, 4])
    def test_a_free_region_without_a_target_kills_every_child_unflooded(self, need, depth):
        adj = self.TWO_PARTS
        expect = bits(2) if need <= 1 else 0
        assert self.live(adj, self.CHILDREN, self.BLOCKED, bits(0, 2), need, depth) == expect
        assert adj.reads == 0

    def test_a_sibling_with_a_seed_in_a_flood_that_met_the_bound_is_live(self):
        # Children 1 and 2 of tip 0 see 3 and 4 on the free path 3-4-5-6,
        # which ends at target 6. Child 1's flood meets need - 1 = 3 at 6,
        # and child 2's seed 4 lies in it, so child 2 reads only its own
        # neighbours; flooding it again would take 3 more reads.
        adj = CountingAdj(Graph(7, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (4, 5), (5, 6)]).neighbor_masks())
        assert self.live(adj, bits(1, 2), bits(0, 1, 2), bits(6), 4) == bits(1, 2)
        assert adj.reads == 5

    def test_spent_components_count_together(self):
        # Children 1 and 2 each flood one free part to its end: 4-5 holds
        # target 5 and 6-7 none, and neither has need - 1 = 4 vertices.
        # Child 3 meets both, whose union is big enough and holds a target,
        # so it is live, and it floods nothing: one read of its neighbours.
        adj = self.TWO_PARTS
        assert self.live(adj, self.CHILDREN, self.BLOCKED, bits(5), 5) == bits(3)
        assert adj.reads == 3 + 3 + 1


class TestOracleBudget:
    """One budget bounds the whole oracle call: the enumeration and the mask
    search after it can each fit while their sum does not. Each oracle pays
    one node per path the minimal enumeration visits, then the packings one
    per family node and the cover one per subset it tries."""

    INSTANCE = random_instance(10, 0.4, 0.6, 0)

    def assert_shared(self, oracle, search: int, family: int) -> None:
        # Each part fits in the limit on its own; only their sum exceeds it.
        limit = max(search, family)
        assert limit < search + family
        with pytest.raises(BudgetExceededError):
            oracle(limit)

    @staticmethod
    def compatibility(paths, forbidden) -> list[int]:
        """Path i's later compatible paths as a mask, from frozensets."""
        return [
            sum(1 << j for j in range(i + 1, len(paths)) if forbidden[i].isdisjoint(paths[j]))
            for i in range(len(paths))
        ]

    def test_packing_oracle(self):
        # The witness oracle pays for the minimal enumeration and the family
        # search over the minimal paths, to the node.
        g, a = self.INSTANCE
        paths = enumerate_induced_apaths(g, a, 2, minimal=True)
        closed = [ball(g, p, 1) for p in paths]
        enumeration = spent(lambda b: enumerate_induced_apaths(g, a, 2, b, minimal=True))
        family = spent(lambda b: _max_compatible_family(self.compatibility(paths, closed), 3, b))
        total = enumeration + family
        answer = max_anticomplete_packing_with_witness(g, a, 2, 3)
        assert max_anticomplete_packing_with_witness(g, a, 2, 3, budget=total) == answer
        with pytest.raises(BudgetExceededError):
            max_anticomplete_packing_with_witness(g, a, 2, 3, budget=total - 1)
        self.assert_shared(
            lambda limit: max_anticomplete_packing_with_witness(g, a, 2, 3, budget=limit), enumeration, family
        )

    def test_disjoint_packing_oracle(self):
        g, a = self.INSTANCE
        paths = enumerate_induced_apaths(g, a, 1, minimal=True)
        sets = [frozenset(p) for p in paths]
        self.assert_shared(
            lambda limit: max_vertex_disjoint_apath_packing(g, a, 5, budget=limit),
            spent(lambda b: enumerate_induced_apaths(g, a, 1, b, minimal=True)),
            spent(lambda b: _max_compatible_family(self.compatibility(paths, sets), 5, b)),
        )

    def test_cover_oracle(self):
        g, a = self.INSTANCE
        ell, r = 2, 0
        size, z = oracle_min_ball_cover(g, a, ell, r)
        # Replay the oracle: one enumeration of the minimal paths, then one
        # node for every subset up to z in its order.
        tried = [c for s in range(size) for c in combinations(range(g.n), s)]
        tried += [c for c in combinations(range(g.n), size) if c <= tuple(sorted(z))]
        enumeration = spent(lambda b: enumerate_induced_apaths(g, a, ell, b, minimal=True))
        assert enumeration < spent(lambda b: enumerate_induced_apaths(g, a, ell, b))
        total = enumeration + len(tried)
        assert oracle_min_ball_cover(g, a, ell, r, budget=total) == (size, z)
        with pytest.raises(BudgetExceededError):
            oracle_min_ball_cover(g, a, ell, r, budget=total - 1)
        self.assert_shared(
            lambda limit: oracle_min_ball_cover(g, a, ell, r, budget=limit),
            enumeration,
            len(tried),
        )

    def test_count_packing_oracle(self):
        # The count oracle pays for the minimal enumeration and its own
        # family search over the minimal paths, to the node.
        g, a = self.INSTANCE
        paths = enumerate_induced_apaths(g, a, 2, minimal=True)
        closed = [ball(g, p, 1) for p in paths]
        enumeration = spent(lambda b: enumerate_induced_apaths(g, a, 2, b, minimal=True))
        assert enumeration < spent(lambda b: enumerate_induced_apaths(g, a, 2, b))
        family = spent(lambda b: _max_compatible_family(self.compatibility(paths, closed), 3, b))
        total = enumeration + family
        count = oracle_max_anticomplete_packing(g, a, 2, 3)
        assert oracle_max_anticomplete_packing(g, a, 2, 3, budget=total) == count
        with pytest.raises(BudgetExceededError):
            oracle_max_anticomplete_packing(g, a, 2, 3, budget=total - 1)
        self.assert_shared(
            lambda limit: oracle_max_anticomplete_packing(g, a, 2, 3, budget=limit), enumeration, family
        )


@pytest.mark.parametrize(
    "oracle",
    [
        lambda g, a: max_anticomplete_packing_with_witness(g, a, 2, 3),
        lambda g, a: oracle_max_anticomplete_packing(g, a, 2, 3),
        lambda g, a: max_vertex_disjoint_apath_packing(g, a, 5),
    ],
    ids=["packing-witness", "packing-count", "disjoint-packing"],
)
def test_family_search_leaves_no_reference_cycles(oracle):
    # An oracle call that left cyclic garbage would hand it to the collector,
    # whose next full pass could land inside the benchmark's reuse probe and
    # read as reuse.
    g, a = TestOracleBudget.INSTANCE
    gc.collect()
    gc.disable()
    try:
        oracle(g, a)
        assert gc.collect() == 0
    finally:
        gc.enable()
