import math

import pytest
from hypothesis import given, settings, strategies as st

import brute
from apaths import (
    Graph,
    GraphError,
    anti_complete,
    ball,
    components,
    dist,
    induced_subgraph,
    is_induced_path,
    is_path,
    power_graph,
    random_instance,
)


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


random_graphs = st.builds(
    lambda n, p, seed: random_instance(n, p, 0.5, seed)[0],
    st.integers(1, 10),
    st.sampled_from([0.15, 0.3, 0.5, 0.8]),
    st.integers(0, 10_000),
)


class TestGraphConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(3, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 5)])

    def test_adjacency_sorted_and_symmetric(self):
        g = Graph(4, [(2, 0), (3, 0), (0, 1)])
        assert g.neighbors(0) == (1, 2, 3)
        assert all(u in g.neighbor_set(v) for u, v in g.edges() for u, v in [(u, v), (v, u)])


class TestBall:
    def test_complete_radius_one(self):
        g = complete_graph(5)
        assert ball(g, {0}, 1) == frozenset(range(5))

    def test_path_two_layers(self):
        assert ball(path_graph(5), {0}, 2) == frozenset({0, 1, 2})

    def test_radius_zero_is_identity(self):
        g = cycle_graph(6)
        assert ball(g, {2, 4}, 0) == frozenset({2, 4})

    def test_empty_set(self):
        assert ball(path_graph(3), set(), 2) == frozenset()

    @given(random_graphs, st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_compositional(self, g, r1, r2):
        x = frozenset(v for v in range(g.n) if v % 3 == 0)
        lo, hi = min(r1, r2), max(r1, r2)
        assert ball(g, x, lo) <= ball(g, x, hi)
        assert ball(g, x, hi) == brute.brute_ball(g, x, hi)
        if hi >= 1:
            assert ball(g, x, hi) == ball(g, ball(g, x, hi - 1), 1)


class TestDist:
    def test_path_endpoints(self):
        assert dist(path_graph(4), {0}, {3}) == 3

    def test_overlap_zero(self):
        assert dist(path_graph(4), {0}, {0}) == 0

    def test_disconnected_inf(self):
        g = Graph(2, [])
        assert dist(g, {0}, {1}) == math.inf

    @given(random_graphs)
    @settings(max_examples=40, deadline=None)
    def test_matches_floyd_warshall(self, g):
        if g.n < 2:
            return
        d = brute.all_pairs_dist(g)
        for u in range(0, g.n, 2):
            for v in range(1, g.n, 2):
                assert dist(g, {u}, {v}) == d[u][v]


class TestAntiComplete:
    def test_far_apart_true(self):
        assert anti_complete(path_graph(5), {0}, {4})

    def test_edge_false(self):
        assert not anti_complete(path_graph(3), {0}, {1})

    def test_overlap_false(self):
        assert not anti_complete(path_graph(3), {0}, {0})

    def test_distance_two_is_anticomplete(self):
        # disjoint with no crossing edge; a common neighbour is allowed
        assert anti_complete(path_graph(3), {0}, {2})

    @given(random_graphs, st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_equivalent_to_ball_form(self, g, offset):
        x = frozenset(v for v in range(g.n) if v % 2 == offset % 2)
        y = frozenset(v for v in range(g.n) if v % 3 == offset % 3)
        expected = x.isdisjoint(y) and not (ball(g, x, 1) & y)
        assert anti_complete(g, x, y) == expected


class TestInducedSubgraph:
    """induced_subgraph keeps g's ids: h.n == g.n, the edges inside s, and
    every vertex outside s isolated; members is s sorted."""

    def test_triangle_from_k4(self):
        h, members = induced_subgraph(complete_graph(4), {2, 0, 1})
        assert h == Graph(4, [(0, 1), (0, 2), (1, 2)])
        assert h.degree(3) == 0
        assert members == (0, 1, 2)

    def test_empty_selection(self):
        h, members = induced_subgraph(complete_graph(4), set())
        assert h == Graph(4, []) and members == ()

    def test_c5_arc(self):
        h, _ = induced_subgraph(cycle_graph(5), {0, 1, 2})
        assert h == Graph(5, [(0, 1), (1, 2)])

    @given(random_graphs, st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_edge_counts(self, g, mod):
        s = frozenset(v for v in range(g.n) if v % (mod + 2) != 0)
        h, members = induced_subgraph(g, s)
        expected = sum(1 for u, v in g.edges() if u in s and v in s)
        assert h.edge_count == expected
        assert members == tuple(sorted(s))
        assert h.n == g.n
        assert all(h.degree(v) == 0 for v in range(g.n) if v not in s)

    @given(random_graphs, st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_equals_checked_construction(self, g, mod):
        # induced_subgraph skips Graph.__init__'s checks; it must still build
        # the same graph, adjacency sets included, that __init__ would.
        s = frozenset(v for v in range(g.n) if v % (mod + 2) != 1)
        h, members = induced_subgraph(g, s)
        expected = Graph(g.n, [(u, v) for u, v in g.edges() if u in s and v in s])
        assert h == expected and hash(h) == hash(expected)
        assert h.edge_count == expected.edge_count
        assert all(h.neighbor_set(v) == expected.neighbor_set(v) for v in range(h.n))
        assert members == tuple(sorted(s))


class TestComponentsAndPaths:
    def test_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        assert components(g) == [frozenset({0, 1}), frozenset({2, 3}), frozenset({4})]

    def test_shortest_path_is_induced(self):
        assert is_induced_path(cycle_graph(6), (0, 1, 2, 3))

    def test_triangle_traversal_has_chord(self):
        assert not is_induced_path(complete_graph(3), (0, 1, 2))

    def test_single_edge(self):
        assert is_induced_path(path_graph(2), (0, 1))

    def test_invalid_sequences(self):
        g = path_graph(4)
        assert not is_path(g, (0, 2))
        assert not is_path(g, (0, 1, 0))
        assert not is_path(g, ())
        assert is_path(g, (2,))


class TestPowerGraph:
    def test_power_one_is_identity(self):
        g = cycle_graph(7)
        assert power_graph(g, 1) == g

    def test_c9_cubed_degrees(self):
        h = power_graph(cycle_graph(9), 3)
        assert all(h.degree(v) == 6 for v in range(9))

    def test_path_diameter_collapse(self):
        assert power_graph(path_graph(5), 4) == complete_graph(5)

    @given(random_graphs, st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_distance_contraction(self, g, d):
        h = power_graph(g, d)
        dg = brute.all_pairs_dist(g)
        dh = brute.all_pairs_dist(h)
        for u in range(g.n):
            for v in range(g.n):
                expected = math.ceil(dg[u][v] / d) if dg[u][v] is not brute.INF else brute.INF
                assert dh[u][v] == expected
