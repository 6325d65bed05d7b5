import pytest
from hypothesis import given, settings, strategies as st

from apaths import (
    Graph,
    GraphError,
    caterpillar_instance,
    complete_instance,
    random_instance,
    random_subcubic_tree,
    subdivided_complete_instance,
)


# Every size Graph and the generators take, with its least value.
SIZES = {
    "Graph": (lambda v: Graph(v, []), 0),
    "complete_instance": (lambda v: complete_instance(v), 0),
    "subdivided_complete_instance-k": (lambda v: subdivided_complete_instance(v, 1), 2),
    "subdivided_complete_instance-r": (lambda v: subdivided_complete_instance(2, v), 1),
    "random_instance": (lambda v: random_instance(v, 0.5, 0.5, 0), 0),
    "random_subcubic_tree": (lambda v: random_subcubic_tree(v, 0), 1),
    "caterpillar_instance": (lambda v: caterpillar_instance(v, 0), 2),
}


@pytest.mark.parametrize("value", [2.5, 2.0, True, "3"])
@pytest.mark.parametrize("name", sorted(SIZES))
def test_a_size_that_is_not_an_int_is_refused(name, value):
    # True was a graph on one vertex, and a float or a string failed with a
    # TypeError from range().
    with pytest.raises(GraphError, match="need an int "):
        SIZES[name][0](value)


@pytest.mark.parametrize("name", sorted(SIZES))
def test_a_size_below_its_least_value_is_refused(name):
    call, least = SIZES[name]
    with pytest.raises(GraphError, match=f"need [a-z]+ >= {least}, got {least - 1}$"):
        call(least - 1)


class TestCompleteInstance:
    def test_single_vertex(self):
        g, a = complete_instance(1)
        assert g.n == 1 and g.edge_count == 0 and a == frozenset({0})

    def test_triangle(self):
        g, a = complete_instance(3)
        assert g.edge_count == 3 and a == frozenset({0, 1, 2})

    def test_k5(self):
        g, a = complete_instance(5)
        assert g.edge_count == 10 and len(a) == 5


class TestCaterpillarInstance:
    @pytest.mark.parametrize("legs,seed", [(2, 0), (5, 1), (12, 7)])
    def test_shape(self, legs, seed):
        g, a = caterpillar_instance(legs, seed)
        assert len(a) == legs
        assert a == frozenset(v for v in range(g.n) if g.degree(v) == 1)
        assert g.edge_count == g.n - 1  # a tree
        assert all(g.degree(v) <= 3 for v in range(g.n))

    def test_seeded(self):
        assert caterpillar_instance(6, 3) == caterpillar_instance(6, 3)
        assert caterpillar_instance(6, 3) != caterpillar_instance(6, 4)

    def test_rejects_fewer_than_two_legs(self):
        with pytest.raises(ValueError):
            caterpillar_instance(1, 0)


class TestSubdividedComplete:
    def test_k2_r1_is_nine_cycle(self):
        g, a = subdivided_complete_instance(2, 1)
        assert g.n == 9 and a == frozenset({0, 1, 2})
        assert all(g.degree(v) == 2 for v in range(9))

    def test_k2_r2_is_eighteen_cycle(self):
        g, _ = subdivided_complete_instance(2, 2)
        assert g.n == 18

    def test_k3_r1_counts(self):
        g, a = subdivided_complete_instance(3, 1)
        assert g.n == 25 and len(a) == 5

    @pytest.mark.parametrize("k,r", [(2, 1), (2, 3), (3, 1), (3, 2), (4, 1)])
    def test_vertex_count_and_degrees(self, k, r):
        g, a = subdivided_complete_instance(k, r)
        b = 2 * k - 1
        assert g.n == b + b * (k - 1) * (3 * r - 1)
        assert all(g.degree(v) == 2 * k - 2 for v in range(b))
        assert all(g.degree(v) == 2 for v in range(b, g.n))

    def test_rejects_small_parameters(self):
        with pytest.raises(ValueError):
            subdivided_complete_instance(1, 1)
        with pytest.raises(ValueError):
            subdivided_complete_instance(2, 0)


class TestRandomInstance:
    def test_edge_prob_zero(self):
        g, _ = random_instance(8, 0.0, 0.5, 3)
        assert g.edge_count == 0

    def test_edge_prob_one(self):
        g, _ = random_instance(6, 1.0, 1.0, 3)
        assert g.edge_count == 15

    def test_seed_replays(self):
        assert random_instance(10, 0.4, 0.5, 99) == random_instance(10, 0.4, 0.5, 99)

    def test_different_seeds_differ_somewhere(self):
        outs = {random_instance(12, 0.5, 0.5, s) for s in range(8)}
        assert len(outs) > 1


class TestRandomSubcubicTree:
    def test_two_vertices(self):
        edges, leaves = random_subcubic_tree(2, 0)
        assert edges == [(0, 1)] and leaves == frozenset({0, 1})

    def test_three_vertices_is_path(self):
        edges, leaves = random_subcubic_tree(3, 5)
        assert len(edges) == 2 and len(leaves) == 2

    def test_seed_replays(self):
        assert random_subcubic_tree(40, 7) == random_subcubic_tree(40, 7)

    def test_rejects_no_vertices(self):
        with pytest.raises(ValueError, match="need n >= 1"):
            random_subcubic_tree(0, 3)

    @given(st.integers(1, 200), st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_always_a_subcubic_tree(self, n, seed):
        edges, leaves = random_subcubic_tree(n, seed)
        assert len(edges) == n - 1
        g = Graph(n, edges)
        assert max((g.degree(v) for v in range(n)), default=0) <= 3
        assert leaves == frozenset(v for v in range(n) if g.degree(v) == 1)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert len(seen) == n
