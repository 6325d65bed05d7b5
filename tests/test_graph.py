import math
import random
import re
from collections import deque

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
from apaths.graph import (
    _kept_subgraph,
    mask_ball,
    mask_layers,
    mask_members,
    mask_neighbors,
    path_mask,
    to_mask,
    vertex_mask,
)
from apaths.search import (
    _Budget,
    enumerate_induced_apaths,
    find_induced_apath_in_range,
    has_long_induced_apath,
    shortest_long_induced_apath,
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

    @pytest.mark.parametrize(
        "call",
        [
            lambda: Graph(-1, []),
            lambda: ball(path_graph(3), [99], 1),  # an id outside the graph
            lambda: ball(path_graph(3), [-1], 1),
            lambda: ball(path_graph(3), -1, 1),  # an int is taken as a mask
            lambda: ball(path_graph(3), 1 << 3, 1),  # bit n of a mask
            lambda: ball(path_graph(3), [0], -1),
            lambda: power_graph(path_graph(3), 0),
            # An id that is no int is no vertex, nor is a bool.
            lambda: Graph(3, [(0, 1.0)]),
            lambda: Graph(3, [(True, 2)]),
            lambda: ball(path_graph(3), [1.0], 1),
            lambda: dist(path_graph(3), [0], [2.0]),
            lambda: anti_complete(path_graph(3), [0], [True]),
            lambda: induced_subgraph(path_graph(3), [0, 1.0]),
            lambda: has_long_induced_apath(path_graph(3), [0, 2.0], 1),
        ],
        ids=[
            "negative-count", "vertex-out-of-range", "negative-vertex", "negative-mask",
            "mask-bit-out-of-range", "negative-radius", "power-zero",
            "float-edge-end", "bool-edge-end", "ball-float", "dist-float", "anti_complete-bool",
            "induced_subgraph-float", "has_long-float",
        ],
    )
    def test_bad_arguments_are_graph_errors(self, call):
        with pytest.raises(GraphError):
            call()

    def test_a_bad_id_is_named(self):
        with pytest.raises(GraphError, match="vertex -1 not in graph with 3 vertices"):
            ball(path_graph(3), [0, -1], 1)

    def test_a_bool_is_no_vertex_set(self):
        with pytest.raises(GraphError):
            ball(path_graph(3), True, 1)

    @pytest.mark.parametrize("x", [True, 3.0, None, "ab", [None], [1.0], [0, True]])
    def test_a_vertex_set_is_a_mask_or_int_ids(self, x):
        with pytest.raises(GraphError, match="not in graph|neither a vertex mask nor vertex ids"):
            vertex_mask(path_graph(3), x)

    @pytest.mark.parametrize("v", [-1, -3, 3, 7, 1.0, True, "1"])
    def test_an_accessor_names_a_bad_id(self, v):
        # An id outside 0..n-1, negative or not, or one that is no int, is
        # named, never read as another vertex.
        g = Graph(3, [(1, 2)])
        for call in (
            lambda: g.has_edge(v, 1),
            lambda: g.has_edge(1, v),
            lambda: g.neighbors(v),
            lambda: g.neighbor_set(v),
            lambda: g.degree(v),
        ):
            with pytest.raises(GraphError, match=re.escape(f"vertex {v!r} not in graph with 3 vertices")):
                call()

    def test_adjacency_sorted_and_symmetric(self):
        g = Graph(4, [(2, 0), (3, 0), (0, 1)])
        assert g.neighbors(0) == (1, 2, 3)
        assert all(u in g.neighbor_set(v) for u, v in g.edges() for u, v in [(u, v), (v, u)])


@st.composite
def edge_lists(draw):
    """(n, edges): a simple graph on n <= 12 vertices as a list of edges in
    a drawn order, each in a drawn orientation."""
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return n, [(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen]


class TestAccessors:
    """Every accessor against the edge set the graph was built from."""

    @given(edge_lists())
    @settings(max_examples=100, deadline=None)
    def test_accessors_match_the_edge_set(self, inst):
        n, edges = inst
        g = Graph(n, edges)
        e = {frozenset(uv) for uv in edges}
        for v in range(n):
            expected = sorted(w for w in range(n) if frozenset((v, w)) in e)
            assert list(g.neighbors(v)) == expected
            assert g.neighbor_set(v) == frozenset(expected)
            assert g.degree(v) == len(expected)
            for w in range(n):
                assert g.has_edge(v, w) == g.has_edge(w, v) == (frozenset((v, w)) in e)
        assert list(g.edges()) == sorted(tuple(sorted(uv)) for uv in edges)
        assert g.edge_count == len(e)

    @given(edge_lists(), edge_lists(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_equality_and_hash_follow_n_and_the_edge_set(self, first, second, rng):
        (n, edges), (m, other) = first, second
        g = Graph(n, edges)
        shuffled = [(v, u) for u, v in edges]
        rng.shuffle(shuffled)
        same = Graph(n, shuffled)
        assert g == same and hash(g) == hash(same)
        h = Graph(m, other)
        agree = n == m and {frozenset(uv) for uv in edges} == {frozenset(uv) for uv in other}
        assert (g == h) == agree
        if agree:
            assert hash(g) == hash(h)

    @given(edge_lists(), st.lists(st.integers(-1, 12), max_size=6), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_is_induced_path_matches_brute(self, inst, seq, rng):
        n, edges = inst
        g = Graph(n, edges)
        e = {frozenset(uv) for uv in edges}
        matrix = [[frozenset((u, v)) in e for v in range(n)] for u in range(n)]
        walk = [rng.randrange(n)] if n else []
        while walk and rng.random() < 0.8:
            steps = [w for w in range(n) if matrix[walk[-1]][w] and w not in walk]
            if not steps:
                break
            walk.append(rng.choice(steps))
        for p in (tuple(seq), tuple(walk)):
            valid = (
                len(p) > 0 and len(set(p)) == len(p) and all(0 <= v < n for v in p)
                and all(matrix[u][v] for u, v in zip(p, p[1:]))
            )
            assert path_mask(g, p) == (to_mask(p) if valid else 0)
            assert is_path(g, p) == valid
            assert is_induced_path(g, p) == (valid and brute.is_induced_seq(matrix, p))

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_components_match_floyd_warshall(self, inst):
        g = Graph(*inst)
        d = brute.all_pairs_dist(g)
        expected = []
        for v in range(g.n):
            if not any(v in c for c in expected):
                expected.append(frozenset(w for w in range(g.n) if d[v][w] != brute.INF))
        assert components(g) == expected


class TestIdsOrMask:
    """Every query that takes a vertex set takes its mask as well, with the
    same result, and a search spends the same nodes either way."""

    @given(
        st.builds(
            random_instance,
            st.integers(1, 10),
            st.sampled_from([0.2, 0.35, 0.5]),
            st.sampled_from([0.3, 0.6, 1.0]),
            st.integers(0, 100_000),
        ),
        st.integers(1, 6),
        st.integers(0, 3),
    )
    @settings(max_examples=120, deadline=None)
    def test_a_set_and_its_mask_agree(self, inst, ell, r):
        g, a = inst
        x = frozenset(v for v in range(g.n) if v % 3 == 0)
        y = frozenset(v for v in range(g.n) if v % 3 == 1)
        for call in (
            lambda s, t: ball(g, s, r),
            lambda s, t: dist(g, s, t),
            lambda s, t: anti_complete(g, s, t),
            lambda s, t: induced_subgraph(g, s),
        ):
            assert call(x, y) == call(to_mask(x), to_mask(y))
        queries = (
            lambda s, b: find_induced_apath_in_range(g, s, (ell, ell + r), b),
            lambda s, b: has_long_induced_apath(g, s, ell, b),
            lambda s, b: shortest_long_induced_apath(g, s, ell, b),
            lambda s, b: enumerate_induced_apaths(g, s, ell, b),
        )
        for query in queries:
            spent = []
            for terminals in (a, to_mask(a)):
                budget = _Budget(10**9, "ids-or-mask")
                spent.append((query(terminals, budget), budget.limit - budget.remaining))
            assert spent[0] == spent[1]


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

    @pytest.mark.parametrize("r", [1.5, 2.0, True, "1", None])
    def test_a_radius_that_is_not_an_int_is_refused(self, r):
        # A float radius never reaches 0 in the BFS loop: 1.5 once gave all
        # six vertices of the path.
        with pytest.raises(GraphError, match="need an int r, got"):
            ball(path_graph(6), {0}, r)

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
        # induced_subgraph builds its masks without Graph.__init__'s checks;
        # it must still build the same graph that __init__ would.
        s = frozenset(v for v in range(g.n) if v % (mod + 2) != 1)
        h, members = induced_subgraph(g, s)
        expected = Graph(g.n, [(u, v) for u, v in g.edges() if u in s and v in s])
        assert h == expected and hash(h) == hash(expected)
        assert h.edge_count == expected.edge_count
        assert all(h.neighbor_set(v) == expected.neighbor_set(v) for v in range(h.n))
        assert members == tuple(sorted(s))

    @given(random_graphs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_kept_subgraph_takes_the_mask_a_caller_holds(self, g, data):
        # The solver passes its keep mask, and the verifier the complement
        # ~removed, a negative int with every bit above g's ids set.
        removed = data.draw(st.integers(0, 2**g.n - 1))
        s = frozenset(v for v in range(g.n) if not removed >> v & 1)
        expected, _ = induced_subgraph(g, s)
        assert _kept_subgraph(g, ~removed) == expected
        assert _kept_subgraph(g, ~removed & (2**g.n - 1)) == expected


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
        assert [path_mask(g, p) for p in [(0, 1, 0), (1, 2, 1), (-1, 0), (3, 4), (2,), (3, 2, 1)]] == [
            0, 0, 0, 0, 0b100, 0b1110
        ]
        # An id that is no int, a bool included, makes no path.
        # A path is a tuple, list or range; anything else is no path, even
        # when it iterates over one.
        assert [path_mask(g, p) for p in [[1, 2, 3], range(1, 4), [], range(0)]] == [0b1110] * 2 + [0, 0]
        for p in [
            (0, 1.0), (True, 2), (2.0,), ("a",), (0, None),
            5, None, 1.0, {0, 1}, {2}, frozenset({0}), iter([0, 1]), {0: 1}, "01",
        ]:
            assert path_mask(g, p) == 0 and not is_path(g, p) and not is_induced_path(g, p)


class TestPowerGraph:
    def test_power_one_is_identity(self):
        g = cycle_graph(7)
        assert power_graph(g, 1) == g

    def test_c9_cubed_degrees(self):
        h = power_graph(cycle_graph(9), 3)
        assert all(h.degree(v) == 6 for v in range(9))

    def test_path_diameter_collapse(self):
        assert power_graph(path_graph(5), 4) == complete_graph(5)

    @pytest.mark.parametrize("d", [1.5, 2.0, True, "2", None])
    def test_a_power_that_is_not_an_int_is_refused(self, d):
        # d = 1.5 once gave K6 on the 6-vertex path.
        with pytest.raises(GraphError, match="need an int d, got"):
            power_graph(path_graph(6), d)

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


def set_members(mask: int, n: int) -> list[int]:
    """The members of a mask on vertices 0..n-1, by testing each id."""
    return [v for v in range(n) if mask >> v & 1]


def set_distances(nbrs: list[set[int]], sources: set[int], within: set[int]) -> dict[int, int]:
    """Each vertex's distance from sources along paths whose every vertex
    after the first lies in within."""
    dist = {s: 0 for s in sources}
    queue = deque(sources)
    while queue:
        v = queue.popleft()
        for w in nbrs[v]:
            if w in within and w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def sparse_graph(n: int, seed: int) -> Graph:
    """A path 0..n-1 plus two random chords from each vertex to lower ids:
    one component, average degree about 6."""
    rng = random.Random(seed)
    edges = {(v - 1, v) for v in range(1, n)}
    edges |= {(rng.randrange(v - 1), v) for v in range(2, n) for _ in range(2)}
    return Graph(n, edges)


class TestMaskKernels:
    """mask_members, mask_neighbors, mask_ball and mask_layers against
    definitions on Python sets, on small hypothesis graphs and on fixed
    masks at the sizes of the benchmark's caterpillars (375) and of the
    CLI's large inputs (2,400). within takes three forms: -1, a positive
    mask, and the complement of one, as ~y_tilde is."""

    @staticmethod
    def assert_kernels_agree(g: Graph, sources: int, within: int, targets: int, radius: int | None) -> None:
        n, adj = g.n, g.neighbor_masks()
        nbrs = [set(g.neighbors(v)) for v in range(n)]
        members = set_members(sources, n)
        assert mask_members(sources) == members
        assert mask_neighbors(adj, sources) == to_mask(w for v in members for w in nbrs[v])
        dist = set_distances(nbrs, set(members), set(set_members(within, n)))
        unbounded = radius is None or radius < 0
        assert mask_ball(adj, sources, within, radius) == to_mask(v for v, d in dist.items() if unbounded or d <= radius)
        # The layers end at the first one that meets targets, at radius, or
        # at the last distance reached, whichever comes first.
        layers = [to_mask(v for v, d in dist.items() if d == i) for i in range(max(dist.values(), default=0) + 1)]
        last = next((i for i, layer in enumerate(layers) if layer & targets), len(layers) - 1)
        if not unbounded:
            last = min(last, radius)
        assert mask_layers(adj, sources, within, targets, radius) == layers[: last + 1]

    @given(st.integers(0, 2**600))
    @settings(max_examples=300, deadline=None)
    def test_members_are_the_set_bits_in_increasing_order(self, mask):
        assert mask_members(mask) == set_members(mask, mask.bit_length())

    @given(random_graphs, st.data())
    @settings(max_examples=300, deadline=None)
    def test_kernels_agree_on_random_graphs(self, g, data):
        mask = st.integers(0, 2**g.n - 1)
        sources, positive, targets = data.draw(mask), data.draw(mask), data.draw(mask)
        within = data.draw(st.sampled_from([-1, positive, ~positive]))
        radius = data.draw(st.one_of(st.none(), st.integers(-1, g.n + 1)))
        self.assert_kernels_agree(g, sources, within, targets, radius)

    @pytest.mark.parametrize("n", [375, 2400])
    def test_kernels_agree_on_fixed_masks(self, n):
        g = sparse_graph(n, n)
        rng = random.Random(n + 1)
        y = to_mask(rng.sample(range(n), n // 3))  # some vertices inside, some outside
        spread = to_mask(rng.sample(range(n), 7))  # sources across the whole id range
        top = 1 << n - 1 | 1 << n - 2  # the two highest ids alone
        far = to_mask(rng.sample(range(n), 3))
        for sources in (spread, top, 1, 0):
            for within in (-1, y, ~y):
                for targets, radius in ((0, None), (far, None), (0, 3), (far, 2)):
                    self.assert_kernels_agree(g, sources, within, targets, radius)
