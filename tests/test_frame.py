import dataclasses
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import apaths.frame
from apaths import (
    Frame,
    FrameInvariantError,
    Graph,
    Packing,
    SolveParams,
    anti_complete,
    build_maximal_frame,
    caterpillar_instance,
    dist,
    extend_frame,
    extract_frame_paths,
    find_extension,
    init_frame,
    is_induced_path,
    leaf_paths,
    random_subcubic_tree,
    solve,
    subdivided_complete_instance,
    validate_frame,
)
from apaths.frame import Violation, _axiom_violations, _path_edges, check_frame_claims
from apaths.graph import to_mask
from apaths.search import _Budget
from reference_frame import reference_validate_frame, set_view
from test_search import CountingAdj


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def pendant_instance():
    """Length-8 path with terminals at its ends, plus a pendant terminal 9
    joined by a length-5 path (10..13) to the midpoint 4."""
    edges = [(i, i + 1) for i in range(8)]
    edges += [(9, 10), (10, 11), (11, 12), (12, 13), (13, 4)]
    return Graph(14, edges), frozenset({0, 8, 9})


def double_pendant_instance():
    """Length-12 path plus two pendant terminals (13 and 18) attached by
    length-5 paths to vertices 4 and 8."""
    edges = [(i, i + 1) for i in range(12)]
    edges += [(13, 14), (14, 15), (15, 16), (16, 17), (17, 4)]
    edges += [(18, 19), (19, 20), (20, 21), (21, 22), (22, 8)]
    return Graph(23, edges), frozenset({0, 12, 13, 18})


class TestInitFrame:
    def test_bare_path(self):
        g = path_graph(7)
        fr = init_frame(g, {0, 6}, 3)
        assert fr is not None
        assert fr.a_f == to_mask({0, 6})
        assert fr.hubs == 0
        assert fr.f == to_mask(range(7))
        assert validate_frame(fr) == []

    def test_no_apath_gives_none(self):
        assert init_frame(Graph(3, []), {0, 1}, 1) is None
        assert build_maximal_frame(Graph(3, []), {0, 1}, 1) is None

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_is_refused(self, budget):
        g, a = pendant_instance()
        with pytest.raises(ValueError, match="need node budget >= 1"):
            init_frame(g, a, 3, budget)
        with pytest.raises(ValueError, match="need node budget >= 1"):
            build_maximal_frame(g, a, 3, budget)

    def test_subdivided_k3(self):
        g, a = subdivided_complete_instance(2, 1)
        fr = init_frame(g, a, 1)
        assert fr is not None
        assert fr.f == to_mask({0, 3, 4, 1})
        assert fr.a_f == to_mask({0, 1})


class TestFrameSets:
    """A frame stores only what the construction chooses; F, the leaves,
    the hubs, Y, Y~, Abar and the rim are masks derived from it."""

    def test_fields_are_the_chosen_four(self):
        assert [f.name for f in dataclasses.fields(Frame)] == ["host", "terminals", "tree_edges", "ell"]

    def test_derived_sets(self):
        # A length-9 path with a pendant terminal 9 on vertex 4 and an outside
        # vertex 10 next to vertex 2.
        g = Graph(11, [(i, i + 1) for i in range(8)] + [(4, 9), (2, 10)])
        fr = Frame(g, frozenset({0, 8, 9}), frozenset((i, i + 1) for i in range(8)) | {(4, 9)}, 3)
        assert fr.f == to_mask(range(10))
        assert fr.a_f == to_mask({0, 8, 9}) and fr.a_bar == 0
        assert fr.hubs == to_mask({4})
        assert fr.leaf_count == 3
        assert fr.y == to_mask(range(10))
        assert fr.y_tilde == to_mask({10})
        assert fr.rim == to_mask({10})
        assert validate_frame(fr) == []

    def test_derived_sets_follow_the_fields(self):
        g = path_graph(9)
        fr = init_frame(g, {0, 8}, 3)
        assert fr.y == to_mask(set(range(9)) - {4}) and fr.y_tilde == 0
        assert fr.a_bar == 0 and fr.rim == 0
        # A new frame derives its own sets: nothing is carried over.
        grown = replace(fr, host=Graph(10, list(g.edges()) + [(1, 9)]), terminals=frozenset({0, 8, 9}))
        assert grown.y == fr.y and grown.y_tilde == to_mask({9})
        assert grown.a_bar == to_mask({9}) and grown.rim == to_mask({9})
        assert replace(fr, ell=4).y == to_mask(range(9))


class TestValidateFrame:
    def test_degree_four_tree_names_a2(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        fr = Frame(g, frozenset({1, 2, 3, 4}), frozenset({(0, 1), (0, 2), (0, 3), (0, 4)}), 1)
        axioms = {v.axiom for v in validate_frame(fr)}
        assert "A2" in axioms

    def test_terminal_outside_host_names_a1(self):
        fr = init_frame(path_graph(7), {0, 6}, 3)
        broken = replace(fr, terminals=fr.terminals | {7})
        expected = [Violation("A1", 7, "terminal outside the host graph")]
        assert validate_frame(broken) == check_frame_claims(broken) == expected

    def test_tree_vertex_outside_host_names_a1(self):
        # A negative id is not a bit position, so both checks read A1 off the
        # raw ids before any mask is derived.
        fr = init_frame(path_graph(7), {0, 6}, 3)
        for edge, bad in (((-1, 0), -1), ((6, 7), 7)):
            broken = replace(fr, tree_edges=fr.tree_edges | {edge})
            expected = [Violation("A1", bad, "frame vertex outside the host graph")]
            assert validate_frame(broken) == check_frame_claims(broken) == expected

    @pytest.mark.parametrize("bad", [7.0, True, "x", None])
    def test_an_id_that_is_no_int_names_a1(self, bad):
        # Such an id is no vertex, a bool included, so it is an A1
        # violation, whether it names a tree vertex or a terminal; 7.0 once
        # raised a TypeError from a mask, and True was read as vertex 1.
        fr = init_frame(path_graph(7), {0, 6}, 3)
        for what, broken in (
            ("frame vertex", replace(fr, tree_edges=fr.tree_edges | {(6, bad)})),
            ("terminal", replace(fr, terminals=fr.terminals | {bad})),
        ):
            expected = [Violation("A1", bad, f"{what} outside the host graph")]
            assert validate_frame(broken) == check_frame_claims(broken) == expected

    def test_chords_in_f_break_size_y(self):
        # A path frame whose first vertex is joined to every other frame
        # vertex: Y, the ell_hat ball around the leaves in F, is all of F.
        n, ell = 60, 3
        g = Graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, v) for v in range(2, n)])
        fr = Frame(g, frozenset({0, n - 1}), frozenset((i, i + 1) for i in range(n - 1)), ell)
        bound = (4 * fr.ell_hat + 14) * 2
        assert check_frame_claims(fr) == [Violation("SizeY", n, f"|y| = {n} > {bound}")]

    def test_terminal_inside_the_tree_names_a3(self):
        fr = init_frame(path_graph(7), {0, 6}, 3)
        broken = replace(fr, terminals=fr.terminals | {3})
        assert broken.a_f == to_mask({0, 3, 6})
        assert {(v.axiom, v.witness) for v in validate_frame(broken)} == {("A3", 3)}

    @pytest.mark.parametrize("ell", [0, -1, 2.5, 3.0, True, "3", None])
    def test_an_ell_that_is_no_int_from_one_is_a_violation(self, ell):
        # ell is read from the raw field before any mask is derived, so a
        # float radius or a bool never reaches Y, and an ell below one never
        # reaches A10; every entry point that validates the frame raises.
        fr = Frame(path_graph(4), frozenset({0, 3}), frozenset({(0, 1), (1, 2), (2, 3)}), ell)
        assert validate_frame(fr) == check_frame_claims(fr) == [Violation("ell", ell, "ell is no int >= 1")]
        assert "y" not in vars(fr)
        for call in (extract_frame_paths, find_extension, lambda fr: extend_frame(fr, (0, 1))):
            with pytest.raises(FrameInvariantError, match="ell is no int >= 1"):
                call(fr)

    @pytest.mark.parametrize(
        "field, value, want",
        [
            ("tree_edges", frozenset({(0, 1, 2), (2, 3)}), ((0, 1, 2), "tree edge is no pair of ids")),
            ("tree_edges", None, (None, "tree edges are no set of pairs")),
            ("tree_edges", 5, (5, "tree edges are no set of pairs")),
            ("terminals", None, (None, "terminals are no collection of ids")),
            ("terminals", 5, (5, "terminals are no collection of ids")),
            ("host", None, (None, "host is no Graph")),
        ],
        ids=["edge-of-three", "edges-none", "edges-int", "terminals-none", "terminals-int", "host-none"],
    )
    def test_a_field_of_the_wrong_shape_is_a_violation(self, field, value, want):
        # The shapes are read before anything iterates the fields: the tree
        # edge (0, 1, 2) once raised a ValueError, and the others a TypeError
        # or an AttributeError. The violation is named as its field.
        fr = replace(Frame(path_graph(4), frozenset({0, 3}), frozenset({(0, 1), (1, 2), (2, 3)}), 2), **{field: value})
        assert validate_frame(fr) == check_frame_claims(fr) == [Violation(field, *want)]
        for call in (extract_frame_paths, find_extension, lambda fr: extend_frame(fr, (0, 1))):
            with pytest.raises(FrameInvariantError, match=want[1]):
                call(fr)

    def test_an_outside_vertex_sees_tree_distant_consecutive_ids(self):
        # A path frame of 13 vertices at ell 3, so Y holds four vertices at
        # each end, laid out 0, 1, 2, 3, 4, 6, 7, 5, 8, ..., 12: the ids 4
        # and 5 lie three apart in T, both outside Y. The outside vertex 13
        # sees both and nothing of Y, so A9 names the pair.
        spine = _path_edges((0, 1, 2, 3, 4, 6, 7, 5, 8, 9, 10, 11, 12))
        fr = Frame(Graph(14, list(spine) + [(4, 13), (5, 13)]), frozenset({0, 12}), spine, 3)
        want = [Violation("A9", (13, 4, 5), "outside vertex with tree-distant frame neighbours")]
        assert validate_frame(fr) == reference_validate_frame(set_view(fr)) == want

    def test_a8_names_a_chord_with_either_end_in_region(self):
        # A path frame 0..12 with the chord (2, 9) and no hub: A8 fails on
        # the chord, and a check around a region names it iff one of its
        # ends lies in region, the lower one or only the upper one.
        spine = _path_edges(range(13))
        fr = Frame(Graph(13, list(spine) + [(2, 9)]), frozenset({0, 12}), spine, 3)
        want = [Violation("A8", (2, 9), "non-tree frame edge far from every hub")]
        assert validate_frame(fr) == want
        for region in ({2}, {9}, {2, 9}, {5, 9}):
            assert _axiom_violations(fr, to_mask(region), 0, 0) == want, region
        assert _axiom_violations(fr, to_mask({5, 6}), 0, 0) == []


class TestFindExtension:
    def test_no_unprocessed_terminals(self):
        g = path_graph(7)
        fr = init_frame(g, {0, 6}, 3)
        assert find_extension(fr) is None

    def test_pendant_attachment(self):
        g, a = pendant_instance()
        fr = init_frame(g, a, 3)
        assert fr.a_f == to_mask({0, 8})
        assert find_extension(fr) == (9, 10, 11, 12, 13, 4)

    def test_terminal_inside_y_tilde_blocked(self):
        # terminal adjacent to the frame near a leaf falls inside y_tilde
        g = Graph(4, [(0, 1), (1, 2), (3, 1)])
        a = {0, 2, 3}
        fr = init_frame(g, a, 1)
        assert fr is not None and fr.y_tilde >> 3 & 1
        assert find_extension(fr) is None

    def test_nearby_terminal_absorbed_by_init_minimality(self):
        # a terminal two steps from mid-path cannot become a short extension:
        # the shortest induced A-path already runs through it, so init takes
        # that route and the leftover terminal ends up separated
        g = Graph(11, [(i, i + 1) for i in range(8)] + [(9, 10), (10, 4)])
        a = frozenset({0, 8, 9})
        fr = init_frame(g, a, 3)
        assert fr.a_f >> 9 & 1
        assert fr.f == to_mask({0, 1, 2, 3, 4, 9, 10})
        assert find_extension(fr) is None

    def test_tie_walks_back_to_the_least_neighbour(self):
        # 0 and 1 both reach frame vertex 15 in two steps, through 8 and 5.
        # The path ends at the least frame vertex of the first layer to reach
        # F and steps back to the least neighbour one layer closer: 5, so it
        # starts at 1, although 0 is the smaller terminal.
        g = Graph(21, [(i, i + 1) for i in range(10, 20)] + [(0, 8), (8, 15), (1, 5), (5, 15)])
        a = frozenset({0, 1, 10, 20})
        fr = Frame(g, a, frozenset((i, i + 1) for i in range(10, 20)), 3)
        assert validate_frame(fr) == []
        p = find_extension(fr)
        assert p == (1, 5, 15)
        assert validate_frame(extend_frame(fr, p)) == []

    @pytest.mark.parametrize(
        "terminals, extra_edges",
        [({-1, 0, 3}, set()), ({0, 3, 9}, set()), ({0, 3}, {(2, 7)})],
        ids=["negative-terminal", "terminal-above-n", "tree-edge-outside"],
    )
    def test_frame_outside_the_host_names_a1(self, terminals, extra_edges):
        # The derived masks need A1, so it is checked before any is read.
        tree = frozenset({(0, 1), (1, 2), (2, 3)} | extra_edges)
        fr = Frame(path_graph(4), frozenset(terminals), tree, 1)
        with pytest.raises(FrameInvariantError, match="A1: .* outside the host graph"):
            find_extension(fr)


class TestExtendFrame:
    def test_pendant_adds_leaf_and_hub(self):
        g, a = pendant_instance()
        fr = init_frame(g, a, 3)
        ext = find_extension(fr)
        fr2 = extend_frame(fr, ext)
        assert fr2.a_f == to_mask({0, 8, 9})
        assert fr2.hubs == to_mask({4})
        assert validate_frame(fr2) == []
        # the attachment vertex had tree-degree 2 and now has 3
        deg = sum(1 for u, v in fr2.tree_edges if 4 in (u, v))
        assert deg == 3

    def test_double_extension_hubs_far_apart(self):
        g, a = double_pendant_instance()
        fr = init_frame(g, a, 3)
        assert fr.a_f == to_mask({0, 13})
        e1 = find_extension(fr)
        assert e1 == (12, 11, 10, 9, 8, 7, 6, 5, 4)
        fr = extend_frame(fr, e1)
        e2 = find_extension(fr)
        assert e2 == (18, 19, 20, 21, 22, 8)
        fr = extend_frame(fr, e2)
        assert fr.a_f == to_mask({0, 12, 13, 18})
        assert fr.hubs == to_mask({4, 8})
        assert dist(g, {4}, {8}) >= 3
        assert find_extension(fr) is None

    def test_leaf_count_grows_by_one(self):
        g, a = double_pendant_instance()
        fr = init_frame(g, a, 3)
        counts = [fr.leaf_count]
        while (ext := find_extension(fr)) is not None:
            fr = extend_frame(fr, ext)
            counts.append(fr.leaf_count)
        assert counts == [2, 3, 4]

    def test_foreign_host_raises(self):
        # The same frame moved onto a host with a chord (0, 2) on its path:
        # the grown frame is checked in full, so the chord is found. Leaf 0
        # now has two frame neighbours (A3), and no hub is near the chord (A8).
        g, a = pendant_instance()
        fr = init_frame(g, a, 3)
        ext = find_extension(fr)
        chorded = replace(fr, host=Graph(g.n, list(g.edges()) + [(0, 2)]))
        with pytest.raises(FrameInvariantError, match="extend_frame produced an invalid frame") as err:
            extend_frame(chorded, ext)
        assert {(v.axiom, v.witness) for v in err.value.violations} == {("A3", 0), ("A8", (0, 2))}

    def test_invariants_survive_python_O(self):
        # python -O strips assert statements; the frame's invariants must
        # still raise.
        code = (
            "from dataclasses import replace\n"
            "from apaths import Frame, FrameInvariantError, Graph, PowerGraphMap, extend_frame, find_extension,"
            " init_frame, lift_path\n"
            "from test_frame import pendant_instance\n"
            "assert False, 'asserts are live, so this is not running under -O'\n"
            "g, a = pendant_instance()\n"
            "fr = init_frame(g, a, 3)\n"
            "ext = find_extension(fr)\n"
            "try:\n"
            "    extend_frame(replace(fr, host=Graph(g.n, list(g.edges()) + [(0, 2)])), ext)\n"
            "except FrameInvariantError as exc:\n"
            "    print('raised:', str(exc).splitlines()[0])\n"
            "base = Graph(3, [(0, 1), (1, 2)])\n"
            "forged = PowerGraphMap(base, 2, Graph(3, [(0, 2)]), {(0, 2): (0, 1)})\n"
            "try:\n"
            "    lift_path(forged, (0, 2))\n"
            "except ValueError as exc:\n"
            "    print('raised:', exc)\n"
            # The local step of test_local_step_finds_a_leaf_with_two_frame_neighbours.
            "g = Graph(18, [(i, i + 1) for i in range(16)] + [(7, 17), (8, 17)])\n"
            "fr = Frame(g, frozenset({0, 16, 17}), frozenset((i, i + 1) for i in range(16)), 3)\n"
            "try:\n"
            "    extend_frame(fr, find_extension(fr))\n"
            "except FrameInvariantError as exc:\n"
            "    print('raised:', ' | '.join(str(exc).splitlines()))\n"
        )
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
        done = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "raised: extend_frame produced an invalid frame",
            "raised: the witnesses of (0, 2) do not connect 0 to 2",
            "raised: extend_frame produced an invalid frame"
            " | A3: a_f differs from frame degree-1 vertices (witness: 17)",
        ]

    def test_construction_validates_in_full_twice(self, monkeypatch):
        # init_frame and the last frame are validated in full; the steps
        # between are checked locally.
        g, a = caterpillar_instance(12, 0)
        calls = []
        full = apaths.frame.validate_frame
        monkeypatch.setattr(apaths.frame, "validate_frame", lambda fr: calls.append(fr.leaf_count) or full(fr))
        fr = build_maximal_frame(g, a, 3)
        assert fr.leaf_count == 12
        assert calls == [2, 12]

    def test_local_step_finds_a_leaf_with_two_frame_neighbours(self, monkeypatch):
        # A path 0..16 with terminals at its ends (ell 3, so y is 0..3 and
        # 13..16) and a terminal 17 joined to both 7 and 8, outside y. The
        # step (17, 7) has P1..P7 and P-hub, but the new leaf 17 has two
        # frame neighbours. The local check must report what the full
        # validator reports on the grown frame, without calling it.
        g = Graph(18, [(i, i + 1) for i in range(16)] + [(7, 17), (8, 17)])
        spine = frozenset((i, i + 1) for i in range(16))
        fr = apaths.frame._assert_valid(Frame(g, frozenset({0, 16, 17}), spine, 3), "init_frame")
        p = find_extension(fr)
        assert p == (17, 7)
        want = validate_frame(Frame(g, fr.terminals, spine | {(7, 17)}, 3))
        assert want == [Violation("A3", 17, "a_f differs from frame degree-1 vertices")]
        monkeypatch.setattr(apaths.frame, "validate_frame", None)
        with pytest.raises(FrameInvariantError, match="extend_frame produced an invalid frame") as err:
            extend_frame(fr, p)
        assert err.value.violations == want

    def test_packing_solve_validates_in_full_twice(self, monkeypatch):
        # init_frame and the last frame are validated in full; extraction
        # trusts the last frame, which build_maximal_frame has just checked.
        # At k = 2 the last frame is the first with 2k = 4 leaves.
        g, a = caterpillar_instance(12, 0)
        calls = []
        full = apaths.frame.validate_frame
        monkeypatch.setattr(apaths.frame, "validate_frame", lambda fr: calls.append(fr.leaf_count) or full(fr))
        assert isinstance(solve(g, a, SolveParams(2, 3)), Packing)
        assert calls == [2, 4]

    @pytest.mark.parametrize("k", [2, 7])
    def test_each_step_is_counted_once(self, k, monkeypatch):
        # The frame grows from 2 leaves to 2k, or to all 12 legs if 2k > 12,
        # with one extend_frame call per observed step.
        g, a = caterpillar_instance(12, 0)
        seen, calls = [], []
        step = apaths.frame.extend_frame
        monkeypatch.setattr(apaths.frame, "extend_frame", lambda fr, p: calls.append(p) or step(fr, p))
        solve(g, a, SolveParams(k, 3), frame_observer=seen.append)
        steps = sum(1 for fr in seen if fr.hubs)  # an init frame is a path, with no hub
        assert steps == min(2 * k, 12) - 2
        assert len(calls) == steps

    @pytest.mark.parametrize("k", [1, 2, 6, 7])
    def test_construction_stops_at_2k_leaves(self, k, monkeypatch):
        # Given k, the construction is the maximal one cut off at 2k leaves,
        # and its last frame is still validated in full. 12 legs make 12
        # leaves at most, so from k = 6 on the frame is the maximal one.
        g, a = caterpillar_instance(12, 0)
        maximal = []
        build_maximal_frame(g, a, 3, observer=maximal.append)
        assert [fr.leaf_count for fr in maximal] == list(range(2, 13))
        seen, calls = [], []
        full = apaths.frame.validate_frame
        monkeypatch.setattr(apaths.frame, "validate_frame", lambda fr: calls.append(fr.leaf_count) or full(fr))
        last = build_maximal_frame(g, a, 3, observer=seen.append, k=k)
        assert last is seen[-1] and last.leaf_count == min(2 * k, 12)
        assert [fr.tree_edges for fr in seen] == [fr.tree_edges for fr in maximal[:len(seen)]]
        assert calls == sorted({2, last.leaf_count})

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_refused_before_any_node(self, k):
        # No frame has 2k leaves for k < 1, and stopping there is not maximal.
        g, a = caterpillar_instance(6, 0)
        budget = _Budget(1000, "test")
        with pytest.raises(ValueError, match=f"need k >= 1, got {k}"):
            build_maximal_frame(g, a, 3, budget, k=k)
        assert budget.remaining == 1000

    @pytest.mark.parametrize("seed", [0, 1])
    def test_caterpillar_frames_build_no_tree_ball_of_radius_2(self, seed, monkeypatch):
        # A count, not a clock: a caterpillar's T has no chord in F, and each
        # outside vertex has one F neighbour, so A8 and A9 build no ball of T.
        g, a = caterpillar_instance(25, seed)
        calls = []
        real = apaths.frame.mask_ball

        def counting(adj, sources, within=-1, radius=None):
            calls.append((adj, radius))
            return real(adj, sources, within, radius)

        monkeypatch.setattr(apaths.frame, "mask_ball", counting)
        frames = []
        assert build_maximal_frame(g, a, 3, observer=frames.append).leaf_count == 25
        trees = {id(fr.tree) for fr in frames}
        on_trees = [radius for adj, radius in calls if id(adj) in trees]
        assert on_trees and 2 not in on_trees  # A2's reach check walks T, unbounded

    @pytest.mark.parametrize("seed", [0, 1])
    def test_an_extension_search_reads_adjacency_in_proportion_to_its_path(self, seed):
        # A count, not a clock: each call that returns a path p reads the
        # host's adjacency at most 8 * len(p) times, wherever the frame has
        # grown to. A BFS from all of Abar read up to 65 * len(p) here.
        g, a = caterpillar_instance(60, seed)
        g._adj = adj = CountingAdj(g.neighbor_masks())
        fr = init_frame(g, a, 3)
        reads = []
        while True:
            adj.reads = 0
            p = find_extension(fr)
            if p is None:
                break
            reads.append((adj.reads, len(p)))
            fr = extend_frame(fr, p)
        assert len(reads) == 58 and all(count <= 8 * length for count, length in reads), reads

    def test_path_to_a_hub_fails_before_the_step(self):
        # A valid frame built from its fields, with hub 4, and a path from a
        # new terminal 14 to that hub. The path is checked before the tree
        # grows, so the error names P-hub (and P5: 18, next to the hub, lies
        # in Y~), not the tree degree 4 the grown tree would have at 4 (A2).
        g, a = pendant_instance()
        g = Graph(19, list(g.edges()) + [(14, 15), (15, 16), (16, 17), (17, 18), (18, 4)])
        tree = _path_edges(range(9)) | _path_edges((9, 10, 11, 12, 13, 4))
        fr = Frame(g, a | {14}, tree, 3)
        assert validate_frame(fr) == [] and fr.hubs == to_mask({4})
        with pytest.raises(FrameInvariantError, match="find_extension produced a bad path") as err:
            extend_frame(fr, (14, 15, 16, 17, 18, 4))
        assert [v.axiom for v in err.value.violations] == ["P5", "P-hub"]

    def test_non_path_raises(self):
        g, a = pendant_instance()
        fr = init_frame(g, a, 3)
        with pytest.raises(FrameInvariantError, match="is not a path of the host"):
            extend_frame(fr, (9, 10, 4))

    def test_claims_hold_at_every_step(self):
        g, a = double_pendant_instance()
        seen = []
        build_maximal_frame(g, a, 3, observer=seen.append)
        for fr in seen:
            assert fr.hubs.bit_count() == fr.leaf_count - 2
            assert fr.y.bit_count() <= (4 * fr.ell_hat + 14) * fr.leaf_count
            assert check_frame_claims(fr) == []


class TestLeafPaths:
    def test_bare_path(self):
        assert leaf_paths([(0, 1), (1, 2)], [0, 2]) == [(0, 1, 2)]

    def test_star(self):
        out = leaf_paths([(0, 1), (0, 2), (0, 3)], [1, 2, 3])
        assert len(out) == 1
        (p,) = out
        assert p[1] == 0 and {p[0], p[2]} <= {1, 2, 3}

    def test_double_spider(self):
        edges = [(4, 5), (0, 4), (1, 4), (2, 5), (3, 5)]
        assert leaf_paths(edges, [0, 1, 2, 3]) == [(2, 5, 3), (0, 4, 1)]

    def test_no_edges_no_paths(self):
        assert leaf_paths([], []) == []

    def test_rejects_supercubic(self):
        with pytest.raises(ValueError):
            leaf_paths([(0, 1), (0, 2), (0, 3), (0, 4)], [1, 2, 3, 4])

    def test_rejects_cycle(self):
        with pytest.raises(ValueError):
            leaf_paths([(0, 1), (1, 2), (2, 0)], [])

    def test_rejects_wrong_leaves(self):
        with pytest.raises(ValueError):
            leaf_paths([(0, 1), (1, 2)], [0, 1])

    @pytest.mark.parametrize("edges, leaves", [
        ([(0, 1), (0, 1), (1, 2)], [0, 2]),  # repeated edge
        ([(0, 0)], []),  # self-loop
        ([(0, 1), (2, 3)], [0, 1, 2, 3]),  # two-edge forest
        ([], [0]),  # leaves named with no edges
        ([], [-1]),  # negative ids are not bit positions
        ([(-1, 0), (0, 1)], [-1, 1]),
        ([(-5, 0)], [-5, 0]),
        ([(0, 1), (1, 2), (0, 2), (3, 4)], [3, 4]),  # right edge count, not connected
        ([(0, 1.0)], [0, 1.0]),  # ids that are no ints
        ([(0, 1)], [0, True]),
        ([(True, 0)], [True, 0]),
        ([("a", 0)], ["a", 0]),
    ])
    def test_rejects_malformed_input(self, edges, leaves):
        with pytest.raises(ValueError):
            leaf_paths(edges, leaves)

    @given(st.integers(2, 120), st.integers(0, 50_000))
    @settings(max_examples=120, deadline=None)
    def test_random_trees_give_exact_pairing(self, n, seed):
        edges, leaves = random_subcubic_tree(n, seed)
        out = leaf_paths(edges, leaves)
        assert len(out) == len(leaves) // 2
        used = set()
        for p in out:
            assert p[0] in leaves and p[-1] in leaves
            assert not (set(p) & used)
            used.update(p)
            edge_set = {(min(u, v), max(u, v)) for u, v in zip(p, p[1:])}
            assert edge_set <= {(min(u, v), max(u, v)) for u, v in edges}


class TestHubTreeExtraction:
    """extract_frame_paths pairs the leaves of a frame's hub tree (F, T, leaves, hubs)."""

    def test_bare_path_hub_tree(self):
        fr = init_frame(path_graph(4), {0, 3}, 3)
        assert extract_frame_paths(fr) == [(0, 1, 2, 3)]

    def test_double_spider_legs(self):
        g, a = double_pendant_instance()
        fr = build_maximal_frame(g, a, 3)
        paths = extract_frame_paths(fr)
        assert paths == [
            (0, 1, 2, 3, 4, 17, 16, 15, 14, 13),
            (12, 11, 10, 9, 8, 22, 21, 20, 19, 18),
        ]
        assert anti_complete(g, paths[0], paths[1])

    def test_chord_rerouting(self):
        # double spider with hubs joined by a length-3 path and one legal
        # chord (2,5) near hub 0; re-routing must shortcut across it
        tree = [
            (0, 14), (14, 15), (15, 1),
            (0, 2), (2, 3), (3, 4),
            (0, 5), (5, 6), (6, 7),
            (1, 8), (8, 9), (9, 10),
            (1, 11), (11, 12), (12, 13),
        ]
        g = Graph(16, tree + [(2, 5)])
        fr = Frame(g, frozenset({4, 7, 10, 13}), frozenset((min(u, v), max(u, v)) for u, v in tree), 3)
        assert fr.hubs == to_mask({0, 1})
        assert validate_frame(fr) == []
        paths = extract_frame_paths(fr)
        assert paths == [(4, 3, 2, 5, 6, 7), (10, 9, 8, 1, 11, 12, 13)]
        for p in paths:
            assert is_induced_path(g, p)
            assert len(p) - 1 >= 3
        assert anti_complete(g, paths[0], paths[1])

    def test_pairs_joined_by_an_edge_break_the_contract(self, monkeypatch):
        # The spine and a leg are disjoint, but leg vertex 17 is adjacent to
        # spine vertex 4, so the pair must fail as touching.
        g, a = double_pendant_instance()
        fr = build_maximal_frame(g, a, 3)
        pairs = [tuple(range(13)), (13, 14, 15, 16, 17)]
        monkeypatch.setattr(apaths.frame, "_pair_leaves", lambda tree, leaf_mask: pairs)
        with pytest.raises(FrameInvariantError) as err:
            extract_frame_paths(fr)
        assert [v.witness for v in err.value.violations if v.axiom == "pairs.anti_complete"] == [[[0, 1]]]

    @pytest.mark.parametrize(
        "pairs, failed",
        [
            # 0..2 is too short and ends on 2, no leaf.
            ([(0, 1, 2)], {"path[0].endpoints_in_terminals": (0, 2), "path[0].length": 2}),
            # 0..5 is long enough but ends on 5, no leaf; 12..18's leg ends
            # on the leaf 18 and is fine, but its 8 is 3 away from 5, so
            # the pair does not touch.
            ([(0, 1, 2, 3, 4, 5), (12, 11, 10, 9, 8, 22, 21, 20, 19, 18)], {"path[0].endpoints_in_terminals": (0, 5)}),
        ],
    )
    def test_an_extracted_path_that_fails_its_checks_breaks_the_contract(self, monkeypatch, pairs, failed):
        # Each failed check of graph._packing_checks is one violation, named
        # as the check, with its witness, in the checks' order.
        g, a = double_pendant_instance()
        fr = build_maximal_frame(g, a, 3)
        monkeypatch.setattr(apaths.frame, "_pair_leaves", lambda tree, leaf_mask: pairs)
        with pytest.raises(FrameInvariantError) as err:
            extract_frame_paths(fr)
        assert {v.axiom: v.witness for v in err.value.violations} == failed
        assert [v.axiom for v in err.value.violations] == list(failed)

    def test_a_chorded_extracted_path_breaks_the_contract(self, monkeypatch):
        # Re-routing makes every path induced, so a chorded tree path
        # reaches the check only when it is handed on as it is: here the
        # leg 4..7 through hub 0, with the chord (2, 5).
        tree = [(0, 1), (0, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 7), (1, 8), (8, 9), (9, 10)]
        g = Graph(11, tree + [(2, 5)])
        fr = Frame(g, frozenset({4, 7, 10}), frozenset(tree), 3)
        assert validate_frame(fr) == []
        chorded = (4, 3, 2, 0, 5, 6, 7)
        monkeypatch.setattr(apaths.frame, "_pair_leaves", lambda tree, leaf_mask: [chorded])
        monkeypatch.setattr(apaths.frame, "walk_back", lambda adj, layers, end: chorded)
        with pytest.raises(FrameInvariantError) as err:
            extract_frame_paths(fr)
        assert [(v.axiom, v.witness) for v in err.value.violations] == [("path[0].induced", chorded)]

    def test_a_checked_frame_is_paired_on_its_own_masks(self, monkeypatch):
        # A frame that build_maximal_frame returns is paired on its own tree
        # masks, with no second tree check; the same frame built from its
        # fields is validated in full once, then trusted.
        g, a = double_pendant_instance()
        built = build_maximal_frame(g, a, 3)
        fresh = Frame(g, a, built.tree_edges, 3)
        names = ("validate_frame", "_check_spanning_subcubic_tree", "_tree_masks")
        spies = [mock.Mock(wraps=getattr(apaths.frame, name)) for name in names]
        for name, spy in zip(names, spies):
            monkeypatch.setattr(apaths.frame, name, spy)
        paths = extract_frame_paths(built)
        assert [spy.call_count for spy in spies] == [0, 0, 0]
        assert extract_frame_paths(fresh) == extract_frame_paths(fresh) == paths
        assert [spy.call_count for spy in spies] == [1, 1, 1]

    def test_validation_failure_raises(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        fr = Frame(g, frozenset({0, 3}), frozenset({(0, 1), (1, 2), (2, 3)}), 1)
        with pytest.raises(FrameInvariantError):
            extract_frame_paths(fr)  # the chord (0,3) violates A3/A8
