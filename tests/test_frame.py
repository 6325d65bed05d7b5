import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from apaths import (
    Frame,
    FrameInvariantError,
    Graph,
    anti_complete,
    build_maximal_frame,
    dist,
    extend_frame,
    extract_frame_paths,
    find_extension,
    init_frame,
    is_induced_path,
    leaf_paths,
    random_subcubic_tree,
    subdivided_complete_instance,
    validate_frame,
)


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
        assert fr.a_f == frozenset({0, 6})
        assert fr.hubs == frozenset()
        assert fr.f_vertices == frozenset(range(7))
        assert validate_frame(fr) == []

    def test_no_apath_gives_none(self):
        assert init_frame(Graph(3, []), {0, 1}, 1) is None

    def test_subdivided_k3(self):
        g, a = subdivided_complete_instance(2, 1)
        fr = init_frame(g, a, 1)
        assert fr is not None
        assert fr.f_vertices == frozenset({0, 3, 4, 1})
        assert fr.a_f == frozenset({0, 1})


class TestValidateFrame:
    def test_truncated_y_names_a5(self):
        g = path_graph(7)
        fr = init_frame(g, {0, 6}, 3)
        broken = Frame(
            host=fr.host, f_vertices=fr.f_vertices, tree_edges=fr.tree_edges,
            a_f=fr.a_f, hubs=fr.hubs, y=fr.y - {max(fr.y)},
            y_tilde=fr.y_tilde, a_bar=fr.a_bar, ell=fr.ell,
        )
        axioms = {v.axiom for v in validate_frame(broken)}
        assert "A5" in axioms

    def test_degree_four_tree_names_a2(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        fr = Frame(
            host=g, f_vertices=frozenset(range(5)),
            tree_edges=frozenset({(0, 1), (0, 2), (0, 3), (0, 4)}),
            a_f=frozenset({1, 2, 3, 4}), hubs=frozenset(), y=frozenset(range(5)),
            y_tilde=frozenset(), a_bar=frozenset(), ell=1,
        )
        axioms = {v.axiom for v in validate_frame(fr)}
        assert "A2" in axioms

    def test_overlapping_terminal_split_names_a7(self):
        g = path_graph(7)
        fr = init_frame(g, {0, 6}, 3)
        broken = Frame(
            host=fr.host, f_vertices=fr.f_vertices, tree_edges=fr.tree_edges,
            a_f=fr.a_f, hubs=fr.hubs, y=fr.y, y_tilde=fr.y_tilde,
            a_bar=fr.a_bar | {0}, ell=fr.ell,
        )
        axioms = {v.axiom for v in validate_frame(broken)}
        assert "A7" in axioms


class TestFindExtension:
    def test_no_unprocessed_terminals(self):
        g = path_graph(7)
        fr = init_frame(g, {0, 6}, 3)
        assert find_extension(g, {0, 6}, fr) is None

    def test_pendant_attachment(self):
        g, a = pendant_instance()
        fr = init_frame(g, a, 3)
        assert fr.a_f == frozenset({0, 8})
        assert find_extension(g, a, fr) == (9, 10, 11, 12, 13, 4)

    def test_terminal_inside_y_tilde_blocked(self):
        # terminal adjacent to the frame near a leaf falls inside y_tilde
        g = Graph(4, [(0, 1), (1, 2), (3, 1)])
        a = {0, 2, 3}
        fr = init_frame(g, a, 1)
        assert fr is not None and 3 in fr.y_tilde
        assert find_extension(g, a, fr) is None

    def test_nearby_terminal_absorbed_by_init_minimality(self):
        # a terminal two steps from mid-path cannot become a short extension:
        # the shortest induced A-path already runs through it, so init takes
        # that route and the leftover terminal ends up separated
        g = Graph(11, [(i, i + 1) for i in range(8)] + [(9, 10), (10, 4)])
        a = frozenset({0, 8, 9})
        fr = init_frame(g, a, 3)
        assert 9 in fr.a_f
        assert fr.f_vertices == frozenset({0, 1, 2, 3, 4, 9, 10})
        assert find_extension(g, a, fr) is None


class TestExtendFrame:
    def test_pendant_adds_leaf_and_hub(self):
        g, a = pendant_instance()
        fr = init_frame(g, a, 3)
        ext = find_extension(g, a, fr)
        fr2 = extend_frame(g, a, fr, ext)
        assert fr2.a_f == frozenset({0, 8, 9})
        assert fr2.hubs == frozenset({4})
        assert validate_frame(fr2) == []
        # the attachment vertex had tree-degree 2 and now has 3
        deg = sum(1 for u, v in fr2.tree_edges if 4 in (u, v))
        assert deg == 3

    def test_double_extension_hubs_far_apart(self):
        g, a = double_pendant_instance()
        fr = init_frame(g, a, 3)
        assert fr.a_f == frozenset({0, 13})
        e1 = find_extension(g, a, fr)
        assert e1 == (12, 11, 10, 9, 8, 7, 6, 5, 4)
        fr = extend_frame(g, a, fr, e1)
        e2 = find_extension(g, a, fr)
        assert e2 == (18, 19, 20, 21, 22, 8)
        fr = extend_frame(g, a, fr, e2)
        assert fr.a_f == frozenset({0, 12, 13, 18})
        assert fr.hubs == frozenset({4, 8})
        assert dist(g, {4}, {8}) >= 3
        assert find_extension(g, a, fr) is None

    def test_leaf_count_grows_by_one(self):
        g, a = double_pendant_instance()
        fr = init_frame(g, a, 3)
        counts = [fr.leaf_count]
        while (ext := find_extension(g, a, fr)) is not None:
            fr = extend_frame(g, a, fr, ext)
            counts.append(fr.leaf_count)
        assert counts == [2, 3, 4]

    def test_foreign_host_raises(self):
        g, a = pendant_instance()
        fr = init_frame(g, a, 3)
        ext = find_extension(g, a, fr)
        other = Graph(g.n, list(g.edges()) + [(0, 2)])
        with pytest.raises(FrameInvariantError, match="host"):
            extend_frame(other, a, fr, ext)
        with pytest.raises(FrameInvariantError, match="terminal set"):
            extend_frame(g, a - {9}, fr, ext)

    def test_invariants_survive_python_O(self):
        # python -O strips assert statements; the frame's invariants must
        # still raise.
        code = (
            "from apaths import FrameInvariantError, Graph, PowerGraphMap, extend_frame, find_extension,"
            " init_frame, lift_path\n"
            "from test_frame import pendant_instance\n"
            "assert False, 'asserts are live, so this is not running under -O'\n"
            "g, a = pendant_instance()\n"
            "fr = init_frame(g, a, 3)\n"
            "ext = find_extension(g, a, fr)\n"
            "try:\n"
            "    extend_frame(Graph(g.n, list(g.edges()) + [(0, 2)]), a, fr, ext)\n"
            "except FrameInvariantError as exc:\n"
            "    print('raised:', exc)\n"
            "base = Graph(3, [(0, 1), (1, 2)])\n"
            "forged = PowerGraphMap(base, 2, Graph(3, [(0, 2)]), {(0, 2): (0, 1)})\n"
            "try:\n"
            "    lift_path(forged, (0, 2))\n"
            "except ValueError as exc:\n"
            "    print('raised:', exc)\n"
        )
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
        done = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "raised: extension must happen in the frame's host graph",
            "raised: the witnesses of (0, 2) do not connect 0 to 2",
        ]

    def test_claims_hold_at_every_step(self):
        g, a = double_pendant_instance()
        seen = []
        build_maximal_frame(g, a, 3, observer=seen.append)
        for fr in seen:
            assert len(fr.hubs) == fr.leaf_count - 2
            assert len(fr.y) <= (4 * fr.ell_hat + 14) * fr.leaf_count


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

    def test_rejects_supercubic(self):
        with pytest.raises(ValueError):
            leaf_paths([(0, 1), (0, 2), (0, 3), (0, 4)], [1, 2, 3, 4])

    def test_rejects_cycle(self):
        with pytest.raises(ValueError):
            leaf_paths([(0, 1), (1, 2), (2, 0)], [])

    def test_rejects_wrong_leaves(self):
        with pytest.raises(ValueError):
            leaf_paths([(0, 1), (1, 2)], [0, 1])

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
        fr = Frame(
            host=g, f_vertices=frozenset(range(16)),
            tree_edges=frozenset((min(u, v), max(u, v)) for u, v in tree),
            a_f=frozenset({4, 7, 10, 13}), hubs=frozenset({0, 1}),
            y=frozenset(range(16)), y_tilde=frozenset(), a_bar=frozenset(), ell=3,
        )
        assert validate_frame(fr) == []
        paths = extract_frame_paths(fr)
        assert paths == [(4, 3, 2, 5, 6, 7), (10, 9, 8, 1, 11, 12, 13)]
        for p in paths:
            assert is_induced_path(g, p)
            assert len(p) - 1 >= 3
        assert anti_complete(g, paths[0], paths[1])

    def test_validation_failure_raises(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        fr = Frame(
            host=g, f_vertices=frozenset(range(4)),
            tree_edges=frozenset({(0, 1), (1, 2), (2, 3)}),
            a_f=frozenset({0, 3}), hubs=frozenset(), y=frozenset(range(4)),
            y_tilde=frozenset(), a_bar=frozenset(), ell=1,
        )
        with pytest.raises(FrameInvariantError):
            extract_frame_paths(fr)  # the chord (0,3) violates A3/A8
