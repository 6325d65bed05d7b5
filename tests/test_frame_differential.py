"""Differential tests: the bitmask frame checks against the frozen set-based
reference in reference_frame.py.

Both run on every frame a construction passes through: on caterpillars, on
caterpillars with a triangle at each leg's foot (whose leaf-to-leaf tree
paths can have a chord), on subdivided random graphs, and on copies of those
frames broken one axiom at a time through the host, the terminals, the tree
or ell. The package reads a Frame's masks and the reference reads its set
view. Each mask's members must be the set view's set, the set view's
(y, y_tilde) must be the reference's regions, the rim must be N(F) - F
taken on sets, and both must return the same
violation lists and the same extension-path verdicts, or raise the same
error. The one exception: on a tree id outside the host, check_frame_claims
returns the A1 violations, which the reference does not look for. The
reference still checks the axioms that are now definitions (A4..A7 and the
first clause of A3) against the derived sets, and must find them hold on
every frame. Leaf pairing must return the reference's pairs on random
subcubic trees, on a tree deeper than the recursion limit and on every
frame's tree. Path extraction must return the
reference's hub-tree paths on every frame, and reject every broken frame the
hub-tree checks H1..H7 reject. find_extension must return the neighbour-list
BFS's path on every observed frame; on frames of random instances, where
ties may walk back another way, it must agree on None-ness and length. On
every step of the observed frames, of chorded caterpillars and of
subdivided random subcubic trees, it must return the path of the frozen
mask search from all of Abar, or None with it."""

import random
import sys
from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import apaths.frame
from apaths import (
    Frame,
    Graph,
    SolveParams,
    build_maximal_frame,
    caterpillar_instance,
    extend_frame,
    extract_frame_paths,
    find_extension,
    leaf_paths,
    random_instance,
    random_subcubic_tree,
    solve,
)
from apaths.frame import _extension_violations, _passed, check_frame_claims, validate_frame
from apaths.graph import mask_members, path_mask
from reference_frame import (
    reference_check_extension_path,
    reference_check_frame_claims,
    reference_extract_frame_paths,
    reference_find_extension,
    reference_leaf_paths,
    reference_mask_find_extension,
    reference_regions,
    reference_validate_frame,
    set_view,
)


def subdivided_random_instance(n: int, edge_prob: float, seed: int):
    """A random graph on n branch vertices with every edge replaced by a path
    of 3-7 edges, and about half of the branch vertices as terminals."""
    rng = random.Random(seed)
    base, _ = random_instance(n, edge_prob, 0.0, seed)
    edges = []
    nxt = n
    for u, v in base.edges():
        prev = u
        for _ in range(rng.randint(3, 7) - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, v))
    return Graph(nxt, edges), frozenset(v for v in range(n) if rng.random() < 0.5)


def chorded_caterpillar_instance(legs: int, seed: int):
    """caterpillar_instance with a triangle at each leg's foot: the leg's
    first vertex is also joined to the next spine vertex (the previous one
    for the last leg). A tree path through a hub at a foot then has a chord,
    which extraction must re-route around."""
    g, tips = caterpillar_instance(legs, seed)
    spine_end = next(v for v in range(g.n) if not g.has_edge(v, v + 1))
    edges = list(g.edges())
    for u, v in g.edges():
        if u <= spine_end < v:  # v is a leg's first vertex, u its attachment
            edges.append((u + 1 if u < spine_end else u - 1, v))
    return Graph(g.n, edges), tips


def subdivided_tree_instance(nodes: int, ell: int, chords: int, seed: int):
    """random_subcubic_tree(nodes, seed) with each edge subdivided into ell
    or ell + 1 edges and its leaves as the terminals, plus up to chords
    random host edges between non-adjacent vertices."""
    rng = random.Random(seed)
    tree, leaves = random_subcubic_tree(nodes, seed)
    edges, nxt = set(), nodes
    for u, v in tree:
        prev = u
        for _ in range(rng.randint(ell, ell + 1) - 1):
            edges.add((prev, nxt))
            prev, nxt = nxt, nxt + 1
        edges.add((min(prev, v), max(prev, v)))
    for _ in range(chords):
        u, v = sorted(rng.sample(range(nxt), 2))
        if (u, v) not in edges:
            edges.add((u, v))
    return Graph(nxt, edges), leaves


def maximal_frames(g: Graph, a, k: int, ell: int) -> list[Frame]:
    """Every frame of the maximal construction at each level of solve(g, a,
    (k, ell)). solve stops a packing level's frame at 2k leaves, so its
    observer sees a prefix of that level's construction; each level is
    rerun from its init frame, the observed frame with two leaves, to
    maximality."""
    seen = []
    solve(g, a, SolveParams(k, ell), frame_observer=seen.append)
    frames = []
    for init in seen:
        if init.leaf_count == 2:
            build_maximal_frame(init.host, init.terminals, init.ell, observer=frames.append)
    return frames


def observed_frames():
    """(terminals, frame) for every frame of the maximal constructions that
    solve's levels start."""
    runs = [(caterpillar_instance(legs, seed), (3,)) for legs in (3, 4, 6) for seed in (0, 1)]
    runs += [(subdivided_random_instance(10, 0.3, seed), (2, 3)) for seed in range(60)]
    runs += [(chorded_caterpillar_instance(legs, seed), (3,)) for legs in (3, 4, 6) for seed in (0, 1)]
    out = []
    for (g, a), ells in runs:
        for ell in ells:
            for k in (2, 3):
                out += [(a, fr) for fr in maximal_frames(g, a, k, ell)]
    return out


FRAMES = observed_frames()


def outcome(fn, *args):
    """fn's result, or the type and text of what it raised."""
    try:
        return "returned", fn(*args)
    except Exception as exc:  # compared as data: both sides must raise alike
        return "raised", type(exc).__name__, str(exc), getattr(exc, "violations", None)


def assert_same_violations(new, old):
    """Equal lists; as multisets where the reference listed violations in
    frozenset iteration order (the A2/H2 tree-degree check)."""
    if new[0] == "returned" and any("exceeds 3" in v.message for v in old[1]):
        assert old[0] == "returned" and Counter(new[1]) == Counter(old[1])
    else:
        assert new == old


def test_frames_cover_extension_steps():
    assert len(FRAMES) > 200
    assert sum(1 for _, fr in FRAMES if fr.hubs) > 40


def test_observed_frames_agree():
    for a, fr in FRAMES:
        view = set_view(fr)
        assert fr.terminals <= a
        assert_derivation_agrees(fr)
        assert validate_frame(fr) == reference_validate_frame(view) == []
        assert check_frame_claims(fr) == reference_check_frame_claims(view) == []
        p = find_extension(fr)
        if p is not None:
            assert reference_check_extension_path(fr.host, view, p) is None


def _tree_far_pair(fr: Frame, among: frozenset[int]) -> tuple[int, int] | None:
    """The first pair of vertices of among, lowest ids first, more than 4
    apart in the tree: no hub's tree ball of radius 2 holds both."""
    tree: dict[int, list[int]] = {}
    for u, v in fr.tree_edges:
        tree.setdefault(u, []).append(v)
        tree.setdefault(v, []).append(u)
    for u in sorted(among):
        level = {u: 0}
        frontier = [u]
        for d in range(1, 5):
            frontier = [w for v in frontier for w in tree.get(v, ()) if w not in level]
            level.update((w, d) for w in frontier)
        far = sorted(among - level.keys())
        if far:
            return u, far[0]
    return None


def _with_edges(fr: Frame, extra: list[tuple[int, int]], new_vertices: int = 0) -> Frame:
    g = fr.host
    return replace(fr, host=Graph(g.n + new_vertices, list(g.edges()) + extra))


def mutations(fr: Frame) -> list[tuple[str, Frame]]:
    """Copies of fr, each broken in one axiom."""
    g, view = fr.host, set_view(fr)
    f = view.f_vertices
    leaf = min(view.a_f)
    inner = sorted(f - view.a_f - view.hubs)
    out = [
        ("A1 tree vertex outside host", replace(fr, tree_edges=fr.tree_edges | {(leaf, g.n)})),
        ("A1 negative tree vertex", replace(fr, tree_edges=fr.tree_edges | {(-1, leaf)})),
        ("A2 tree edge dropped", replace(fr, tree_edges=fr.tree_edges - {min(fr.tree_edges)})),
        ("A3 leaf no longer a terminal", replace(fr, terminals=fr.terminals - {leaf})),
        ("A10 ell beyond any distance in F", replace(fr, ell=len(f) + 1)),
        ("A10 leaves joined", _with_edges(fr, [tuple(sorted(view.a_f))[:2]])),
    ]
    if inner:
        out.append(("A3 inner vertex as terminal", replace(fr, terminals=fr.terminals | {inner[0]})))
    pair = _tree_far_pair(fr, f)
    if pair is not None:
        out.append(("A2 tree edge outside host", replace(fr, tree_edges=fr.tree_edges | {pair})))
        out.append(("A8 non-tree frame edge", _with_edges(fr, [pair])))
    # An outside vertex next to y lies in y_tilde, which A9 exempts, so
    # the far pair it sees is taken from F - y.
    pair = _tree_far_pair(fr, f - view.y)
    if pair is not None:
        out.append(("A9 outside vertex sees far frame", _with_edges(fr, [(pair[0], g.n), (pair[1], g.n)], 1)))
    if len(view.hubs) >= 2:
        out.append(("A11 hubs joined", _with_edges(fr, [tuple(sorted(view.hubs))[:2]])))
    return out


def test_star_with_a_degree_four_center():
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    fr = Frame(g, frozenset({1, 2, 3, 4}), frozenset({(0, 1), (0, 2), (0, 3), (0, 4)}), 1)
    assert_same_violations(outcome(validate_frame, fr), outcome(reference_validate_frame, set_view(fr)))


# Each mask of a Frame and the set of its set view that it replaces.
DERIVED = [("f", "f_vertices"), ("a_f", "a_f"), ("a_bar", "a_bar"),
           ("hubs", "hubs"), ("y", "y"), ("y_tilde", "y_tilde")]


def assert_derivation_agrees(fr: Frame) -> None:
    """Each mask's members are the set view's set, and the set view's
    (y, y_tilde) are the reference's regions and the rim is N(F) - F on
    sets, on any frame whose F lies in its host. A negative tree id is not a bit position: F cannot be derived."""
    view = set_view(fr)
    if min(view.f_vertices) < 0:
        with pytest.raises(ValueError, match="negative shift count"):
            fr.f
        return
    for mask, name in DERIVED:
        assert frozenset(mask_members(getattr(fr, mask))) == getattr(view, name), mask
    if max(view.f_vertices) < fr.host.n:
        args = (fr.host, view.f_vertices, view.a_f | view.hubs, fr.ell_hat)
        assert (view.y, view.y_tilde) == reference_regions(*args)
        rim = {w for v in view.f_vertices for w in fr.host.neighbors(v)} - view.f_vertices
        assert frozenset(mask_members(fr.rim)) == rim


@pytest.mark.parametrize("index", range(0, len(FRAMES), 7))
def test_mutated_frames_agree(index):
    _, fr = FRAMES[index]
    for name, broken in mutations(fr):
        view = set_view(broken)
        new = outcome(validate_frame, broken)
        assert_same_violations(new, outcome(reference_validate_frame, view))
        assert new != ("returned", []), name
        claims = outcome(check_frame_claims, broken)
        if name.startswith("A1 "):
            # A1 is checked first, on the raw ids: the claims come back as its violations.
            assert claims == new and {v.axiom for v in new[1]} == {"A1"}, name
        else:
            assert claims == outcome(reference_check_frame_claims, view), name
        assert_derivation_agrees(broken)


def test_every_mutation_is_exercised():
    names = {name for _, fr in FRAMES[::7] for name, _ in mutations(fr)}
    assert len(names) == 11, sorted(names)


def test_regions_are_measured_in_f():
    # A path of two edges outside F from a leaf to a frame vertex beyond y:
    # a ball measured in the host instead of in F would take that vertex into
    # y. The vertex joins y_tilde instead, and the frame stays valid.
    shortcuts = 0
    for _, fr in FRAMES[::7]:
        beyond = fr.f & ~fr.y
        if beyond:
            g = fr.host
            wider = _with_edges(fr, [(mask_members(fr.a_f)[0], g.n), (mask_members(beyond)[0], g.n)], 1)
            assert wider.y == fr.y and wider.y_tilde == fr.y_tilde | 1 << g.n
            assert_derivation_agrees(wider)
            assert validate_frame(wider) == reference_validate_frame(set_view(wider)) == []
            shortcuts += 1
    assert shortcuts > 10


def path_mutations(g: Graph, fr: Frame, p):
    """(host, frame, path) triples, each breaking one extension property."""
    yield g, fr, p[1:]  # P1: no longer starts at an unprocessed terminal
    yield g, fr, p[::-1]  # P1/P2
    into = [w for w in g.neighbors(p[-1]) if fr.f >> w & 1]
    yield g, fr, p + (into[0],)  # P2/P3: runs on inside the frame
    yield g, replace(fr, terminals=fr.terminals | {p[-1]}), p  # P-hub: p ends at a leaf
    n = g.n
    if len(p) >= 4:
        # P4/P5: p[1] joined to a leaf, so it lies in y_tilde
        h = Graph(n, list(g.edges()) + [(p[1], mask_members(fr.a_f)[0])])
        yield h, replace(fr, host=h), p
        # P6: an outside vertex sees p at two far-apart places
        h = Graph(n + 1, list(g.edges()) + [(p[0], n), (p[3], n)])
        yield h, replace(fr, host=h), p
    # P7: an outside vertex sees both the start of p and the frame
    far = mask_members(fr.f & ~(fr.y | fr.hubs | fr.a_f))
    if far:
        far = far[-1]
        h = Graph(n + 1, list(g.edges()) + [(p[0], n), (far, n)])
        yield h, replace(fr, host=h), p


def test_extension_path_verdicts_agree():
    checked = 0
    for a, fr in FRAMES:
        p = find_extension(fr)
        if p is None:
            continue
        for h, broken, q in path_mutations(fr.host, fr, p):
            # Marked as checked, so extend_frame goes straight to the path
            # checks, whatever the mutation did to the frame itself.
            new = outcome(extend_frame, _passed(broken, "path_mutations", []), q)
            assert new == outcome(reference_check_extension_path, h, set_view(broken), q)
            assert new[0] == "raised", q
            checked += 1
    assert checked > 100


def test_extension_paths_agree():
    for a, fr in FRAMES:
        assert find_extension(fr) == reference_find_extension(fr.host, a, set_view(fr))


def test_extension_search_from_the_rim_is_the_search_from_abar():
    # Every step of three families: the observed frames, chorded
    # caterpillars and subdivided random subcubic trees, with and without
    # chords. On every call the constructions make, find_extension returns
    # the path of one BFS from all of Abar, or None with it.
    real = apaths.frame.find_extension
    found = []

    def compared(fr):
        got = real(fr)
        assert got == reference_mask_find_extension(fr)
        found.append(got is not None)
        return got

    for _, fr in FRAMES:
        compared(fr)
    with mock.patch.object(apaths.frame, "find_extension", compared):
        for legs in range(3, 31):
            for seed in (0, 1):
                g, a = chorded_caterpillar_instance(legs, seed)
                maximal_frames(g, a, 2, 3)
        for seed in range(1500):
            ell = 1 + seed % 3
            g, a = subdivided_tree_instance(8 + seed % 25, ell, 2 * (seed % 2), seed)
            maximal_frames(g, a, 2 + seed % 3, ell)
    assert len(found) > 6500 and found.count(True) > 1500


@given(st.integers(6, 10), st.sampled_from([0.25, 0.4]), st.integers(0, 10**6), st.sampled_from([2, 3]))
@settings(max_examples=25, deadline=None)
def test_extension_paths_agree_in_length(n, p, seed, ell):
    g, a = subdivided_random_instance(n, p, seed)
    for fr in maximal_frames(g, a, 3, ell):
        got, want = find_extension(fr), reference_find_extension(fr.host, a, set_view(fr))
        assert (got is None) == (want is None)
        if got is not None:
            assert len(got) == len(want)
            on_got, on_want = path_mask(fr.host, got), path_mask(fr.host, want)
            assert _extension_violations(fr, got, on_got) == _extension_violations(fr, want, on_want) == []


@given(st.integers(2, 300), st.integers(0, 50_000))
@settings(max_examples=150, deadline=None)
def test_leaf_pairing_agrees_on_random_trees(n, seed):
    edges, leaves = random_subcubic_tree(n, seed)
    assert leaf_paths(edges, leaves) == reference_leaf_paths(edges, leaves)
    # The generator attaches each vertex to a lower id; shuffled ids vary the ties.
    ids = random.Random(seed).sample(range(2 * n), n)
    edges = [(ids[u], ids[v]) for u, v in edges]
    leaves = [ids[v] for v in leaves]
    assert leaf_paths(edges, leaves) == reference_leaf_paths(edges, leaves)


def test_leaf_pairing_agrees_on_a_deep_tree():
    # A 5,000-vertex spine with a 2-edge leg at every tenth vertex: 502 leaves,
    # depth far past the recursion limit, so the pairing pass must not recurse.
    n = 5000
    edges = [(v, v + 1) for v in range(n - 1)]
    legs = range(5, n, 10)
    for j, v in enumerate(legs):
        edges += [(v, n + 2 * j), (n + 2 * j, n + 2 * j + 1)]
    leaves = [0, n - 1] + [n + 2 * j + 1 for j in range(len(legs))]
    assert len(leaves) == 502 and n > sys.getrecursionlimit()
    assert leaf_paths(edges, leaves) == reference_leaf_paths(edges, leaves)


def test_leaf_pairing_agrees_on_frame_trees():
    for _, fr in FRAMES:
        leaves = mask_members(fr.a_f)
        assert leaf_paths(fr.tree_edges, leaves) == reference_leaf_paths(fr.tree_edges, leaves)


def test_extracted_paths_agree():
    for _, fr in FRAMES:
        assert extract_frame_paths(fr) == reference_extract_frame_paths(set_view(fr))


def test_extraction_rejects_what_the_hub_tree_checks_reject():
    # H1..H7 restate axioms of the frame, so every broken frame the reference
    # rejects must fail the frame checks that extraction now starts with.
    rejected = set()
    for _, fr in FRAMES[::7]:
        for name, broken in mutations(fr):
            new = outcome(extract_frame_paths, broken)
            old = outcome(reference_extract_frame_paths, set_view(broken))
            if old[0] == "raised":
                rejected.add(name)
                assert new[:2] == ("raised", "FrameInvariantError"), name
            elif new[0] == "returned":
                assert new == old, name
    assert len(rejected) >= 10, sorted(rejected)
