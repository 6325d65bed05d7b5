"""Differential tests: the bitmask frame checks against the frozen set-based
reference in reference_frame.py.

Both run on every frame a construction passes through, on caterpillars and
on subdivided random graphs, and on copies of those frames broken one axiom
at a time. They must return the same (y, y_tilde), the same violation lists
and the same extension-path verdicts, or raise the same error. Path
extraction must return the reference's hub-tree paths on every frame, and
reject every broken frame the hub-tree checks H1..H7 reject.
"""

import random
from collections import Counter
from dataclasses import replace

import pytest

from apaths import (
    Frame,
    Graph,
    SolveParams,
    caterpillar_instance,
    extract_frame_paths,
    find_extension,
    random_instance,
    solve,
)
from apaths.frame import _check_extension_path, _regions, check_frame_claims, validate_frame
from reference_frame import (
    reference_check_extension_path,
    reference_check_frame_claims,
    reference_extract_frame_paths,
    reference_regions,
    reference_validate_frame,
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


def observed_frames():
    """(terminals, frame) for every frame solve passes through."""
    runs = [(caterpillar_instance(legs, seed), (3,)) for legs in (3, 4, 6) for seed in (0, 1)]
    runs += [(subdivided_random_instance(10, 0.3, seed), (2, 3)) for seed in range(60)]
    out = []
    for (g, a), ells in runs:
        for ell in ells:
            for k in (2, 3):
                frames = []
                solve(g, a, SolveParams(k, ell), frame_observer=frames.append)
                out += [(a, fr) for fr in frames]
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
        g = fr.host
        centers = fr.a_f | fr.hubs
        assert _regions(g, fr.f_vertices, centers, fr.ell_hat) == (fr.y, fr.y_tilde)
        assert reference_regions(g, fr.f_vertices, centers, fr.ell_hat) == (fr.y, fr.y_tilde)
        assert validate_frame(fr) == reference_validate_frame(fr) == []
        assert check_frame_claims(fr) == reference_check_frame_claims(fr) == []
        p = find_extension(g, a, fr)
        if p is not None:
            assert reference_check_extension_path(g, fr, p) is None


def _tree_far_pair(fr: Frame) -> tuple[int, int] | None:
    """The first pair of frame vertices, lowest ids first, more than 4 apart
    in the tree: no hub's tree ball of radius 2 holds both."""
    tree: dict[int, list[int]] = {}
    for u, v in fr.tree_edges:
        tree.setdefault(u, []).append(v)
        tree.setdefault(v, []).append(u)
    for u in sorted(fr.f_vertices):
        level = {u: 0}
        frontier = [u]
        for d in range(1, 5):
            frontier = [w for v in frontier for w in tree.get(v, ()) if w not in level]
            level.update((w, d) for w in frontier)
        far = sorted(fr.f_vertices - level.keys())
        if far:
            return u, far[0]
    return None


def _with_edges(fr: Frame, extra: list[tuple[int, int]], new_vertices: int = 0) -> Frame:
    g = fr.host
    return replace(fr, host=Graph(g.n + new_vertices, list(g.edges()) + extra))


def mutations(fr: Frame) -> list[tuple[str, Frame]]:
    """Copies of fr, each broken in one axiom (or size claim)."""
    g, f = fr.host, fr.f_vertices
    leaf = min(fr.a_f)
    inner = sorted(f - fr.a_f - fr.hubs)
    out = [
        ("A1 vertex outside host", replace(fr, f_vertices=f | {g.n})),
        ("A2 tree edge dropped", replace(fr, tree_edges=fr.tree_edges - {min(fr.tree_edges)})),
        ("A3 leaf moved to a_bar", replace(fr, a_f=fr.a_f - {leaf}, a_bar=fr.a_bar | {leaf})),
        ("A3 leaf id out of range", replace(fr, a_f=fr.a_f | {-1})),
        ("A5 y vertex dropped", replace(fr, y=fr.y - {max(fr.y)})),
        ("A7 leaf in a_bar", replace(fr, a_bar=fr.a_bar | {leaf})),
        ("A10 ell beyond any distance in F", replace(fr, ell=len(f) + 1)),
        ("A6 y id out of range", replace(fr, y=fr.y | {g.n + 3})),
        ("A6 y_tilde id out of range", replace(fr, y_tilde=fr.y_tilde | {g.n + 3})),
        ("A10 leaves joined", _with_edges(fr, [tuple(sorted(fr.a_f))[:2]])),
    ]
    if inner:
        out.append(("A3 inner vertex as leaf", replace(fr, a_f=fr.a_f | {inner[0]})))
        if inner[0] not in fr.y:
            out.append(("A5 vertex added to y", replace(fr, y=fr.y | {inner[0]})))
    pair = _tree_far_pair(fr)
    if pair is not None:
        out.append(("A2 tree edge outside host", replace(fr, tree_edges=fr.tree_edges | {pair})))
        out.append(("A8 non-tree frame edge", _with_edges(fr, [pair])))
        out.append(("A9 outside vertex sees far frame", _with_edges(fr, [(pair[0], g.n), (pair[1], g.n)], 1)))
    if fr.hubs:
        hub = min(fr.hubs)
        wrong = min(v for e in fr.tree_edges if hub in e for v in e if v != hub)
        out.append(("A4 hub mislabelled", replace(fr, hubs=fr.hubs - {hub} | {wrong})))
        out.append(("SizeX hub dropped", replace(fr, hubs=fr.hubs - {hub})))
    if len(fr.hubs) >= 2:
        out.append(("A11 hubs joined", _with_edges(fr, [tuple(sorted(fr.hubs))[:2]])))
    if f - fr.y:
        # a path of two edges outside F from a leaf to a frame vertex beyond y:
        # a ball measured in the host instead of in F would take it
        shortcut = [(leaf, g.n), (min(f - fr.y), g.n)]
        out.append(("A6 outside shortcut from a leaf", _with_edges(fr, shortcut, 1)))
    if fr.y_tilde:
        out.append(("A6 y_tilde vertex dropped", replace(fr, y_tilde=fr.y_tilde - {min(fr.y_tilde)})))
    outside = sorted(set(range(g.n)) - f - fr.y_tilde)
    if outside:
        out.append(("A6/Ytilde far vertex in y_tilde", replace(fr, y_tilde=fr.y_tilde | {outside[-1]})))
    return out


def test_star_with_a_degree_four_center():
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    fr = Frame(
        host=g, f_vertices=frozenset(range(5)),
        tree_edges=frozenset({(0, 1), (0, 2), (0, 3), (0, 4)}),
        a_f=frozenset({1, 2, 3, 4}), hubs=frozenset(), y=frozenset(range(5)),
        y_tilde=frozenset(), a_bar=frozenset(), ell=1,
    )
    assert_same_violations(outcome(validate_frame, fr), outcome(reference_validate_frame, fr))


@pytest.mark.parametrize("index", range(0, len(FRAMES), 7))
def test_mutated_frames_agree(index):
    _, fr = FRAMES[index]
    for name, broken in mutations(fr):
        new = outcome(validate_frame, broken)
        assert_same_violations(new, outcome(reference_validate_frame, broken))
        assert new != ("returned", []), name
        assert outcome(check_frame_claims, broken) == outcome(reference_check_frame_claims, broken)
        centers = broken.a_f | broken.hubs
        # _regions is only asked about centers inside F inside the host
        if centers <= broken.f_vertices and max(broken.f_vertices) < broken.host.n:
            args = (broken.host, broken.f_vertices, centers, broken.ell_hat)
            assert _regions(*args) == reference_regions(*args)


def test_every_mutation_is_exercised():
    names = {name for _, fr in FRAMES[::7] for name, _ in mutations(fr)}
    assert len(names) == 21, sorted(names)


def path_mutations(g: Graph, fr: Frame, p):
    """(host, frame, path) triples, each breaking one extension property."""
    yield g, fr, p[1:]  # P1: no longer starts at an unprocessed terminal
    yield g, fr, p[::-1]  # P1/P2
    into = [w for w in g.neighbors(p[-1]) if w in fr.f_vertices]
    yield g, fr, p + (into[0],)  # P2/P3: runs on inside the frame
    yield g, replace(fr, y_tilde=fr.y_tilde | {p[1]}), p  # P5
    yield g, replace(fr, hubs=fr.hubs | {p[-1]}), p  # P-hub
    n = g.n
    if len(p) >= 4:
        # P6: an outside vertex sees p at two far-apart places
        h = Graph(n + 1, list(g.edges()) + [(p[0], n), (p[3], n)])
        yield h, replace(fr, host=h), p
    # P7: an outside vertex sees both the start of p and the frame
    far = max(fr.f_vertices - fr.y - fr.hubs - fr.a_f, default=None)
    if far is not None:
        h = Graph(n + 1, list(g.edges()) + [(p[0], n), (far, n)])
        yield h, replace(fr, host=h), p


def test_extension_path_verdicts_agree():
    checked = 0
    for a, fr in FRAMES:
        p = find_extension(fr.host, a, fr)
        if p is None:
            continue
        for h, broken, q in path_mutations(fr.host, fr, p):
            new = outcome(_check_extension_path, h, broken, q)
            assert new == outcome(reference_check_extension_path, h, broken, q)
            assert new[0] == "raised", q
            checked += 1
    assert checked > 100


def test_extracted_paths_agree():
    for _, fr in FRAMES:
        assert extract_frame_paths(fr) == reference_extract_frame_paths(fr)


def test_extraction_rejects_what_the_hub_tree_checks_reject():
    # H1..H7 restate axioms of the frame, so every broken frame the reference
    # rejects must fail the frame checks that extraction now starts with.
    rejected = set()
    for _, fr in FRAMES[::7]:
        for name, broken in mutations(fr):
            new = outcome(extract_frame_paths, broken)
            old = outcome(reference_extract_frame_paths, broken)
            if old[0] == "raised":
                rejected.add(name)
                assert new[:2] == ("raised", "FrameInvariantError"), name
            elif new[0] == "returned":
                assert new == old, name
    assert len(rejected) >= 12, sorted(rejected)
