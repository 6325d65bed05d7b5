"""Differential tests of the local extension step: extend_frame on a checked
frame carries the old frame's masks forward and re-checks only what the
step can change, and both must agree with a fresh Frame on the same four
fields, derived and validated in full.

Every frame the construction passes through is compared mask by mask with
a fresh frame: the frames of test_frame_differential's runs, and those of
caterpillars shaped as the benchmark's (10 to 30 legs, vertex ids
shuffled). Mutated steps add one host edge at a new vertex of an extension
path, toward a far frame vertex, a leaf or an outside vertex that sees the
far frame. A case is kept where the frame before the step still validates
in full and the path still has P1..P7 and P-hub; there the local step must
raise exactly when the full validator rejects the grown frame, with the
same violations, and must not call the full validator at all.

Such a kept step grows a valid frame here: with P1..P7 on a valid frame,
the axioms the step can break come down to A3 at a path of length 1 (a new
leaf next to two frame vertices) and the size claims, and these runs
attach no path shorter than 7. tests/test_frame.py has the length-1 case,
where the local step raises."""

import random

import pytest

import apaths.frame
from apaths import Frame, Graph, build_maximal_frame, caterpillar_instance, extend_frame, find_extension, init_frame
from apaths.frame import _assert_valid, _extension_violations, _path_edges, check_frame_claims, validate_frame
from apaths.graph import mask_ball, mask_members, mask_neighbors, path_mask, to_mask
from test_frame_differential import FRAMES, outcome
from test_solver import PATH_MASK_MODULES, calls_of

# The masks a step carries forward, as Frame's cached properties.
CARRIED = ("f", "a", "a_f", "a_bar", "hubs", "tree", "y", "y_tilde", "rim")


def shuffled_caterpillar(legs: int, seed: int):
    """caterpillar_instance with its vertex ids permuted, as the benchmark's
    caterpillars are."""
    g, tips = caterpillar_instance(legs, seed)
    perm = random.Random(seed).sample(range(g.n), g.n)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]), frozenset(perm[t] for t in tips)


def fresh(fr: Frame, host: Graph | None = None, tree_edges=None) -> Frame:
    """A frame on fr's fields, or on the given host and tree, with nothing carried."""
    host = fr.host if host is None else host
    return Frame(host, fr.terminals, fr.tree_edges if tree_edges is None else tree_edges, fr.ell)


def assert_carried_masks_agree(fr: Frame) -> None:
    """fr's masks are those its fields derive, and the fields pass the full
    validator."""
    derived = fresh(fr)
    for name in CARRIED:
        assert getattr(fr, name) == getattr(derived, name), name
    assert validate_frame(derived) == [] and check_frame_claims(derived) == []


def test_observed_frames_carry_their_masks():
    steps = 0
    for _, fr in FRAMES:
        assert_carried_masks_agree(fr)
        steps += fr.hubs != 0
    assert steps > 40


@pytest.mark.parametrize("legs", [10, 17, 24, 30])
@pytest.mark.parametrize("seed", [0, 1])
def test_caterpillar_steps_carry_their_masks(legs, seed):
    g, a = shuffled_caterpillar(legs, seed)
    seen = []

    def observe(fr):
        # A grown frame holds its masks from the start: carried, not derived.
        if fr.hubs:
            assert set(CARRIED) <= vars(fr).keys()
        seen.append(fr)

    final = build_maximal_frame(g, a, 3, observer=observe)
    assert final.leaf_count == legs and len(seen) == legs - 1
    for fr in seen:
        assert_carried_masks_agree(fr)


def test_a_step_checks_its_path_once():
    # p is checked once, into the mask every later check of the step reads.
    g, a = shuffled_caterpillar(10, 0)
    fr = init_frame(g, a, 3)
    while (p := find_extension(fr)) is not None:
        with calls_of("path_mask", PATH_MASK_MODULES) as calls:
            fr = extend_frame(fr, p)
        assert calls == [(g, p)]
    assert fr.leaf_count == 10


def targets(fr: Frame, p) -> list[int]:
    """Vertices to join to a new vertex of p: the lowest leaf; the frame
    vertices outside y within tree-distance 2 of p[-1], and the lowest and
    highest ones beyond; and the lowest and highest outside vertices with a
    neighbour among the frame vertices outside y."""
    adj = fr.host.neighbor_masks()
    far = fr.f & ~fr.y
    near_x = mask_ball(fr.tree, 1 << p[-1], -1, 2) & far
    sees_far = mask_neighbors(adj, far) & ~fr.f & ~to_mask(p)
    out = [min(mask_members(fr.a_f))] + mask_members(near_x)
    for mask in (far & ~near_x, sees_far):
        members = mask_members(mask)
        out += members[:1] + members[-1:]
    return sorted(set(out))


def mutated_steps():
    """(frame before the step, path, host) for every kept mutation of a
    step of the observed runs."""
    for _, fr in FRAMES[::3]:
        p = find_extension(fr)
        if p is None:
            continue
        g = fr.host
        for v in p[:-1]:
            for w in targets(fr, p):
                if w in p or g.has_edge(v, w):
                    continue
                h = Graph(g.n, list(g.edges()) + [(v, w)])
                before = fresh(fr, h)
                on_p = path_mask(h, p)
                if validate_frame(before) or check_frame_claims(before) or _extension_violations(before, p, on_p):
                    continue
                yield before, p, h


def test_mutated_steps_raise_exactly_when_the_full_validator_does(monkeypatch):
    full_calls = []
    real = apaths.frame.validate_frame
    monkeypatch.setattr(apaths.frame, "validate_frame", lambda fr: full_calls.append(fr) or real(fr))
    kept = 0
    for before, p, h in mutated_steps():
        checked = _assert_valid(before, "init_frame")  # as init_frame marks its frames
        grown = fresh(before, h, before.tree_edges | _path_edges(p))
        want = real(grown) or check_frame_claims(grown)
        full_calls.clear()
        got = outcome(extend_frame, checked, p)
        assert full_calls == []  # the step was checked locally
        if want:
            assert got[:3] == ("raised", "FrameInvariantError", str(apaths.frame.FrameInvariantError(
                "extend_frame produced an invalid frame", want)))
            assert got[3] == want
        else:
            assert got[0] == "returned"
            assert_carried_masks_agree(got[1])
        kept += 1
    assert kept > 100
