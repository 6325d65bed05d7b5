"""Differential tests against the frozen verifier in reference_verify.py.

verify_cover searches each distinct removed set that keeps two terminals
once and reports the result for every check that removes it; the reference
searches all three. solve answers a level of fewer than two terminals
unsearched, where the frozen recursion searches it.
verify_packing checks each path once, into its mask, and reports every
touching pair in one pairs.anti_complete check; the reference runs is_path,
is_induced_path and one anti_complete check per pair. Every report must be
equal to the reference's, check by check and witness by witness, apart from
the pair checks, on every corpus certificate, on hand-built failing covers,
on random covers, on every oracle packing witness of the corpus, and on
mutated packings; and its one pairs.anti_complete check must list exactly
the pairs whose reference check fails (see assert_agrees).
"""

import re
from collections import Counter

from hypothesis import assume, given, settings, strategies as st

from apaths import (
    Check,
    Cover,
    Graph,
    SolveParams,
    ball,
    max_anticomplete_packing_with_witness,
    random_instance,
    solve,
    verify_certificate,
    verify_cover,
    verify_packing,
)
from reference_verify import reference_verify_certificate, reference_verify_cover, reference_verify_packing
from test_acceptance import ELLS, KS, corpus
from test_solver import level_passes


def assert_agrees(got, want) -> None:
    """got is want with its pair[i,j].anti_complete checks, which come last,
    replaced by one pairs.anti_complete check whose witness lists the [i, j]
    of each failing one, in order. A cover report has no pair checks, so it
    must equal the reference's outright."""
    pairs = [re.fullmatch(r"pair\[(\d+),(\d+)\]\.anti_complete", c.name) for c in want.checks]
    rest = [c for c, pair in zip(want.checks, pairs) if not pair]
    touching = [[int(pair[1]), int(pair[2])] for c, pair in zip(want.checks, pairs) if pair and not c.ok]
    if want.kind == "packing":
        rest.append(Check("pairs.anti_complete", not touching, touching))
    assert (got.kind, got.passed) == (want.kind, want.passed)
    assert got.checks == rest


def distinct_removals(g, params, z1, z2) -> int:
    b1, b2 = ball(g, z1, 1), ball(g, z2, params.cover_radius())
    return len({b1 & b2, b1, b2})


def test_corpus_certificates_agree():
    distinct = Counter()
    for g, a in corpus():
        for k in KS:
            for ell in ELLS:
                params = SolveParams(k, ell)
                cert = solve(g, a, params)
                got = verify_certificate(g, a, params, cert)
                assert_agrees(got, reference_verify_certificate(g, a, params, cert))
                if isinstance(cert, Cover):
                    distinct[distinct_removals(g, params, cert.z1, cert.z2)] += 1
    # Covers that share one removed set and covers with two both occur.
    assert distinct[1] and distinct[2]


# Path 0..20 with terminals 0, 10 and 20 at ell 2 (cover radius 4): every
# cover below fails at least one removal check.
PATH = Graph(21, [(i, i + 1) for i in range(20)])
TERMINALS = {0, 10, 20}
FAILING_COVERS = [
    (set(), set()),  # one set: nothing removed
    ({10}, set()),  # z1 only
    (set(), {10}),  # z2 only
    ({16}, {16}),  # z1's ball inside z2's
    ({2}, {18}),  # three distinct sets, the intersection empty
    ({5}, {9}),  # three distinct sets, the intersection {5, 6}
    ({1, 4, 7}, {15}),  # 0..8 and 11..19: as large, but with other witnesses
]


def test_failing_covers_agree():
    params = SolveParams(2, 2)
    for z1, z2 in FAILING_COVERS:
        cert = Cover(frozenset(z1), frozenset(z2), 1, params.cover_radius())
        got = verify_certificate(PATH, TERMINALS, params, cert)
        assert not got.passed
        want = reference_verify_certificate(PATH, TERMINALS, params, cert)
        assert got.to_dict() == want.to_dict()
    assert {distinct_removals(PATH, params, z1, z2) for z1, z2 in FAILING_COVERS} == {1, 2, 3}


@st.composite
def random_covers(draw):
    n = draw(st.integers(2, 10))
    g, a = random_instance(
        n,
        draw(st.sampled_from([0.2, 0.35, 0.5])),
        draw(st.sampled_from([0.3, 0.6, 1.0])),
        draw(st.integers(0, 100_000)),
    )
    subsets = st.sets(st.integers(0, n - 1), max_size=3)
    params = SolveParams(draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    return g, a, params, draw(subsets), draw(subsets)


@given(random_covers())
@settings(max_examples=200, deadline=None)
def test_random_covers_agree(case):
    g, a, params, z1, z2 = case
    got = verify_cover(g, a, params, z1, z2).to_dict()
    assert got == reference_verify_cover(g, a, params, z1, z2).to_dict()


@given(random_covers())
@settings(max_examples=200, deadline=None)
def test_removals_that_keep_fewer_than_two_terminals_agree(case):
    # Such a removal passes unsearched; the reference searches it.
    g, a, params, z1, z2 = case
    b1, b2 = ball(g, z1, 1), ball(g, z2, params.cover_radius())
    assume(any(len(a - removed) < 2 for removed in (b1 & b2, b1, b2)))
    got = verify_cover(g, a, params, z1, z2).to_dict()
    assert got == reference_verify_cover(g, a, params, z1, z2).to_dict()


# Instances with few terminals, so that a level or a removal often keeps
# fewer than two.
few_terminals = st.builds(
    random_instance,
    st.integers(2, 10),
    st.sampled_from([0.15, 0.3, 0.5]),
    st.sampled_from([0.15, 0.3, 0.5]),
    st.integers(0, 10_000),
)


@given(few_terminals, st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_the_two_terminal_rule_changes_no_certificate_and_no_report(inst, k, ell):
    # solve answers a level of fewer than two terminals unsearched, where
    # the recursion searches it (see test_solver.TestTwoTerminalRule).
    g, a = inst
    params = SolveParams(k, ell)
    want, _, passes = level_passes(g, a, params)
    assume(any(not s & (s - 1) for _, s, _ in passes))
    cert = solve(g, a, params)
    assert cert == want
    assert_agrees(verify_certificate(g, a, params, cert), reference_verify_certificate(g, a, params, cert))


def test_oracle_witnesses_agree():
    sizes = Counter()
    for g, a in corpus():
        for ell in ELLS:
            size, paths = max_anticomplete_packing_with_witness(g, a, ell, 3)
            sizes[size] += 1
            for k in {size, size + 1}:
                params = SolveParams(k, ell)
                got = verify_packing(g, a, params, paths)
                assert_agrees(got, reference_verify_packing(g, a, params, paths))
    assert all(sizes[size] for size in range(4))


# How one path of a mutated packing is drawn from an interval i..j of the
# spine 0..n-1 (a path, possibly with chords), or from the path before it.
MUTATIONS = (
    "interval",  # i..j, in either direction
    "repeat",  # one id twice
    "minus_one",  # -1 inserted
    "n",  # n inserted
    "empty",  # ()
    "single",  # one vertex
    "reverse",  # the path before it, reversed
    "share",  # an interval that starts on the last vertex of the path before it
    "edge",  # ... one past it: joined to it by one edge
    "distance_2",  # ... two past it
)


@st.composite
def mutated_packings(draw):
    """(g, a, params, paths): intervals of a spine with up to two chords,
    each mutated, and a count that may be off by one."""
    n = draw(st.integers(2, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: abs(e[0] - e[1]) > 1)
    chords = {(min(e), max(e)) for e in draw(st.lists(pairs, max_size=2))}
    g = Graph(n, [(i, i + 1) for i in range(n - 1)] + sorted(chords))
    a = draw(st.sets(st.integers(0, n - 1)))
    paths = []
    for _ in range(draw(st.integers(0, 4))):
        mutation = draw(st.sampled_from(MUTATIONS))
        last = paths[-1] if paths and paths[-1] else (0,)
        start = draw(st.integers(0, n - 1))
        if mutation in ("share", "edge", "distance_2"):
            start = max(0, min(n - 1, last[-1] + ("share", "edge", "distance_2").index(mutation)))
        p = list(range(start, draw(st.integers(start, min(n - 1, start + 5))) + 1))
        if mutation == "interval" and draw(st.booleans()):
            p.reverse()
        elif mutation == "repeat":
            p.insert(draw(st.integers(0, len(p))), draw(st.sampled_from(p)))
        elif mutation in ("minus_one", "n"):
            p.insert(draw(st.integers(0, len(p))), -1 if mutation == "minus_one" else n)
        elif mutation == "empty":
            p = []
        elif mutation == "single":
            p = p[:1]
        elif mutation == "reverse":
            p = list(reversed(last))
        paths.append(tuple(p))
    k = max(0, len(paths) + draw(st.sampled_from([0, 0, -1, 1])))
    return g, a, SolveParams(k, draw(st.integers(1, 3))), paths


@given(mutated_packings())
@settings(max_examples=400, deadline=None)
def test_mutated_packings_agree(case):
    g, a, params, paths = case
    got = verify_packing(g, a, params, paths)
    assert_agrees(got, reference_verify_packing(g, a, params, paths))
