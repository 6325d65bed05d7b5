"""Differential tests against the frozen verifier in reference_verify.py.

verify_cover searches each distinct removed set once and reports the result
for every check that removes it; the reference searches all three. Every
report must be equal to the reference's, check by check and witness by
witness, on every corpus certificate, on hand-built failing covers, and on
random covers.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from apaths import (
    Cover,
    Graph,
    SolveParams,
    ball,
    random_instance,
    solve,
    verify_certificate,
    verify_cover,
)
from reference_verify import reference_verify_certificate, reference_verify_cover
from test_acceptance import ELLS, KS, corpus


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
                got = verify_certificate(g, a, params, cert).to_dict()
                assert got == reference_verify_certificate(g, a, params, cert).to_dict()
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
