"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The corpus sizes, parameter grids, bounds, and time limits are pinned here;
nothing is deferred to later calibration. Criterion 6 (frame axioms) rides on
the criterion-1 corpus run plus a few caterpillars: every frame construction
validates itself, and counts of the frames the solver observed and extracted
paths from prove the axioms were actually exercised, frame extension and
hub-tree extraction included.
"""

import time
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import brute
from apaths import (
    Cover,
    Graph,
    Packing,
    SolveParams,
    caterpillar_instance,
    dist,
    extract_frame_paths,
    leaf_paths,
    lift_path,
    max_vertex_disjoint_apath_packing,
    random_instance,
    random_subcubic_tree,
    reduce_to_d3,
    solve,
    verify_certificate,
    verify_tightness_claims,
)
import apaths.solver as solver_module
from conftest import record_acceptance
from test_solver import SINGLE_SET_FORMS

EDGE_PROBS = (0.1, 0.2, 0.3, 0.5)
A_PROBS = (0.3, 0.6, 1.0)
KS = (1, 2, 3)
ELLS = (1, 2, 3)


def corpus():
    """>= 500 deterministic random instances with n <= 14 over the pinned grid."""
    instances = []
    seed = 0
    for edge_prob in EDGE_PROBS:
        for a_prob in A_PROBS:
            for i in range(42):
                n = 4 + (seed % 11)  # 4..14
                instances.append(random_instance(n, edge_prob, a_prob, seed))
                seed += 1
    return instances


_corpus_cache: dict = {}


@contextmanager
def frame_counts():
    """Yield (counts, observer): pass observer to solve as its frame_observer,
    and counts holds, on exit, the init frames and steps it saw and the
    frames paths were extracted from."""
    counts: Counter = Counter()

    def observe(fr):
        counts["extend_frame" if fr.hubs else "init_frame"] += 1  # an init frame has no hub

    with mock.patch.object(solver_module, "extract_frame_paths", wraps=extract_frame_paths) as spy:
        yield counts, observe
    counts["extract_frame_paths"] = spy.call_count


def run_corpus():
    """Solve+verify the whole grid once; reused by criteria 1, 2 and 6."""
    if _corpus_cache:
        return _corpus_cache
    start = time.monotonic()
    instances = corpus()
    failures = []
    ell1_failures = []
    ell1_covers = 0
    solves = 0
    with frame_counts() as (frames, observe):
        for idx, (g, a) in enumerate(instances):
            for k in KS:
                for ell in ELLS:
                    params = SolveParams(k, ell)
                    cert = solve(g, a, params, frame_observer=observe)
                    report = verify_certificate(g, a, params, cert)
                    solves += 1
                    if not report.passed:
                        failures.append((idx, k, ell, [str(c) for c in report.failures()]))
                        continue
                    if isinstance(cert, Cover):
                        ell_hat = max(ell, 3)
                        if len(cert.z1) > (12 * ell_hat + 42) * (k - 1) or len(
                            cert.z2
                        ) > 4 * (k - 1):
                            failures.append((idx, k, ell, "cover bound"))
                    if ell == 1 and isinstance(cert, Cover):
                        ell1_covers += 1
                        checks = {c.name: c.ok for c in report.checks}
                        if not (
                            all(checks[name] for name in SINGLE_SET_FORMS)
                            and len(cert.z1) <= 78 * (k - 1)
                            and len(cert.z2) <= 4 * (k - 1)
                            and cert.r2 == 4
                        ):
                            ell1_failures.append((idx, k))
    _corpus_cache.update(
        {
            "instances": len(instances),
            "solves": solves,
            "failures": failures,
            "ell1_failures": ell1_failures,
            "ell1_covers": ell1_covers,
            "elapsed": time.monotonic() - start,
            "frames": dict(frames),
        }
    )
    return _corpus_cache


# (legs, seed): the random corpus never reaches extend_frame, so criterion 6
# also solves these at k = 2 (packs) and k = legs // 2 + 1 (covers), ell 3.
CATERPILLARS = ((3, 0), (4, 1), (6, 2))
CATERPILLAR_ELL = 3


def run_caterpillars():
    """Solve+verify the caterpillars; returns (failures, frame counts)."""
    failures = []
    with frame_counts() as (counts, observe):
        for legs, seed in CATERPILLARS:
            g, a = caterpillar_instance(legs, seed)
            for k in (2, legs // 2 + 1):
                params = SolveParams(k, CATERPILLAR_ELL)
                cert = solve(g, a, params, frame_observer=observe)
                report = verify_certificate(g, a, params, cert)
                if not report.passed or isinstance(cert, Packing) != (k <= legs // 2):
                    failures.append((legs, seed, k, [str(c) for c in report.failures()]))
    return failures, dict(counts)


class TestAcceptance:
    def test_criterion_1_dichotomy_soundness(self):
        data = run_corpus()
        detail = (
            f"{data['instances']} instances, {data['solves']} solves, "
            f"{data['elapsed']:.1f}s"
        )
        ok = (
            data["instances"] >= 500
            and not data["failures"]
            and data["elapsed"] < 300
        )
        record_acceptance("1 dichotomy soundness (solve+verify, bounds)", ok, detail)
        assert data["instances"] >= 500
        assert data["failures"] == [], data["failures"][:5]
        assert data["elapsed"] < 300, f"corpus run took {data['elapsed']:.1f}s"

    def test_criterion_2_theorem_specialisation_at_ell_one(self):
        data = run_corpus()
        ok = not data["ell1_failures"]
        record_acceptance(
            "2 single-set forms at ell=1 (78(k-1), 4 balls of radius 4)",
            ok,
            f"{data['ell1_covers']} covers checked",
        )
        assert data["ell1_failures"] == []

    def test_criterion_3_tightness_complete_graphs(self):
        bad = []
        for n in range(2, 8):
            report = verify_tightness_claims("complete", n)
            if not report.passed:
                bad.append((n, [str(c) for c in report.failures()]))
        record_acceptance("3 tightness on complete graphs (n=2..7)", not bad, "exact")
        assert bad == []

    def test_criterion_4_tightness_subdivided_cliques(self):
        bad = []
        for k, r in ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1)):
            report = verify_tightness_claims("subdivided", k, r)
            if not report.passed:
                bad.append((k, r, [str(c) for c in report.failures()]))
        record_acceptance(
            "4 tightness on subdivided cliques (k=2, r=1,2; k=3, r=1..3; k=4, r=1)", not bad, "exact"
        )
        assert bad == []

    def test_criterion_5_leaf_paths_on_random_trees(self):
        start = time.monotonic()
        bad = 0
        for seed in range(1000):
            n = 2 + (seed * 37) % 299  # 2..300
            edges, leaves = random_subcubic_tree(n, seed)
            paths = leaf_paths(edges, leaves)
            edge_set = {(min(u, v), max(u, v)) for u, v in edges}
            used: set[int] = set()
            ok = len(paths) == len(leaves) // 2
            for p in paths:
                ok = ok and p[0] in leaves and p[-1] in leaves
                ok = ok and not (set(p) & used)
                ok = ok and all((min(u, v), max(u, v)) in edge_set for u, v in zip(p, p[1:]))
                used.update(p)
            if not ok:
                bad += 1
        elapsed = time.monotonic() - start
        passed = bad == 0 and elapsed < 30
        record_acceptance(
            "5 subcubic-tree leaf pairing (1000 trees, n<=300)",
            passed,
            f"{elapsed:.1f}s",
        )
        assert bad == 0
        assert elapsed < 30, f"took {elapsed:.1f}s"

    def test_criterion_6_frame_axioms_exercised_and_clean(self):
        # init_frame and extend_frame raise on any axiom or size-claim breach,
        # so zero failures plus positive frame counts is the whole claim. The
        # corpus exercises init_frame; the caterpillars exercise extend_frame
        # and hub-tree extraction, which the corpus never reaches.
        data = run_corpus()
        v = data["frames"]
        cat_failures, cv = run_caterpillars()
        ok = (
            v["init_frame"] > 0
            and cv["extend_frame"] > 0
            and cv["extract_frame_paths"] > 0
            and not data["failures"]
            and not cat_failures
        )
        record_acceptance(
            "6 frame axioms A1-A11 and size claims at every step",
            ok,
            f"validated frames: corpus {v}, caterpillars {cv}",
        )
        assert v["init_frame"] > 0, v
        assert cv["extend_frame"] > 0 and cv["extract_frame_paths"] > 0, cv
        assert data["failures"] == []
        assert cat_failures == []

    def test_criterion_7_classical_disjoint_duality(self):
        bad = []
        for seed in range(200):
            n = 2 + (seed * 13) % 8  # 2..9
            g, a = random_instance(n, 0.35 + (seed % 3) * 0.15, 0.7, 10_000 + seed)
            nu = max_vertex_disjoint_apath_packing(g, a, n)
            if nu == 0:
                if brute.has_apath_after_deletion(g, a, set()):
                    bad.append((seed, "nu=0 but an A-path exists"))
                continue
            z = _smallest_plain_deletion_cover(g, a, 2 * nu)
            if z is None:
                bad.append((seed, f"no deletion set of size <= {2 * nu}"))
        record_acceptance(
            "7 classical disjoint-paths duality (|Z| <= 2*nu, 200 instances)",
            not bad,
            "n<=9",
        )
        assert bad == []

    def test_criterion_8_power_graph_round_trip(self):
        bad = []
        pairs_checked = 0
        for seed in range(50):
            n = 4 + (seed * 7) % 9  # 4..12
            g, _ = random_instance(n, 0.35, 1.0, 20_000 + seed)
            for d in (2, 3, 4):
                pmap = reduce_to_d3(g, d)
                h_paths = _sample_power_paths(pmap.powered)
                lifted = []
                for ph in h_paths:
                    pg = lift_path(pmap, ph)
                    if pg[0] != ph[0] or pg[-1] != ph[-1]:
                        bad.append((seed, d, "endpoints", ph, pg))
                    if len(pg) - 1 > d * (len(ph) - 1):
                        bad.append((seed, d, "length", ph, pg))
                    lifted.append((ph, pg))
                for i in range(len(lifted)):
                    for j in range(i + 1, len(lifted)):
                        pairs_checked += 1
                        (phi, pgi), (phj, pgj) = lifted[i], lifted[j]
                        if dist(g, pgi, pgj) < d and dist(pmap.powered, phi, phj) > 2:
                            bad.append((seed, d, "contrapositive", phi, phj))
        record_acceptance(
            "8 power-graph reduction round trip (50 instances, d=2,3,4)",
            not bad,
            f"{pairs_checked} path pairs",
        )
        assert bad == []


def _smallest_plain_deletion_cover(g: Graph, a, limit: int):
    """Brute-force search for a vertex set of size <= limit whose plain
    deletion leaves no A-path; independent union-find reachability check."""
    from itertools import combinations

    for size in range(0, limit + 1):
        for z in combinations(range(g.n), size):
            if not brute.has_apath_after_deletion(g, a, set(z)):
                return frozenset(z)
    return None


def _sample_power_paths(h: Graph):
    """A deterministic handful of shortest paths of the powered graph."""
    from collections import deque

    out = []
    for u in range(0, h.n, 3):
        parent = {u: -1}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for w in h.neighbors(x):
                if w not in parent:
                    parent[w] = x
                    queue.append(w)
        for v in range(1, h.n, 4):
            if v in parent and v != u:
                path = [v]
                while parent[path[-1]] != -1:
                    path.append(parent[path[-1]])
                out.append(tuple(reversed(path)))
    return out[:8]
