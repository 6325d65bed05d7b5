"""Seeded instance families and the operations the benchmark times on them.

Each workload is a pool of operations built from the workload seed alone. One
pass runs every operation of the pool once, in order; a run repeats whole
passes. An operation returns an answer that is checked after timing ends and
a canonical text that goes into the run's output digest. A pool built with
relabel=j > 0 holds the same instances with their vertex ids permuted again.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

# Acceptance-corpus grid, as pinned in tests/test_acceptance.py.
EDGE_PROBS = (0.1, 0.2, 0.3, 0.5)
A_PROBS = (0.3, 0.6, 1.0)
PER_CELL = 42
KS = (1, 2, 3)
ELLS = (1, 2, 3)
CORPUS_SIZE = len(EDGE_PROBS) * len(A_PROBS) * PER_CELL  # 504

# 5x5, not 6x6: a 6x6 op takes 0.5-0.8 s on a shared 2-vCPU Xeon, and the
# fastest of ~40 such runs still moved by 16-18% from run to run.
GRID_SIDE = 5
GRID_ELL = 17  # one more than the longest corner-to-corner induced path (16)
GRIDS_PER_PASS = 20

# Caterpillar leg counts run in every pass; the seed draws gaps, leg lengths
# and vertex ids, so every seed times the same mix of sizes. 10-25 legs, not
# 30-60: there, ops of 0.1-0.5 s moved by 20-30% from run to run.
CATERPILLAR_LEGS = tuple(range(10, 26))
CATERPILLAR_ELL = 3

ORACLE_SIZES = (11, 12)  # 13-14 gave ops up to 0.5 s, too long to time steadily
ORACLE_EDGE_PROBS = (0.25, 0.4)
ORACLE_A_PROB = 0.6
ORACLE_PER_CELL = 12
ORACLE_ELL = 2
ORACLE_CAP = 3
TIGHTNESS_K, TIGHTNESS_R = 3, 1


@dataclass(frozen=True)
class Op:
    """One timed operation: run() returns the answer, check(answer) judges it
    and digest(answer) renders it canonically as newline-terminated text."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    digest: Callable[[object], str]


def _shuffled(n: int, edges, terminals, rng: random.Random):
    """Relabel vertices by a random permutation drawn from rng."""
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges], frozenset(perm[t] for t in terminals)


def relabeled(ap, instances: list, family: str, seed: int, relabel: int) -> list:
    """(graph, terminals, ...) tuples with vertex ids permuted by (seed, relabel);
    relabel 0 returns them as they are."""
    if not relabel:
        return instances
    rng = random.Random(f"{family}:{seed}:relabel{relabel}")
    out = []
    for g, a, *rest in instances:
        edges, a = _shuffled(g.n, g.edges(), a, rng)
        out.append((ap.Graph(g.n, edges), a, *rest))
    return out


def corpus_instances(ap, seed: int) -> list:
    """The acceptance corpus, vertex ids shuffled by seed; seed 0 keeps them.

    With a fresh 504-instance draw per seed, the p99 op moved by half from
    seed to seed, the same way in repeated runs; every seed therefore runs
    the acceptance corpus's shapes.
    """
    rng = random.Random(f"corpus:{seed}")
    out = []
    for j in range(CORPUS_SIZE):
        edge_prob = EDGE_PROBS[j // (len(A_PROBS) * PER_CELL)]
        a_prob = A_PROBS[j // PER_CELL % len(A_PROBS)]
        g, a = ap.random_instance(4 + (j % 11), edge_prob, a_prob, j)
        if seed:
            edges, a = _shuffled(g.n, g.edges(), a, rng)
            g = ap.Graph(g.n, edges)
        out.append((g, a))
    return out


def grid_edges(side: int) -> list[tuple[int, int]]:
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1))
            if r + 1 < side:
                edges.append((v, v + side))
    return edges


def grid_corners(side: int) -> frozenset[int]:
    last = side - 1
    return frozenset((0, last, last * side, last * side + last))


def grid_instances(ap, seed: int) -> list:
    """Square grids with the corners as terminals, ids shuffled by seed."""
    rng = random.Random(f"grid:{seed}")
    n = GRID_SIDE * GRID_SIDE
    out = []
    for _ in range(GRIDS_PER_PASS):
        edges, a = _shuffled(n, grid_edges(GRID_SIDE), grid_corners(GRID_SIDE), rng)
        out.append((ap.Graph(n, edges), a))
    return out


def caterpillar(legs: int, rng: random.Random):
    """A spine with a leg of 4-7 edges every 8-12 spine vertices, ids shuffled.

    Gaps and leg lengths cycle through 8..12 and 4..7 in an order drawn from
    rng, so every draw for a leg count has the same size. With each drawn
    independently, a leg count's graph size varied from seed to seed, and
    the pool's tail op spread by 0.11 (quartile distance over median) over
    ten seeds. The spine runs from the first attachment vertex to the
    last, so the leg tips are exactly the degree-1 vertices, and they are the
    terminals.
    """
    gaps = [8 + j % 5 for j in range(legs - 1)]
    lengths = [4 + j % 4 for j in range(legs)]
    rng.shuffle(gaps)
    rng.shuffle(lengths)
    attach = [0]
    for gap in gaps:
        attach.append(attach[-1] + gap)
    spine = attach[-1] + 1
    edges = [(v, v + 1) for v in range(spine - 1)]
    tips = []
    nxt = spine
    for s, length in zip(attach, lengths):
        prev = s
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        tips.append(prev)
    return nxt, edges, tips


def caterpillar_instances(ap, seed: int) -> list:
    """(graph, terminals, legs) for each leg count."""
    rng = random.Random(f"caterpillar:{seed}")
    out = []
    for legs in CATERPILLAR_LEGS:
        n, edges, tips = caterpillar(legs, rng)
        edges, a = _shuffled(n, edges, tips, rng)
        out.append((ap.Graph(n, edges), a, legs))
    return out


def oracle_instances(ap) -> list:
    """Fixed random_instance shapes with fixed vertex ids.

    An oracle call costs roughly C(n, |Z|) for the minimum cover size |Z|,
    and how soon the subset search meets a cover depends on the vertex ids:
    under 24 id shuffles, calls of 10 ms or more took 0.59x to 1.63x their
    median time (5th to 95th percentile), and the pool's tail op moved by a
    fifth from seed to seed. The instances are therefore the same for every seed, and the seed
    orders the ops (see oracle_ops).
    """
    return [
        ap.random_instance(n, edge_prob, ORACLE_A_PROB, shape)
        for shape, (n, edge_prob) in enumerate(
            (n, edge_prob)
            for n in ORACLE_SIZES
            for edge_prob in ORACLE_EDGE_PROBS
            for _ in range(ORACLE_PER_CELL)
        )
    ]


def _solve_op(ap, label: str, g, a, k: int, ell: int, expect=None) -> Op:
    """solve + verify_certificate; expect(cert) adds a family-specific check."""
    params = ap.SolveParams(k, ell)

    def run():
        cert = ap.solve(g, a, params)
        return cert, ap.verify_certificate(g, a, params, cert)

    def check(answer) -> bool:
        cert, report = answer
        return report.passed and (expect is None or expect(cert))

    def digest(answer) -> str:
        return ap.cli.emit_certificate(ap.cli.certificate_document(g, a, params, answer[0]))

    return Op(label, run, check, digest)


def corpus_ops(ap, seed: int, relabel: int = 0) -> list[Op]:
    return [
        _solve_op(ap, f"corpus[{i}] k={k} ell={ell}", g, a, k, ell)
        for i, (g, a) in enumerate(relabeled(ap, corpus_instances(ap, seed), "corpus", seed, relabel))
        for k in KS
        for ell in ELLS
    ]


def grid_ops(ap, seed: int, relabel: int = 0) -> list[Op]:
    def empty_cover(cert) -> bool:
        return isinstance(cert, ap.Cover) and not cert.z1 and not cert.z2

    return [
        _solve_op(ap, f"grid[{i}]", g, a, 2, GRID_ELL, empty_cover)
        for i, (g, a) in enumerate(relabeled(ap, grid_instances(ap, seed), "grid", seed, relabel))
    ]


def caterpillar_ops(ap, seed: int, relabel: int = 0) -> list[Op]:
    ops = []
    instances = relabeled(ap, caterpillar_instances(ap, seed), "caterpillar", seed, relabel)
    for g, a, legs in instances:
        # At most legs // 2 anti-complete paths exist: each uses two leg tips.
        for k in (2, legs // 2 + 1):
            def packs(cert, k=k, legs=legs) -> bool:
                return isinstance(cert, ap.Packing) == (k <= legs // 2)

            ops.append(_solve_op(ap, f"caterpillar legs={legs} k={k}", g, a, k, CATERPILLAR_ELL, packs))
    return ops


def cover_removal_is_clean(ap, g, a, z, r: int, ell: int) -> bool:
    """Re-check an oracle cover with the test suite's brute-force reference:
    no induced A-path of length >= ell survives deleting the radius-r ball."""
    import brute

    removed = brute.brute_ball(g, z, r)
    new_id = {v: i for i, v in enumerate(v for v in range(g.n) if v not in removed)}
    h = ap.Graph(
        len(new_id),
        [(new_id[u], new_id[v]) for u, v in g.edges() if u in new_id and v in new_id],
    )
    return not brute.brute_induced_apaths(h, [new_id[t] for t in a if t in new_id], lo=ell)


def _packing_oracle_op(ap, label: str, g, a) -> Op:
    def run():
        return ap.max_anticomplete_packing_with_witness(g, a, ORACLE_ELL, ORACLE_CAP)

    def check(answer) -> bool:
        count, witness = answer
        params = ap.SolveParams(count, ORACLE_ELL)
        return count == len(witness) and ap.verify_packing(g, a, params, witness).passed

    def digest(answer) -> str:
        count, witness = answer
        return json.dumps(["packing", count, [list(p) for p in witness]]) + "\n"

    return Op(label, run, check, digest)


def _cover_oracle_op(ap, label: str, g, a, r: int) -> Op:
    def run():
        return ap.oracle_min_ball_cover(g, a, ORACLE_ELL, r)

    def check(answer) -> bool:
        size, z = answer
        return size == len(z) and cover_removal_is_clean(ap, g, a, z, r, ORACLE_ELL)

    def digest(answer) -> str:
        size, z = answer
        return json.dumps(["cover", r, size, sorted(z)]) + "\n"

    return Op(label, run, check, digest)


def _tightness_op(ap) -> Op:
    def run():
        return ap.verify_tightness_claims("subdivided", TIGHTNESS_K, TIGHTNESS_R)

    return Op(
        f"tightness subdivided k={TIGHTNESS_K} r={TIGHTNESS_R}",
        run,
        lambda report: report.passed,
        lambda report: json.dumps(report.to_dict(), sort_keys=True) + "\n",
    )


def oracle_ops(ap, seed: int, relabel: int = 0) -> list[Op]:
    """Every oracle op on the fixed instances, in an order drawn from seed."""
    ops = []
    instances = relabeled(ap, oracle_instances(ap), "oracle", seed, relabel)
    for i, (g, a) in enumerate(instances):
        ops.append(_packing_oracle_op(ap, f"oracle[{i}] packing", g, a))
        for r in (0, 1):
            ops.append(_cover_oracle_op(ap, f"oracle[{i}] cover r={r}", g, a, r))
    ops.append(_tightness_op(ap))
    random.Random(f"oracle:{seed}").shuffle(ops)
    return ops


WORKLOADS: dict[str, Callable[..., list[Op]]] = {
    "corpus": corpus_ops,
    "grid": grid_ops,
    "caterpillar": caterpillar_ops,
    "oracle": oracle_ops,
}
