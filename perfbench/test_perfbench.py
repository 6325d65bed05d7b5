"""Self-tests of the benchmark: run with `python3 -m pytest perfbench` from the
repository root. They pin answers only, never search node counts."""

from __future__ import annotations

import json
import random
import subprocess
import time
import sys
from pathlib import Path

import pytest

import apaths as ap
import run
import workloads
from test_acceptance import corpus

ROOT = Path(__file__).resolve().parent.parent


def _instances(family: str, seed: int):
    build = {
        "corpus": workloads.corpus_instances,
        "grid": workloads.grid_instances,
        "caterpillar": workloads.caterpillar_instances,
    }[family]
    return build(ap, seed)


@pytest.mark.parametrize("family", ["corpus", "grid", "caterpillar"])
def test_generators_are_deterministic_per_seed(family):
    assert _instances(family, 3) == _instances(family, 3)
    assert _instances(family, 3) != _instances(family, 4)


def test_oracle_seed_orders_fixed_ops():
    labels = [[op.label for op in workloads.oracle_ops(ap, seed)] for seed in (3, 3, 4)]
    assert labels[0] == labels[1]
    assert labels[0] != labels[2] and sorted(labels[0]) == sorted(labels[2])


def test_corpus_seed_zero_is_the_acceptance_corpus():
    assert workloads.corpus_instances(ap, 0) == corpus()


@pytest.mark.parametrize("side, longest", [(6, 22), (workloads.GRID_SIDE, workloads.GRID_ELL - 1)])
def test_unshuffled_grid_longest_corner_path(side, longest):
    g = ap.Graph(side * side, workloads.grid_edges(side))
    corners = workloads.grid_corners(side)
    assert ap.has_long_induced_apath(g, corners, longest)
    assert not ap.has_long_induced_apath(g, corners, longest + 1)


def test_caterpillar_terminals_are_the_leg_tips():
    for legs in (workloads.CATERPILLAR_LEGS[0], workloads.CATERPILLAR_LEGS[-1]):
        n, edges, tips = workloads.caterpillar(legs, random.Random(legs))
        g = ap.Graph(n, edges)
        assert sorted(tips) == [v for v in g.vertices() if g.degree(v) == 1]
        assert len(tips) == legs
        assert g.edge_count == n - 1


@pytest.mark.parametrize(
    "n, pct, beyond", [(3, 100.0, 0), (20, 50.0, 10), (27, 62.0, 10), (100, 90.0, 10), (20000, 99.0, 200)]
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct, beyond):
    got_pct, value, got_beyond = run.tail_percentile([float(i) for i in range(n)])
    assert (got_pct, got_beyond) == (pct, beyond)
    assert value == n - beyond - 1


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=170,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    listed = {m["name"]: m["unit"] for m in spec[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == listed


def test_relabeled_pool_holds_the_same_shapes_under_new_ids():
    plain = workloads.caterpillar_instances(ap, 2)
    again = workloads.relabeled(ap, plain, "caterpillar", 2, 1)
    assert workloads.relabeled(ap, plain, "caterpillar", 2, 0) is plain
    assert again == workloads.relabeled(ap, plain, "caterpillar", 2, 1)
    for (g, a, legs), (h, b, legs2) in zip(plain, again):
        assert (g.n, g.edge_count, len(a), legs) == (h.n, h.edge_count, len(b), legs2)
        assert sorted(map(g.degree, g.vertices())) == sorted(map(h.degree, h.vertices()))
        assert g != h


def _op(label, run_fn, check=lambda answer: True):
    return workloads.Op(label, run_fn, check, lambda answer: f"{answer}\n")


def test_loop_counts_failed_runs_without_a_per_run_record():
    calls = {"flaky": 0}

    def flaky():
        calls["flaky"] += 1
        return calls["flaky"] > 1  # changes its answer after the first pass

    def broken():
        raise ValueError("no answer")

    pool = [_op("fine", lambda: 1), _op("flaky", flaky), _op("broken", broken),
            _op("wrong", lambda: 2, check=lambda answer: False)]
    loop = run.Loop(len(pool))
    for _ in range(3):
        loop.run_pass(pool)
    loop.check(pool)
    assert loop.attempted == 12 and loop.passes == 3
    assert loop.failed == 2 + 3 + 3  # flaky's last two runs, every broken and wrong run
    assert loop.bad_runs == [0, 2, 3, 0]
    assert loop.errors == {"changed_answer": 2, "ValueError": 3, "check": 1}


def test_loop_keeps_each_ops_last_runs_in_fixed_storage():
    tick = iter(range(10**6))
    pool = [_op("slow", lambda: time.sleep(0.002 * (next(tick) % 3 + 1)))]
    loop = run.Loop(len(pool), probe=True)
    storage = len(loop.times)
    for _ in range(run.KEEP_RUNS + 3):
        loop.run_pass(pool)
    assert len(loop.times) == storage == run.KEEP_RUNS
    assert 0.0035 < loop.op_times()[0] < 0.006  # median of sleeps of 2, 4 and 6 ms
    assert loop.probe_s  # the speed probe ran between ops


def _sleepy_build(memo: dict | None):
    """A fake workload whose ops sleep 3 ms unless memo already holds their answer."""

    def build(ap_, seed, relabel=0):
        def op(key):
            def run_op():
                if memo is not None and key in memo:
                    return memo[key]
                time.sleep(0.003)
                if memo is not None:
                    memo[key] = key
                return key

            return _op(str(key), run_op)

        return [op((seed, relabel, i)) for i in range(20)]

    return build


def test_reuse_probe_flags_a_program_that_keeps_answers_across_calls():
    honest, failed = run.reuse_probe(_sleepy_build(None), ap, 0)
    assert honest < run.REUSE_LIMIT and not failed
    memo: dict = {}
    build = _sleepy_build(memo)
    for op in build(ap, 0):
        op.run()  # the timed passes
    memoized, failed = run.reuse_probe(build, ap, 0)
    assert memoized > run.REUSE_LIMIT and not failed
