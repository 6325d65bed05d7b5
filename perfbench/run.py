"""The apaths benchmark: seeded workloads run as a closed loop, answers checked.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 22 --trace 0

One process and one thread issue each operation after the previous one ends.
Run from a source checkout: the package is imported from src/, and the
oracle answers are re-checked with tests/brute.py.

--trace 0 repeats whole passes over the workload's operation pool until
--seconds of operation time have been measured, sets up several times in
between, and prints the end-to-end metrics. Each pass runs on a freshly built
pool (new graphs and params, built outside the timed region). An op's time is
the median of its runs. The shared machine this was built on changes speed
by a fifth or more for minutes at a time, so a fixed pure-Python probe
(speed_probe) is timed between ops throughout the run, and every time is
reported at the reference speed: a pass's op times are scaled by
REFERENCE_PROBE_MS over that pass's median probe time, and a set-up's by the
probes taken right after it. Repeats measure the program only if it does no work for
one call that a later call reuses, so the run ends with a reuse probe (see
reuse_probe) and is marked incorrect if the probe finds such reuse.
--trace 1 runs one pass in which every op runs once untraced and once with
spans recorded around every public call (see tracing.py), and prints the
per-layer metrics. Per-layer counts repeat exactly for a given seed; the spans
go to perfbench/out/.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPS = 20
# Each op keeps the times of its last KEEP_RUNS runs, in storage allocated up
# front, so memory does not grow with the number of passes.
KEEP_RUNS = 32
# The speed probe runs after every PROBE_EVERY_S of op time; times are
# reported as if the probe had taken REFERENCE_PROBE_MS, about its median on
# the machine the benchmark was built on (see README.md).
PROBE_EVERY_S = 0.02
REFERENCE_PROBE_MS = 0.9
# Reuse probe: summed op time on relabeled copies over summed op time on
# repeats, above which the run counts as reusing work across calls.
REUSE_LIMIT = 1.2

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def drop_apaths() -> dict:
    """Take every apaths module out of sys.modules, so the next import runs as
    if for the first time in this process, and return them."""
    return {m: sys.modules.pop(m) for m in list(sys.modules) if m == "apaths" or m.startswith("apaths.")}


def warm_up(pool) -> None:
    """Run the pool's op with the smallest label, the same op for every seed."""
    min(pool, key=lambda op: op.label).run()


def setup(workload: str, seed: int) -> float:
    """Time one set-up: a fresh import, building the operation pool and one
    warm-up op. The set-up's modules and pool are freed afterwards and the
    apaths modules imported before it are put back, so the caller goes on
    with the objects it holds."""
    kept = drop_apaths()
    gc.collect()
    t0 = time.perf_counter()
    ap = importlib.import_module("apaths")
    pool = workloads.WORKLOADS[workload](ap, seed)
    warm_up(pool)
    took = time.perf_counter() - t0
    del ap, pool
    drop_apaths()
    sys.modules.update(kept)
    gc.collect()
    return took


def tail_percentile(sorted_times: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest whole percentile with
    at least ten samples beyond it (nearest rank). With fewer than 20 samples
    no percentile at or above the median qualifies, so it is the maximum."""
    n = len(sorted_times)
    if n < 20:
        return 100.0, sorted_times[-1], 0
    pct = 100 * (n - 10) // n
    rank = -(-pct * n // 100)
    return float(pct), sorted_times[rank - 1], n - rank


class Loop:
    """Closed-loop runner: runs ops, times each one, checks answers afterwards.

    Answers from the first pass are kept, checked and digested; later passes
    must reproduce them exactly. An op's run fails if it raises (any
    exception) or changes its answer; all its runs fail if its first answer
    fails the check. Memory held does not grow with the number of passes.
    With probe=True the speed probe runs between ops, after every
    PROBE_EVERY_S of op time (and at least once a pass), its times go to
    probe_s, and each pass's times are scaled to the reference speed by the
    median probe of that pass.
    """

    def __init__(self, size: int, tracer=None, probe: bool = False):
        self.size = size
        self.tracer = tracer
        self.probe = probe
        self.first: list = [None] * size
        self.times = array("d", bytes(8 * size * KEEP_RUNS))  # op i, run j: [i * KEEP_RUNS + j % KEEP_RUNS]
        self.scales = array("d", [1.0] * KEEP_RUNS)  # run j's times times this: reference speed
        self.probe_s: list[float] = []
        self.since_probe = 0.0  # op time since the last speed probe
        self.bad_runs = [0] * size  # runs that raised or changed their answer
        self.first_pass_s = 0.0  # summed op time of the first pass
        self.passes = 0
        self.errors: dict[str, int] = {}
        self.failed_ops: list[str] = []  # what failed, one line each
        self.failed = 0

    @property
    def attempted(self) -> int:
        return self.passes * self.size

    def op_times(self, scaled: bool = True) -> list[float]:
        """Each op's median time over its last KEEP_RUNS runs, at the
        reference speed or as measured."""
        kept = min(self.passes, KEEP_RUNS)
        scales = self.scales[:kept] if scaled else [1.0] * kept
        return [
            statistics.median(t * k for t, k in zip(self.times[i * KEEP_RUNS:i * KEEP_RUNS + kept], scales))
            for i in range(self.size)
        ]

    def _error(self, kind: str) -> None:
        self.errors[kind] = self.errors.get(kind, 0) + 1

    def run_pass(self, pool) -> float:
        """One pass over the pool; returns the summed op time in seconds.

        Every object alive when the pass starts (the pool, the benchmark's
        own) is frozen out of garbage collection for the pass, so collections
        inside ops traverse only what the program allocated. Otherwise the
        collections that the ops' allocations trigger also walk the pool,
        and which ops pay for them depends on the order of the ops.
        """
        gc.collect()
        gc.freeze()
        try:
            return self._run_pass(pool)
        finally:
            gc.unfreeze()

    def _run_pass(self, pool) -> float:
        busy = 0.0
        clock = time.perf_counter
        slot = self.passes % KEEP_RUNS
        probes_before = len(self.probe_s)
        for i, op in enumerate(pool):
            t0 = clock()
            try:
                answer = op.run() if self.tracer is None else self.tracer.call(i, op.run)
            except Exception as exc:
                answer = exc
            dt = clock() - t0
            busy += dt
            self.times[i * KEEP_RUNS + slot] = dt
            if self.probe:
                self.since_probe += dt
                if self.since_probe >= PROBE_EVERY_S:
                    self.probe_s.append(speed_probe())
                    self.since_probe = 0.0
            if isinstance(answer, Exception):
                self._error(type(answer).__name__)
                answer = f"error:{type(answer).__name__}"
            if self.passes == 0:
                self.first[i] = answer
            elif answer != self.first[i]:
                self._error("changed_answer")
            if isinstance(answer, str) or answer != self.first[i]:
                self.bad_runs[i] += 1
        if self.probe:
            if len(self.probe_s) == probes_before:
                self.probe_s.append(speed_probe())
            self.scales[slot] = REFERENCE_PROBE_MS / (statistics.median(self.probe_s[probes_before:]) * 1e3)
        if self.passes == 0:
            self.first_pass_s = busy
        self.passes += 1
        return busy

    def check(self, pool) -> str:
        """Check every first-pass answer, count failed runs, return the digest."""
        h = hashlib.sha256()
        for i, (op, answer) in enumerate(zip(pool, self.first)):
            if isinstance(answer, str):
                h.update(f"{answer}\n".encode())
                self.failed_ops.append(f"{op.label}: {answer}")
                self.failed += self.passes
                continue
            if op.check(answer):
                self.failed += self.bad_runs[i]
            else:
                self._error("check")
                self.failed_ops.append(f"{op.label}: check failed")
                self.failed += self.passes
            h.update(op.digest(answer).encode())
        return h.hexdigest()


def reuse_probe(build, ap, seed: int) -> tuple[float, list[str]]:
    """Time each op of the workload, on a freshly built pool with the timed
    passes' vertex ids, back to back with its copy under new vertex ids, in
    alternating order. A program that keeps work from one call for a later one
    answers the repeat from what it kept and must redo the copy; one that does
    not takes about as long on both, whatever the machine's speed at the
    moment. Two rounds, each with new ids for the copies. Returns the lower round's
    copy time over repeat time, and the copies that raised or whose answers
    failed their check."""
    ratios = []
    failed = []
    clock = time.perf_counter
    for relabel in (1, 2):
        took = {"repeat": 0.0, "copy": 0.0}
        for i, (repeat, copy) in enumerate(zip(build(ap, seed), build(ap, seed, relabel=relabel))):
            order = (("repeat", repeat), ("copy", copy))
            for kind, op in order if i % 2 else order[::-1]:
                t0 = clock()
                try:
                    answer = op.run()
                except Exception as exc:
                    answer = exc
                took[kind] += clock() - t0
                if kind == "repeat":
                    continue
                if isinstance(answer, Exception):
                    failed.append(f"{op.label} relabeled: error:{type(answer).__name__}")
                elif not op.check(answer):
                    failed.append(f"{op.label} relabeled: check failed")
        ratios.append(took["copy"] / took["repeat"])
    return min(ratios), failed


# A 5x5 grid as adjacency sets, for the speed probe.
_PROBE_ADJ = [set() for _ in range(25)]
for _u, _v in workloads.grid_edges(5):
    _PROBE_ADJ[_u].add(_v)
    _PROBE_ADJ[_v].add(_u)


def speed_probe() -> float:
    """Seconds taken by a fixed pure-Python depth-first search: the simple
    paths of at most 9 edges from a corner of a 5x5 grid, kept in a set as
    apaths.search keeps its path. It does the same kind of work as the
    program (calls, set and list operations) and never changes, so its time
    tracks how fast this machine runs at the moment."""
    adj = _PROBE_ADJ
    on_path: set[int] = set()

    def dfs(v: int, depth: int) -> int:
        found = 1
        if depth < 9:
            on_path.add(v)
            for w in adj[v]:
                if w not in on_path:
                    found += dfs(w, depth + 1)
            on_path.discard(v)
        return found

    t0 = time.perf_counter()
    dfs(0, 0)
    return time.perf_counter() - t0


def calibration_ms(probes: int = 25) -> float:
    """Median of several speed probes, in ms."""
    return statistics.median(speed_probe() for _ in range(probes)) * 1e3


def run_facts(calibration: list[float]) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "load_1m": os.getloadavg()[0],
        "calibration_ms": calibration,
    }


def timed_run(workload: str, seed: int, seconds: float):
    build = workloads.WORKLOADS[workload]
    ap = importlib.import_module("apaths")
    warm_up(build(ap, seed))  # untimed, before any timing
    setups: list[float] = []  # as measured
    setup_scales: list[float] = []  # each to the reference speed, by probes right after it
    loop = None
    busy = 0.0
    while loop is None or busy < seconds:
        pool = None  # never hold two pools, nor one during a set-up
        # Set-ups are spread over the run: the machine's speed drifts over
        # seconds, and set-ups back to back would all see the same moment.
        if len(setups) < SETUP_REPS and busy >= len(setups) * seconds / SETUP_REPS:
            setups.append(setup(workload, seed))
            setup_scales.append(REFERENCE_PROBE_MS / calibration_ms(9))
        pool = build(ap, seed)
        loop = loop or Loop(len(pool), probe=True)
        busy += loop.run_pass(pool)
    digest = loop.check(pool)
    pool = None
    while len(setups) < SETUP_REPS:
        setups.append(setup(workload, seed))
        setup_scales.append(REFERENCE_PROBE_MS / calibration_ms(9))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the probe
    reuse, probe_failed = reuse_probe(build, ap, seed)
    loop.failed_ops += probe_failed
    if reuse > REUSE_LIMIT:
        loop.failed_ops.append(
            f"reuse probe: relabeled copies took {reuse:.3g}x as long as repeats "
            f"(limit {REUSE_LIMIT}); the program reuses work across calls"
        )
    measured = loop.op_times(scaled=False)
    op_times = sorted(loop.op_times())
    pct, tail, beyond = tail_percentile(op_times)
    metrics = {
        "ops_per_s": (loop.attempted - loop.failed) / loop.passes / sum(op_times),
        "op_p50_ms": statistics.median(op_times) * 1e3,
        "op_tail_ms": tail * 1e3,
        "ok_ratio": (loop.attempted - loop.failed) / loop.attempted,
        "setup_s": statistics.median(t * k for t, k in zip(setups, setup_scales)),
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "pool_ops": loop.size,
        "passes": loop.passes,
        "busy_s": busy,
        "first_pass_s": loop.first_pass_s,
        "median_sum_s": sum(measured),
        "scaled_sum_s": sum(op_times),
        "probe_ms": statistics.median(loop.probe_s) * 1e3,
        "probes": len(loop.probe_s),
        "reuse_probe_ratio": reuse,
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": beyond,
        "setup_runs_s": setups,
        "setup_scales": setup_scales,
        "errors": loop.errors,
        "failed_ops": loop.failed_ops,
        "digest": digest,
    }
    return loop, metrics, END_TO_END_UNITS, details


def traced_run(workload: str, seed: int):
    setup(workload, seed)
    pool = workloads.WORKLOADS[workload](importlib.import_module("apaths"), seed)
    tracer = tracing.Tracer()
    loop = Loop(len(pool), tracer)
    loop.run_pass(pool)
    digest = loop.check(pool)
    spans_file = OUT / f"trace-{workload}-seed{seed}.csv.gz"
    tracer.write(spans_file)
    details = {
        "pool_ops": len(pool),
        "untraced_s": tracer.plain_s,
        "traced_s": tracer.traced_s,
        "spans": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "errors": loop.errors,
        "failed_ops": loop.failed_ops,
        "digest": digest,
    }
    return loop, tracer.metrics(), tracing.METRIC_UNITS, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "apaths" / "__init__.py").is_file():
        print(f"no apaths sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    calibration = [calibration_ms()]
    if args.trace:
        loop, metrics, units, details = traced_run(args.workload, args.seed)
    else:
        loop, metrics, units, details = timed_run(args.workload, args.seed, args.seconds)
    calibration.append(calibration_ms())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "facts": run_facts(calibration),
        **details,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    for name in units:
        line = f"{name:34s} {metrics[name]:.6g} {units[name]}"
        if name == "op_tail_ms":
            line += (f"  (p{details['op_tail_percentile']:g} of {details['pool_ops']} ops' median times, "
                     f"{details['op_tail_samples_beyond']} beyond)")
        print(line)
    facts = record["facts"]
    print(f"facts    python {facts['python']}, nproc {facts['nproc']}, cpu {facts['cpu']}, "
          f"load_1m {facts['load_1m']:.2f}, speed probe ms before/after "
          + "/".join(f"{c:.3f}" for c in facts["calibration_ms"]))
    if "reuse_probe_ratio" in details:
        print(f"passes   {details['passes']}, first {details['first_pass_s']:.4g} s, median runs summed "
              f"{details['median_sum_s']:.4g} s as measured; reuse probe {details['reuse_probe_ratio']:.4f} "
              f"(limit {REUSE_LIMIT})")
        print(f"speed    probe median {details['probe_ms']:.4g} ms over {details['probes']} probes; times "
              f"above are at the reference speed (probe {REFERENCE_PROBE_MS:g} ms): median runs summed "
              f"{details['scaled_sum_s']:.4g} s")
    print(f"digest   {details['digest']}  errors {details['errors'] or 'none'}")
    for label in loop.failed_ops:
        print(f"failed   {label}")
    print(json.dumps({
        "correct": loop.failed == 0 and not loop.failed_ops,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
