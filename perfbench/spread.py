"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads grid,oracle --seeds 0-9 [--trace 1] [--out FILE]

Per workload and metric it prints the median over the runs and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a share
of the median, next to the metric's bound from BENCHMARK.json, and each run's
output digest and load. --out also writes all of it, with every run's values
and run facts, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict, float]:
    """The printed result, the run's record file (facts, digest, details) and
    the run's wall time in seconds."""
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    wall_s = time.perf_counter() - t0
    record = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return json.loads(proc.stdout.strip().splitlines()[-1]), record, wall_s


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    report: dict = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        runs = []
        for seed in parse_seeds(args.seeds):
            result, record, wall_s = run_once(spec, workload, seed, args.trace)
            runs.append({
                "seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"], "digest": record["digest"], "facts": record["facts"],
                "wall_s": wall_s,
                **{key: record[key] for key in ("passes", "reuse_probe_ratio", "probe_ms") if key in record},
            })
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} digest={record['digest'][:16]} wall_s={wall_s:.1f} "
                  f"load_1m={record['facts']['load_1m']:.2f} probe_ms={record.get('probe_ms', 0):.4f} "
                  f"reuse_probe={record.get('reuse_probe_ratio')}",
                  flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        metrics = {name: {"unit": units[name], **summarize(vals)} for name, vals in values.items()}
        report["workloads"][workload] = {"runs": runs, "metrics": metrics}
        print(f"{'metric':34s} {'median':>12s} {'iqr/median':>10s} {'bound':>6s}")
        for name, m in metrics.items():
            bound = bounds.get(name)
            print(f"{name:34s} {m['median']:12.6g} {m['spread']:10.4f} {'' if bound is None else bound:>6}",
                  flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
