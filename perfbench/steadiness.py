#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Run from the root of a rodsim checkout:

    python3 perfbench/steadiness.py --seeds 1-10
    python3 perfbench/steadiness.py --seeds 1-5 --workloads carpet

Runs are interleaved (every workload once per seed, in turn), so slow drift
of the machine spreads over all workloads alike. For every workload and
end-to-end metric it prints the median and the spread: the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound from ``BENCHMARK.json``.
Each run's result line is kept in ``.perfbench/steadiness/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run as bench


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = bench.STATE_DIR / "steadiness"
    out_dir.mkdir(parents=True, exist_ok=True)
    log = out_dir / f"runs-{time.strftime('%Y%m%d-%H%M%S')}.jsonl"
    results = {w: [] for w in args.workloads}
    for seed in parse_seeds(args.seeds):
        for workload in args.workloads:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            start = time.perf_counter()
            done = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True, text=True,
                                  timeout=600)
            elapsed = time.perf_counter() - start
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
            result = json.loads(lines[-1])
            results[workload].append(result)
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "run_s": elapsed, "result": result}) + "\n")
            print(f"{workload:12s} seed {seed:3d}: {elapsed:6.1f} s, correct "
                  f"{result['correct']}, failed {result['failed']}/{result['attempted']}",
                  flush=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    print(f"\n{'workload':12s} {'metric':40s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for workload, runs in results.items():
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            if len(values) >= 2 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = f"{(q3 - q1) / abs(median):8.4f}"
            else:
                spread = f"{'-':>8s}"
            print(f"{workload:12s} {name:40s} {median:12.6g} {spread} "
                  f"{bound if bound is not None else '-':>6}")
    print(f"\nrun log: {log}")


if __name__ == "__main__":
    main()
