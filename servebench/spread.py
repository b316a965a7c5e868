#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 servebench/spread.py --workload <name> [--seeds 1-10] [--seconds 30] [--trace 0]

Run from the repository root. For every metric it prints the median, the
first and third quartiles (statistics.quantiles, n=4) and their distance
as a share of the median, next to the metric's bound from BENCHMARK.json.
Exits non-zero if any run fails or reports incorrect outputs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(spec: str) -> list:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    here = Path(__file__).resolve().parent
    bench = json.loads((here.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values = {}
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(here / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: run failed (exit {out.returncode})")
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect ({result['failed']} of {result['attempted']} failed)")
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}"
                                         for k, v in result["metrics"].items()), flush=True)

    print(f"\n{'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:36s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
