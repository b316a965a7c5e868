#!/usr/bin/env python3
"""Builds the serving benchmark and runs one workload.

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The binary is built with cargo into
$CARGO_TARGET_DIR (default: .bench_build) and run with
SHENJING_NUM_THREADS=1, so two serving workers are two compute threads.
With --trace 0, set-up time is the median of SETUP_SAMPLES cold set-ups,
each in a fresh process: the measuring run's own and SETUP_SAMPLES - 1
probes. The last line printed is the result JSON; any failure exits
non-zero without one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 150


def build(manifest: Path, env: dict) -> Path:
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        env=env,
        stdout=sys.stderr,
        check=True,
    )
    return target / "release" / "servebench"


def run_json(cmd: list, env: dict) -> dict:
    """Runs one benchmark process and parses its last output line."""
    out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"{cmd[0]} exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    env = dict(os.environ, SHENJING_NUM_THREADS="1")
    binary = build(Path(__file__).resolve().parent / "Cargo.toml", env)
    common = [str(binary), "--workload", args.workload, "--seed", str(args.seed)]
    result = run_json(common + ["--seconds", str(args.seconds), "--trace", args.trace], env)
    if args.trace == "0":
        setup = result["metrics"]["setup_s"]
        samples = [setup["value"]]
        for _ in range(SETUP_SAMPLES - 1):
            samples.append(run_json(common + ["--setup-probe"], env)["setup_s"])
        setup["value"] = statistics.median(samples)
        print(f"setup_s samples: {samples}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError, KeyError) as e:
        print(f"servebench: {e}", file=sys.stderr)
        sys.exit(1)
