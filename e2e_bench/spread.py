#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs one workload once per seed and prints, for every metric, the median,
the first and third quartiles (Python's ``statistics.quantiles(n=4)``) and
their distance as a share of the median -- the spread the bounds in
``BENCHMARK.json`` are set against.

    python3 e2e_bench/spread.py --workload route_small --seeds 1-10 \
        [--seconds 20] [--trace 0] [--bin PATH]

Without ``--bin`` each run goes through ``cargo run --release``. Run it from
the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bin")
    args = ap.parse_args()
    cmd = [args.bin] if args.bin else [
        "cargo", "run", "--quiet", "--release", "--offline",
        "--manifest-path", "e2e_bench/Cargo.toml", "--"]
    values, hashes = {}, set()
    for seed in seeds(args.seeds):
        run = subprocess.run(
            cmd + ["--workload", args.workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=False)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect\n{run.stderr}")
        hashes.add(next(l for l in lines if l.startswith("inputs_hash")))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            l for l in lines if l.startswith(("workload", "wall_s", "pass_spread"))),
              file=sys.stderr)
    print(f"{args.workload}: {len(hashes)} distinct inputs over {len(seeds(args.seeds))} seeds")
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8}")
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {share:8.4f}")


if __name__ == "__main__":
    main()
