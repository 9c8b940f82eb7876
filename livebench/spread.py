#!/usr/bin/env python3
"""Run the benchmark over several seeds and report run-to-run spread.

Usage, from the root of a checkout:

    python3 livebench/spread.py --workload <name> [--workload <name> ...] \\
        [--seeds 1-10] [--trace 0]

With several workloads the runs interleave: every workload runs once on a
seed before the next seed starts, as a comparison between two trees would
run them.  For each workload and end-to-end metric it prints the median of
the per-run values and the distance between their first and third
quartiles as a share of the median, beside the metric's bound from
BENCHMARK.json.  A spread above a
third of the bound is flagged: two sets of runs of the same code could
then disagree by more than the bound.  Every run must pass its
correctness gate.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    values = {w: {} for w in args.workload}
    ok = True
    for seed in args.seeds:
        for workload in args.workload:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"metrics": {}}
            good = (done.returncode == 0 and result.get("correct") is True
                    and result.get("failed") == 0)
            ok = ok and good
            line = " ".join(f"{k}={v['value']:.6g}"
                            for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {'ok' if good else 'FAILED'} "
                  f"{line}", flush=True)
            for name, entry in result["metrics"].items():
                values[workload].setdefault(name, []).append(entry["value"])

    if args.trace or len(args.seeds) < 2:
        return 0 if ok else 1
    for workload in args.workload:
        print(f"\n{workload}: {len(args.seeds)} runs")
        print(f"  {'metric':22} {'median':>12} {'spread':>8} {'bound':>7}")
        for metric in spec["end_to_end"]:
            v = values[workload].get(metric["name"], [])
            if len(v) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            flag = "" if spread <= metric["bound"] / 3 else "  > bound/3"
            print(f"  {metric['name']:22} {q2:12.6g} {spread:8.3f} "
                  f"{metric['bound']:7.2f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
