#!/usr/bin/env python3
"""Smoke test of the live-RSM benchmark.

Runs the seconds-long setting of every workload through livebench/run.py,
untraced and traced, and checks that the run passed its correctness gate
and printed every metric BENCHMARK.json names, with its unit, both in the
human table on standard error and in the JSON result line.

Usage, from the root of a checkout:  python3 livebench/test_smoke.py [seed]
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(workload, trace, seed, spec):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    label = f"{workload} trace={trace}"
    errors = []
    if done.returncode != 0:
        errors.append(f"exit code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"bad result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("correctness gate failed")
    if not result.get("attempted", 0) >= 1:
        errors.append("nothing attempted")
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in expected):
        errors.append("metric names differ from BENCHMARK.json")
    for m in expected:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(
                got.get("value"), (int, float)):
            errors.append(f"{m['name']}: bad entry {got}")
        printed = any(m["name"] in line and f" {m['unit']} " in line
                      for line in done.stderr.splitlines())
        if not printed:
            errors.append(f"{m['name']} [{m['unit']}] not in the table")
    print(f"{'FAIL' if errors else 'ok  '} {label}")
    for e in errors:
        print(f"     {e}")
    if errors:
        sys.stderr.write(done.stderr[-4000:])
    return not errors


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sys.dont_write_bytecode = True
    sys.path.insert(0, HERE)
    from run import WORKLOADS  # every workload, gated or not
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            ok = check(workload, trace, seed, spec) and ok
    print("smoke: all passed" if ok else "smoke: FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
