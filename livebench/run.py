#!/usr/bin/env python3
"""Build and run the live-RSM benchmark on one workload.

Usage, from the root of a checkout:

    python3 livebench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1> [--smoke]

The script builds the repository's library sources together with the
benchmark program (livebench/CMakeLists.txt) into the directory named by
CARGO_TARGET_DIR (default .bench_build), runs the program, and relays its
standard output, whose last line is the JSON result.  Build logs and the
human-readable tables go to standard error.  Every file the run creates,
Unix-domain sockets included, stays inside the checkout.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bulk-inproc", "sharded-uds", "paced-gst")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"livebench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_root, env):
    build_dir = os.path.join(build_root, "livebench")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [configure, ["cmake", "--build", build_dir, "-j", "4"]]
    for step in steps:
        if subprocess.run(step, env=env, stdout=sys.stderr,
                          stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "livebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long setting of the workload")
    args = parser.parse_args()

    # Temporary files stay in the checkout: the compiler's under an absolute
    # path (it runs from the build tree), the run's socket files under a
    # short relative one, so their paths stay within the Unix-domain limit
    # wherever the checkout lives.
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    tmp = os.path.join(os.path.relpath(build_root), "tmp")
    os.makedirs(tmp, exist_ok=True)
    binary = build(build_root, dict(os.environ, TMPDIR=os.path.abspath(tmp)))
    env = dict(os.environ, TMPDIR=tmp)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
