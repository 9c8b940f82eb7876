#!/usr/bin/env bash
# One-command reproduction: build, run the full test suite, regenerate every
# experiment table (E1..E10, X1..X9 — including the live-runtime RSM service
# over real threads, real sockets, the sharded multi-group fabric, the
# client workload campaigns, the round-synchronizer comparison, and the
# Byzantine-adversary grid), and leave the outputs in test_output.txt /
# bench_output.txt at the repository root.
#
# INDULGENCE_JOBS controls the campaign engine's worker count (default: all
# cores).  The tables are bit-identical at any setting; INDULGENCE_JOBS=1 is
# the sequential reference mode.  Campaign timing / runs-per-second lines are
# emitted on stderr and captured separately in bench_timing.txt so
# bench_output.txt stays byte-stable across job counts and machines.
set -euo pipefail
cd "$(dirname "$0")/.."

# Ninja for fresh trees; an existing build/ keeps whatever generator it was
# configured with (CMake refuses to switch generators in place).
if [ -f build/CMakeCache.txt ]; then
  cmake -B build
else
  cmake -B build -G Ninja
fi
cmake --build build
ctest --test-dir build --output-on-failure 2>&1 | tee test_output.txt

: > bench_timing.txt
{
  for b in build/bench/*; do
    if [ -x "$b" ] && [ -f "$b" ]; then
      echo "################ $(basename "$b") ################"
      "$b" 2>> bench_timing.txt
      echo "---- exit: $? ----"
      echo
    fi
  done
} | tee bench_output.txt

# The fuzz smoke: every target must match the paper's verdict from the
# fixed default seed, and every checked-in repro must still reproduce.
./build/fuzz/fuzz_consensus --corpus tests/corpus 2>> bench_timing.txt
./build/fuzz/fuzz_consensus 2>> bench_timing.txt

# The Byzantine fuzz smoke: budgeted liars draw the five lie classes;
# A_{t+2}^auth must survive every draw, its ablations must break, and the
# crash-only algorithms are scored as vulnerable (the corpus replay above
# already re-judged the shrunk byz-*.sched seeds).
./build/fuzz/fuzz_consensus --byz 1 --n 4 --t 1 --seed 3 --budget 300 \
    2>> bench_timing.txt

# The live fuzz smoke: randomized LiveOptions over real threads — every
# lossy draw must be flagged invalid, no target may produce a finding, and
# the stdout table is bit-identical per seed.
./build/fuzz/fuzz_consensus --live --seed 1 --budget 8 2>> bench_timing.txt

# The synchronizer fuzz smoke: the same live oracles under the pacemaker
# and fast-path round-close policies, with random transient corruption of
# the synchronizer soft state injected per draw (X8 ran the bench grid in
# the loop above; this exercises the randomized path).
./build/fuzz/fuzz_consensus --live --sync pacemaker --seed 2 --budget 6 \
    2>> bench_timing.txt
./build/fuzz/fuzz_consensus --live --sync faststep --seed 3 --budget 6 \
    2>> bench_timing.txt

# The socket fuzz smoke: randomized runs over Unix-domain sockets with
# seeded wire chaos; every run must merge into a validator-clean trace and
# match the lockstep kernel replay.
./build/fuzz/fuzz_consensus --socket --seed 1 --budget 6 2>> bench_timing.txt

# The sharded fuzz smoke: several independent groups of each target per
# draw over one group-multiplexed fabric; every group's merged trace is
# judged by the same oracle, so demux bleed shows up as a finding.
./build/fuzz/fuzz_consensus --socket --groups 4 --seed 1 --budget 3 \
    2>> bench_timing.txt

# The live-runtime smoke: the RSM demo runs the replicated log as a real
# threaded service and re-validates every merged trace (X5 ran in the bench
# loop above; this exercises the example entry point too).
./build/examples/live_rsm_demo 2>> bench_timing.txt

# The multi-process smoke: one group, one OS process per replica, over
# Unix-domain sockets and TCP loopback, per-process trace logs shipped back
# and merged; the chaos variants (seeded resets / stalls / short writes
# before "GST") must not change the verdict.
./build/examples/sharded_rsm_demo --nodes 3 --groups 1 2>> bench_timing.txt
./build/examples/sharded_rsm_demo --nodes 3 --groups 1 --chaos \
    2>> bench_timing.txt
./build/examples/sharded_rsm_demo --nodes 3 --groups 1 --tcp --chaos \
    2>> bench_timing.txt

# The sharded smoke: 8 consensus groups hash-partitioned across 4 OS
# processes on one group-multiplexed fabric; every per-group merged trace
# must pass the unchanged validator and every group's committed log must
# agree across its members, chaos included.
./build/examples/sharded_rsm_demo --groups 8 2>> bench_timing.txt
./build/examples/sharded_rsm_demo --groups 8 --chaos 2>> bench_timing.txt

# The client-campaign smoke: closed- and open-loop fleets over the
# in-process, socket, and sharded runtimes (X7 ran its full grid plus the
# million-command campaign in the bench loop above; this exercises the
# example entry point).  Afterwards, every BENCH_*.json the benches wrote
# into build/ must keep its key schema, baselines included.
./build/examples/client_rsm_demo 2>> bench_timing.txt
scripts/check_bench_keys.sh build

echo "Reproduction complete: see test_output.txt and bench_output.txt" \
     "(campaign timing: bench_timing.txt)."
