// The live-RSM benchmark.  One workload per invocation:
//
//   livebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke]
//
// Each run drives the whole live stack — client fleet -> RSM replicas ->
// per-slot A_{t+2} (failure-free optimised, over Hurfin-Raynal) -> round
// drivers over the in-process router or the sharded UDS fabric -> merged
// trace + validator -> ingest oracle — several times ("reps"), composing
// the public entry points itself so that every timing is taken outside the
// program.  End-to-end metrics come from untraced reps and are reported as
// the median over reps.  With --trace 1 one extra rep runs with decorators
// around the RSM replica, the slot algorithm, the command source and the
// commit callback, and the per-layer metrics come from it.
//
// A rep counts only if it passes the correctness gate: the ingest oracle
// is ok, every merged trace is validator-clean, the run ended through the
// armed stop, the ack target was reached before the deadline, and (open
// loop) both the offered and the served rate came within kOfferedBound of
// the target.  Human tables go to stderr; the last line on stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "client/campaign.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "core/at2.hpp"
#include "net/runtime.hpp"
#include "net/sharded_runtime.hpp"
#include "sim/validator.hpp"
#include "trace.hpp"

// --- allocation counting (wire replay) --------------------------------------
// A per-thread counter keeps the hook free of shared writes, so untraced
// reps pay one thread-local increment per allocation and nothing else.

namespace {
thread_local std::int64_t t_allocations = 0;
}

std::int64_t livebench::thread_allocations() { return t_allocations; }

// noinline: once GCC inlines these it pairs the malloc with operator new's
// free and warns about a mismatched deallocation.
__attribute__((noinline)) void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t size) {
  return ::operator new(size);
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
  std::free(p);
}

namespace livebench {
namespace {

using namespace indulgence;
using client::ClientFleet;
using client::LatencyHistogram;
using client::LoopMode;
using client::WorkloadOptions;
using std::chrono::microseconds;

// --- workloads ---------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  bool sharded = false;
  SystemConfig config{3, 1};
  int groups = 1;
  int nodes = 3;
  LoopMode mode = LoopMode::Closed;
  int clients = 4;
  int outstanding = 0;     ///< closed loop, per client
  double rate = 0;         ///< open loop, aggregate cmd/s
  int pending_window = 256;
  int burst = 1;
  Round retention = 0;
  microseconds round_floor{0};
  microseconds quorum_grace = LiveOptions{}.quorum_grace;
  microseconds gst{0};
  LatencyModel pre_gst;
  long warmup = 0;
  long measure = 0;
  /// Commands committed per round at most (over all groups), for sizing
  /// the round cap.
  double acks_per_round = 1;
};

// Why these three: bulk-inproc is bound by the RSM bundle build/apply and
// the client commit callbacks, with nothing on the wire; sharded-uds puts
// every copy through wire encode/decode, the coalesced flush and the group
// demux, with 24 driver threads on 4 cores; paced-gst is the paper's fault
// model — pre-GST asynchrony, false suspicions and slow-path slots — at a
// fixed offered rate where rounds are floor-bound and the synchronizer
// sets latency.  Crash faults are left out: ClientFleet never re-homes a
// dead replica's commands, so failures would measure that gap.  bulk-inproc
// saturates every core, so its latency tail tracks the host's steal time
// more than the program; it runs by hand but is not a gated workload.
//
// The closed-loop workloads keep more threads runnable than there are
// cores, so a driver often waits a scheduler slice to run.  The default
// 400 us grace window then suspects it, some slots fall to the slow path,
// and how many swings with the host's load from run to run (decision
// round means of 2.06 to 2.96 across seeds on bulk-inproc).  A grace
// window of one slice keeps only the suspicions that outlast it.
constexpr microseconds kSliceGrace{2'000};

/// How far an open loop's offered or served rate may fall short of its
/// target before the rep fails.  It equals the throughput_cps bound in
/// BENCHMARK.json, so a rep that passes cannot by itself move throughput
/// past what the benchmark tolerates.
constexpr double kOfferedBound = 0.25;

/// A rep during which anything but this process used more than this share
/// of the host's CPU (other processes, or the hypervisor's steal) is left
/// out of the medians; see run().
constexpr double kOtherCpuLimit = 0.05;

std::vector<WorkloadSpec> workloads() {
  std::vector<WorkloadSpec> specs;

  WorkloadSpec bulk;
  bulk.name = "bulk-inproc";
  bulk.mode = LoopMode::Closed;
  bulk.outstanding = 512;
  bulk.burst = 128;
  bulk.retention = 2;
  bulk.quorum_grace = kSliceGrace;
  bulk.warmup = 20'000;
  bulk.measure = 100'000;
  bulk.acks_per_round = 128;
  specs.push_back(bulk);

  WorkloadSpec sharded;
  sharded.name = "sharded-uds";
  sharded.sharded = true;
  sharded.groups = 8;
  sharded.nodes = 3;
  sharded.mode = LoopMode::Closed;
  sharded.outstanding = 256;
  sharded.burst = 16;
  sharded.retention = 2;
  sharded.quorum_grace = kSliceGrace;
  sharded.warmup = 5'000;
  // Validation grows with rounds squared, so verdict_s of a long rep swings
  // with the host's cache traffic; 25k acks (~250 rounds per group) gave a
  // five-seed verdict_s spread of 0.09 against 0.17 at 50k acks, with the
  // other figures unchanged.
  sharded.measure = 25'000;
  sharded.acks_per_round = 16.0 * 8;
  specs.push_back(sharded);

  WorkloadSpec paced;
  paced.name = "paced-gst";
  paced.config = SystemConfig{5, 2};
  paced.mode = LoopMode::OpenPoisson;
  paced.rate = 1500;
  paced.pending_window = 256;
  paced.burst = 4;
  paced.retention = 8;
  paced.round_floor = microseconds{1'000};
  // A grace window shorter than the round floor never waits for a replica
  // that fell one round behind, so a phase offset picked up before GST
  // persists after it and every later slot takes the slow path; which reps
  // land in that regime is chance, so the figures turn bimodal.  A grace
  // window past the floor pulls the replicas back into phase, and pre-GST
  // copies of up to 1.7 ms still outlast it.
  paced.quorum_grace = microseconds{1'200};
  paced.pre_gst = LatencyModel{microseconds{200}, microseconds{1'500}};
  // The validator scans the whole delivery record for every (round,
  // receiver) pair, so its time grows with rounds squared; once the
  // records outgrow a core's 2 MB L2 (about 1500 rounds at n = 5) each
  // scan streams from the shared L3 and verdict_s doubles or halves with
  // the neighbours' cache traffic.  A short run keeps them in L2.
  paced.gst = microseconds{500'000};
  paced.warmup = 300;
  paced.measure = 1'500;
  paced.acks_per_round = 1.5;  // 1500 cmd/s over >= 1 ms rounds
  specs.push_back(paced);
  return specs;
}

/// A seconds-long setting of a workload, for the smoke test.
WorkloadSpec smoke(WorkloadSpec spec) {
  spec.warmup = std::max<long>(100, spec.warmup / 10);
  spec.measure = std::max<long>(600, spec.measure / 15);
  spec.gst = spec.gst / 5;
  return spec;
}

// --- one rep -----------------------------------------------------------------

struct TracedFigures {
  DriverFigures driver;
  TraceFigures trace;  ///< summed over groups (gst lag: max)
  WireFigures wire;
  SocketCounters socket;
  double validator_s = 0;
  double oracle_s = 0;
  double group_wall_spread = 0;
  long group_envelopes = 0;
};

struct RepResult {
  bool oracle_ok = false;
  bool valid = false;
  bool armed_stop = false;
  bool reached = false;
  bool offered_ok = true;
  client::FleetCounters counts;
  LatencyHistogram latency;
  double throughput = 0;
  double offered_ratio = 0;
  double setup_s = 0;
  double verdict_s = 0;
  double wall_s = 0;
  long peak_rss_kb = 0;  ///< sampled while the rep ran
  /// Share of the host's CPU time that went to anything but this process
  /// while the rep ran: other processes, and the hypervisor's steal.
  double other_cpu_share = 0;
  long rounds = 0;  ///< rounds executed, max over groups
  long noop_commits = 0;
  long committed_commands = 0;
  /// decision_hist[d] = (replica, slot) commits decided in round d of the
  /// slot; the last entry collects everything later than t + 2.
  std::vector<long> decision_hist;
  double decision_mean = 0;
  std::optional<TracedFigures> traced;

  bool correct() const { return oracle_ok && valid; }
  bool passed() const {
    return correct() && armed_stop && reached && offered_ok;
  }
};

/// Value at quantile q, in milliseconds (histogram values are in us).
double quantile_ms(const LatencyHistogram& h, double q) {
  return static_cast<double>(h.quantile(q)) / 1e3;
}

/// Resident set size of this process, from /proc/self/status.
long rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return 0;
}

/// CPU ticks of the host as this machine sees them (/proc/stat), and of
/// this process (/proc/self/stat); both count in the same clock ticks.
struct CpuTicks {
  long busy = 0;  ///< every field but idle and iowait; steal included
  long total = 0;
  long own = 0;
};

CpuTicks cpu_ticks() {
  CpuTicks t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    long v = 0;
    stat >> v;
    t.total += v;
    if (field != 3 && field != 4) t.busy += v;
  }
  // Fields 14 and 15 (utime, stime) follow the parenthesised command name.
  std::ifstream self("/proc/self/stat");
  std::string line;
  std::getline(self, line);
  std::istringstream rest(line.substr(line.rfind(')') + 1));
  std::string field;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i >= 14) t.own += std::atol(field.c_str());
  }
  return t;
}

double other_cpu_share(const CpuTicks& from, const CpuTicks& to) {
  const long total = to.total - from.total;
  const long other = (to.busy - from.busy) - (to.own - from.own);
  return total > 0 ? std::max(0.0, static_cast<double>(other) /
                                       static_cast<double>(total))
                   : 0;
}

/// Samples the resident set every few milliseconds while one rep runs.
/// VmHWM would hold the peak of every rep the process ran so far, so
/// reps could not each report their own figure.
class RssSampler {
 public:
  RssSampler() : thread_([this] { loop(); }) {}
  ~RssSampler() { stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stops sampling; returns the peak seen, in kB.
  long stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return peak_kb_;
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    do {
      peak_kb_ = std::max(peak_kb_, rss_kb());
    } while (!cv_.wait_for(lock, std::chrono::milliseconds{5},
                           [this] { return stop_; }));
    peak_kb_ = std::max(peak_kb_, rss_kb());
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  long peak_kb_ = 0;
  std::thread thread_;  // last: starts after the members it uses
};

/// Folds one merged trace's verdict into the rep, printing the first
/// violation so a failed gate says why.
void note_validation(RepResult& rep, const ValidationReport& report,
                     GroupId group) {
  if (report.ok()) return;
  if (rep.valid) {
    std::fprintf(stderr, "  group %d trace invalid: %s\n", group,
                 report.violations.front().c_str());
  }
  rep.valid = false;
}

void note_first_ack(std::atomic<std::int64_t>& first, Value value) {
  if (is_rsm_noop(value) || first.load(std::memory_order_relaxed) != 0) return;
  std::int64_t expected = 0;
  first.compare_exchange_strong(expected, now_ns(), std::memory_order_relaxed);
}

RepResult run_rep(const WorkloadSpec& spec, std::uint64_t seed, bool traced) {
  RssSampler rss;
  const CpuTicks ticks0 = cpu_ticks();
  const int n = spec.config.n;
  const long acks = spec.warmup + spec.measure;

  LiveOptions live;
  live.seed = seed;
  live.gst = spec.gst;
  live.pre_gst = spec.pre_gst;
  live.round_floor = spec.round_floor;
  live.quorum_grace = spec.quorum_grace;
  // Three times the rounds the ack target needs at full bundles, so only a
  // stalled run hits the cap.
  live.max_rounds = static_cast<Round>(
      3.0 * static_cast<double>(acks) / spec.acks_per_round + 2'000);

  RsmOptions rsm;
  rsm.slot_window = 1;
  rsm.slot_burst = spec.burst;
  rsm.decide_retention = spec.retention;
  rsm.num_slots = (live.max_rounds + 2) * spec.burst;

  WorkloadOptions w;
  w.mode = spec.mode;
  w.num_clients = spec.clients;
  w.outstanding = spec.outstanding;
  w.target_rate_per_sec = spec.rate;
  w.pending_window = spec.pending_window;
  w.warmup_commands = spec.warmup;
  w.measure_commands = spec.measure;
  w.deadline = microseconds{60'000'000};
  w.seed = seed * 31 + 7;

  ClientFleet fleet(w, spec.groups, n);
  std::optional<LayerProbe> probe;
  if (traced) probe.emplace(spec.groups, n);

  std::atomic<std::int64_t> first_ack{0};
  const auto source_for = [&](GroupId g, ProcessId pid) {
    RsmCommandSource source = fleet.source_for(g, pid);
    return probe ? probe->wrap_source(std::move(source), g, pid) : source;
  };
  const auto commit_for = [&](GroupId g, ProcessId pid) {
    RsmCommitCallback commit = [inner = fleet.commit_for(g, pid), &first_ack](
                                   int slot, Value value, Round round) {
      note_first_ack(first_ack, value);
      inner(slot, value, round);
    };
    return probe ? probe->wrap_commit(std::move(commit), g, pid) : commit;
  };
  At2Options ff;
  ff.failure_free_opt = true;
  AlgorithmFactory slots = at2_factory(hurfin_raynal_factory(), ff);
  if (probe) slots = LayerProbe::wrap_slots(std::move(slots));

  // The load ends when the ack target is reached: the first driver to see
  // it stops the client threads, so arrivals during the drain, teardown and
  // validation are neither offered nor shed.
  std::atomic<bool> load_ended{false};
  const DonePredicate fleet_done = fleet.done_predicate();
  const DonePredicate done = [&](const RoundAlgorithm& algorithm) {
    if (!fleet_done(algorithm)) return false;
    if (!load_ended.exchange(true)) fleet.finish();
    return true;
  };

  RepResult rep;
  rep.valid = true;
  std::int64_t epoch_ns = 0;
  const auto on_start = [&](std::chrono::steady_clock::time_point epoch) {
    epoch_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   epoch.time_since_epoch())
                   .count();
    fleet.start(epoch);
  };
  const std::vector<Value> noops(static_cast<std::size_t>(n), kNoOpCommand);

  std::vector<const RunTrace*> traces;
  std::vector<std::vector<const RsmReplica*>> replicas(
      static_cast<std::size_t>(spec.groups));
  std::int64_t last_round_ns = 0;
  std::int64_t call_ns = 0;
  std::int64_t done_ns = 0;
  double oracle_s = 0;

  // Both targets keep their results alive until the figures are read.
  std::optional<RunResult> live_result;
  std::optional<ShardedResult> sharded_result;
  std::optional<LiveRuntime> runtime;

  const auto check_oracle = [&] {
    const std::int64_t t0 = now_ns();
    const client::OracleReport oracle =
        client::check_ingest_oracle(fleet, replicas);
    oracle_s = static_cast<double>(now_ns() - t0) / 1e9;
    rep.oracle_ok = oracle.ok();
    rep.noop_commits = oracle.noop_commits;
    rep.committed_commands = oracle.committed_commands;
  };

  if (!spec.sharded) {
    AlgorithmFactory factory = rsm_ingest_factory(
        slots, [&](ProcessId pid) { return source_for(0, pid); },
        [&](ProcessId pid) { return commit_for(0, pid); }, rsm);
    if (probe) factory = probe->wrap_replicas(std::move(factory), 0);
    runtime.emplace(spec.config, live);
    std::vector<std::int64_t> last_round_us(static_cast<std::size_t>(n), 0);
    runtime->set_observer([&last_round_us](ProcessId pid, Round,
                                           const RoundAlgorithm&,
                                           microseconds since_start) {
      last_round_us[static_cast<std::size_t>(pid)] = since_start.count();
    });
    runtime->set_done_predicate(done);
    runtime->set_start_hook(on_start);
    call_ns = now_ns();
    live_result.emplace(runtime->run(factory, noops));
    fleet.finish();
    for (const auto& algorithm : runtime->algorithms()) {
      replicas[0].push_back(as_replica(algorithm.get()));
    }
    check_oracle();
    done_ns = now_ns();
    last_round_ns =
        epoch_ns +
        *std::max_element(last_round_us.begin(), last_round_us.end()) * 1000;
    note_validation(rep, live_result->validation, 0);
    rep.armed_stop = live_result->trace.terminated();
    traces.push_back(&live_result->trace);
    rep.rounds = live_result->trace.rounds_executed();
  } else {
    ShardedOptions options;
    options.num_nodes = spec.nodes;
    options.num_groups = spec.groups;
    options.config = spec.config;
    options.live = live;
    options.kind = SocketAddress::Kind::Unix;
    options.done = done;
    options.on_start = on_start;
    const GroupFactory base =
        sharded_rsm_ingest_factory(slots, source_for, commit_for, rsm);
    GroupFactory factory_for = base;
    if (probe) {
      factory_for = [&probe, base](GroupId g) {
        return probe->wrap_replicas(base(g), g);
      };
    }
    call_ns = now_ns();
    sharded_result.emplace(run_sharded(
        options, factory_for, [&noops](GroupId) { return noops; }));
    fleet.finish();
    for (const auto& [g, outcome] : sharded_result->groups) {
      for (const auto& algorithm : outcome.algorithms) {
        replicas[static_cast<std::size_t>(g)].push_back(
            as_replica(algorithm.get()));
      }
    }
    check_oracle();
    done_ns = now_ns();
    // No round observer reaches the sharded drivers; a group's wall ends
    // when its last driver exits, right after its last round.
    std::int64_t last_wall_us = 0;
    rep.armed_stop = true;
    for (const auto& [g, outcome] : sharded_result->groups) {
      last_wall_us = std::max<std::int64_t>(last_wall_us, outcome.wall.count());
      note_validation(rep, outcome.result.validation, g);
      rep.armed_stop = rep.armed_stop && outcome.result.trace.terminated();
      traces.push_back(&outcome.result.trace);
      rep.rounds = std::max<long>(rep.rounds,
                                  outcome.result.trace.rounds_executed());
    }
    last_round_ns = epoch_ns + last_wall_us * 1000;
  }

  // --- end-to-end figures ---------------------------------------------------
  rep.peak_rss_kb = rss.stop();
  const CpuTicks ticks1 = cpu_ticks();
  rep.other_cpu_share = other_cpu_share(ticks0, ticks1);
  rep.counts = fleet.counters();
  rep.latency = fleet.merged_measure_histogram();
  const double span = fleet.measured_span_seconds();
  rep.throughput =
      span > 0 ? static_cast<double>(rep.counts.measured_acked) / span : 0;
  rep.reached = fleet.target_reached() && !fleet.hit_deadline();
  if (spec.mode != LoopMode::Closed) {
    const double offered_span = fleet.offered_span_seconds();
    rep.offered_ratio =
        offered_span > 0 ? static_cast<double>(fleet.total_offered()) /
                               offered_span / spec.rate
                         : 0;
    // Latency is stamped at submit, so a late generator would hide queueing;
    // and a service that falls behind its offered rate has a growing backlog,
    // so its latency has no steady value.  Either fails the rep.
    rep.offered_ok = rep.offered_ratio >= 1.0 - kOfferedBound &&
                     rep.throughput >= (1.0 - kOfferedBound) * spec.rate;
  } else {
    rep.offered_ratio = 1.0;
  }
  const std::int64_t first = first_ack.load();
  rep.setup_s = first > 0 ? static_cast<double>(first - call_ns) / 1e9 : 0;
  rep.verdict_s = static_cast<double>(done_ns - last_round_ns) / 1e9;
  rep.wall_s = static_cast<double>(done_ns - call_ns) / 1e9;

  // The paper's metric: slot s starts at round (s / burst) * window + 1, so
  // a commit learned in round r took r - start + 1 rounds.
  const int t = spec.config.t;
  rep.decision_hist.assign(static_cast<std::size_t>(t + 4), 0);
  double decision_sum = 0;
  long decisions = 0;
  for (const auto& group : replicas) {
    for (const RsmReplica* replica : group) {
      if (!replica) continue;
      for (std::size_t s = 0; s < replica->log().size(); ++s) {
        if (!replica->log()[s]) continue;
        const Round start =
            static_cast<Round>(s / static_cast<std::size_t>(spec.burst)) *
                rsm.slot_window +
            1;
        const Round d = replica->commit_round(static_cast<int>(s)) - start + 1;
        decision_sum += d;
        ++decisions;
        const auto bucket = std::clamp<std::size_t>(
            static_cast<std::size_t>(std::max(d, 0)), 0,
            rep.decision_hist.size() - 1);
        ++rep.decision_hist[bucket];
      }
    }
  }
  rep.decision_mean = decisions > 0 ? decision_sum / decisions : 0;

  // --- per-layer figures (traced rep only) ----------------------------------
  if (probe) {
    TracedFigures f;
    f.oracle_s = oracle_s;
    f.driver = driver_figures(*probe);
    const std::int64_t wall_gst_ns =
        epoch_ns + std::chrono::duration_cast<std::chrono::nanoseconds>(
                       spec.gst)
                       .count();
    const std::int64_t v0 = now_ns();
    for (std::size_t g = 0; g < traces.size(); ++g) {
      note_validation(rep, validate_trace(*traces[g]),
                      static_cast<GroupId>(g));
    }
    f.validator_s = static_cast<double>(now_ns() - v0) / 1e9;
    for (std::size_t g = 0; g < traces.size(); ++g) {
      const TraceFigures tf = trace_figures(*traces[g], *probe,
                                            static_cast<GroupId>(g),
                                            wall_gst_ns);
      f.trace.records += tf.records;
      f.trace.deliveries += tf.deliveries;
      f.trace.delayed += tf.delayed;
      f.trace.false_suspicions += tf.false_suspicions;
      f.trace.gst_lag_rounds =
          std::max(f.trace.gst_lag_rounds, tf.gst_lag_rounds);
    }
    f.wire = replay_wire(*probe);
    if (sharded_result) {
      f.socket = sharded_result->counters;
      std::int64_t lo = std::numeric_limits<std::int64_t>::max(), hi = 0;
      for (const auto& [g, outcome] : sharded_result->groups) {
        lo = std::min<std::int64_t>(lo, outcome.wall.count());
        hi = std::max<std::int64_t>(hi, outcome.wall.count());
        f.group_envelopes += outcome.traffic.envelopes_sent;
      }
      f.group_wall_spread =
          lo > 0 ? static_cast<double>(hi) / static_cast<double>(lo) : 0;
    }
    rep.traced = f;
  }
  return rep;
}

// --- reporting ---------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) os << ", ";
    os << "\"" << metrics[i].name << "\": {\"value\": "
       << json_number(metrics[i].value) << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}";
  return os.str();
}

/// Commands a rep was asked to serve, and those it failed: the shed and
/// abandoned ones, or every one when the rep failed its gate.
long attempted_commands(const RepResult& r) {
  return r.counts.submitted + r.counts.shed;
}
long failed_commands(const RepResult& r) {
  return r.passed() ? r.counts.shed + r.counts.abandoned
                    : attempted_commands(r);
}

double served_share(long attempted, long failed) {
  return attempted > 0 ? 1.0 - static_cast<double>(failed) /
                                   static_cast<double>(attempted)
                       : 0;
}

/// End-to-end metrics of one rep, in the order BENCHMARK.json lists them.
/// The gated tail is p90: on a shared host the 1% tail follows the
/// hypervisor's steal bursts (a slot whose driver was descheduled past the
/// grace window takes the slow path), and its run-to-run spread exceeded
/// any usable bound.  p99 is still printed beside the gated metrics.
std::vector<Metric> end_to_end(const RepResult& r) {
  return {
      {"throughput_cps", "1/s", r.throughput},
      {"commit_p50_ms", "ms", quantile_ms(r.latency, 0.50)},
      {"commit_p90_ms", "ms", quantile_ms(r.latency, 0.90)},
      {"served_share", "ratio",
       served_share(attempted_commands(r), failed_commands(r))},
      {"decision_round_mean", "rounds", r.decision_mean},
      {"setup_s", "s", r.setup_s},
      {"verdict_s", "s", r.verdict_s},
      {"peak_rss_mb", "MB", static_cast<double>(r.peak_rss_kb) / 1024.0},
  };
}

void print_rep(const std::string& label, const RepResult& r) {
  std::fprintf(stderr,
               "  %s: %s  acked %ld  %.0f cmd/s  p50 %.3f ms  p99 %.3f "
               "ms  setup %.3f s  verdict %.3f s  decision %.4f  rounds %ld  "
               "noops %ld  other cpu %.1f%%  [oracle %s, valid %s, armed-stop %s, "
               "target %s, offered %s %.3f]\n",
               label.c_str(), r.passed() ? "pass" : "FAIL", r.counts.acked,
               r.throughput, quantile_ms(r.latency, 0.5),
               quantile_ms(r.latency, 0.99), r.setup_s, r.verdict_s,
               r.decision_mean, r.rounds, r.noop_commits,
               100 * r.other_cpu_share, r.oracle_ok ? "ok" : "NO",
               r.valid ? "ok" : "NO", r.armed_stop ? "ok" : "NO",
               r.reached ? "ok" : "NO", r.offered_ok ? "ok" : "NO",
               r.offered_ratio);
}

std::vector<Metric> per_layer(const RepResult& r) {
  const TracedFigures& f = *r.traced;
  const DriverFigures& d = f.driver;
  const auto num = [](auto v) { return static_cast<double>(v); };
  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const std::vector<long>& hist = r.decision_hist;
  const std::size_t over = hist.size() - 1;
  double decisions = 0;
  double mid = 0;  // rounds 3 .. t + 2
  for (std::size_t k = 0; k <= over; ++k) {
    decisions += num(hist[k]);
    if (k >= 3 && k < over) mid += num(hist[k]);
  }
  const double fast = num(hist[0] + hist[1] + hist[2]);
  const double client_s = d.source_s + d.commit_s;
  const double rsm_s = d.rsm_build_s + d.rsm_apply_s;
  const double wait_s = d.wall_s - d.step_s;
  const SocketCounters& sock = f.socket;
  return {
      {"client.commit_cb.ns", "ns", per(d.commit_s * 1e9, num(d.commit_calls))},
      {"client.commit_cb.calls", "count", num(d.commit_calls)},
      {"client.source.ns", "ns", per(d.source_s * 1e9, num(d.source_calls))},
      {"client.source.calls", "count", num(d.source_calls)},
      {"client.oracle.s", "s", f.oracle_s},
      {"client.offered_ratio", "ratio", r.offered_ratio},
      {"client.commit_p99_ms", "ms", quantile_ms(r.latency, 0.99)},
      {"rsm.build.us_per_round", "us", per(d.rsm_build_s * 1e6, num(d.rounds))},
      {"rsm.apply.us_per_round", "us", per(d.rsm_apply_s * 1e6, num(d.rounds))},
      {"rsm.parts_per_bundle", "count",
       per(num(d.bundle_parts), num(d.bundles))},
      {"rsm.busy_share", "ratio", per(rsm_s, d.wall_s)},
      {"rsm.noop_share", "ratio",
       per(num(r.noop_commits), num(r.noop_commits + r.committed_commands))},
      {"consensus.step.ns", "ns", per(d.slot_s * 1e9, num(d.slot_calls))},
      {"consensus.calls_per_commit", "count",
       per(num(d.slot_calls), decisions)},
      {"consensus.slow_share", "ratio", per(decisions - fast, decisions)},
      {"decision.r3_to_t2_share", "ratio", per(mid, decisions)},
      {"decision.over_t2_share", "ratio", per(num(hist[over]), decisions)},
      {"net.driver.round_us.p50", "us", d.round_us_p50},
      {"net.driver.round_us.p99", "us", d.round_us_p99},
      {"net.driver.wait_share", "ratio", per(wait_s, d.wall_s)},
      {"net.sync.false_suspicions", "count", num(f.trace.false_suspicions)},
      {"net.sync.gst_lag_rounds", "rounds", num(f.trace.gst_lag_rounds)},
      {"net.delayed_share", "ratio",
       per(num(f.trace.delayed), num(f.trace.deliveries))},
      {"net.socket.frames_per_flush", "ratio",
       per(num(sock.envelopes_sent + sock.envelopes_resent),
           num(sock.flush_syscalls))},
      {"net.socket.resent", "count", num(sock.envelopes_resent)},
      {"net.socket.reconnects", "count", num(sock.reconnects)},
      {"net.socket.demux_drops", "count", num(sock.demux_drops)},
      {"net.wire.encode_ns", "ns", f.wire.encode_ns},
      {"net.wire.decode_ns", "ns", f.wire.decode_ns},
      {"net.wire.encode_allocs", "count", f.wire.encode_allocs},
      {"net.wire.decode_allocs", "count", f.wire.decode_allocs},
      {"net.wire.bytes_per_frame", "B", f.wire.bytes_per_frame},
      {"net.sharded.group_wall_spread", "ratio", f.group_wall_spread},
      {"net.sharded.envelopes_per_commit", "ratio",
       per(num(f.group_envelopes), num(r.committed_commands))},
      {"net.teardown_merge.s", "s", r.verdict_s - f.validator_s - f.oracle_s},
      {"sim.validator.s", "s", f.validator_s},
      {"sim.trace.records", "count", num(f.trace.records)},
      {"sim.validator.ns_per_record", "ns",
       per(f.validator_s * 1e9, num(f.trace.records))},
      {"mem.rss_kb_per_ack", "KB",
       per(num(r.peak_rss_kb), num(r.counts.acked))},
      {"round.client_share", "ratio", per(client_s, d.wall_s)},
      {"round.consensus_share", "ratio", per(d.slot_s, d.wall_s)},
      {"host.other_cpu_share", "ratio", r.other_cpu_share},
  };
}

void print_round_table(const WorkloadSpec& spec, const RepResult& r) {
  const TracedFigures& f = *r.traced;
  const DriverFigures& d = f.driver;
  const auto share = [](double a, double b) {
    return b > 0 ? 100 * a / b : 0.0;
  };
  std::fprintf(stderr,
               "\nWhere a round goes (%s, traced rep; %ld replica-rounds, "
               "driver wall %.3f s summed over replicas)\n",
               spec.name.c_str(), d.rounds, d.wall_s);
  const struct {
    const char* part;
    double s;
  } rows[] = {
      {"client callbacks (source + commit)", d.source_s + d.commit_s},
      {"RSM self (bundle build + apply)", d.rsm_build_s + d.rsm_apply_s},
      {"slot consensus (A_{t+2} steps)", d.slot_s},
      {"driver wait + unattributed (remainder)", d.wall_s - d.step_s},
  };
  for (const auto& row : rows) {
    std::fprintf(stderr, "  %-40s %9.3f s  %5.1f%%\n", row.part, row.s,
                 share(row.s, d.wall_s));
  }
  std::fprintf(stderr, "  unattributed share: %.1f%% (no in-program spans "
                       "yet; wait and untimed work are not separated)\n",
               share(d.wall_s - d.step_s, d.wall_s));
  const double other = r.verdict_s - f.validator_s - f.oracle_s;
  std::fprintf(stderr, "\nWhere verdict_s goes (%.3f s)\n", r.verdict_s);
  std::fprintf(stderr, "  %-40s %9.3f s  %5.1f%%\n", "validator (re-run)",
               f.validator_s, share(f.validator_s, r.verdict_s));
  std::fprintf(stderr, "  %-40s %9.3f s  %5.1f%%\n", "ingest oracle",
               f.oracle_s, share(f.oracle_s, r.verdict_s));
  std::fprintf(stderr, "  %-40s %9.3f s  %5.1f%%\n", "teardown + merge (rest)",
               other, share(other, r.verdict_s));
  long total = 0;
  for (long c : r.decision_hist) total += c;
  std::fprintf(stderr, "\nDecision rounds per (replica, slot), t = %d\n",
               spec.config.t);
  const std::size_t over = r.decision_hist.size() - 1;
  for (std::size_t k = 0; k <= over; ++k) {
    const long c = r.decision_hist[k];
    if (k < 2) continue;  // folded into round 2 below
    long count = c;
    if (k == 2) count += r.decision_hist[0] + r.decision_hist[1];
    std::string label = k == over ? "> t+2" : std::to_string(k);
    if (k + 1 == over) label += " (t+2)";
    std::fprintf(stderr, "  round %-12s %10ld  %5.1f%%\n", label.c_str(),
                 count, share(static_cast<double>(count),
                              static_cast<double>(total)));
  }
}

/// Rep i of a run draws all its randomness from this seed.
std::uint64_t rep_seed(std::uint64_t seed, int rep) {
  return seed * 1'000'003ULL + static_cast<std::uint64_t>(rep);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
      return argv[++i];
    };
    if (key == "--workload") a.workload = value();
    else if (key == "--seed") a.seed = std::stoull(value());
    else if (key == "--seconds") a.seconds = std::stod(value());
    else if (key == "--trace") a.trace = std::stoi(value()) != 0;
    else if (key == "--smoke") a.smoke = true;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

int run(const Args& args) {
  const std::vector<WorkloadSpec> specs = workloads();
  const auto it = std::find_if(specs.begin(), specs.end(), [&](const auto& s) {
    return s.name == args.workload;
  });
  if (it == specs.end()) {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }
  const WorkloadSpec spec = args.smoke ? smoke(*it) : *it;
  // Reps run until --seconds of wall time have passed (at least three, so
  // every median has a middle), and stop early when one more could not end
  // well inside the three minutes a run may take.  The first rep warms the
  // process (heap, thread stacks, socket paths) and is gated but not
  // reported: later reps reuse what it faulted in, as a long-running
  // service would.
  const int min_reps = args.smoke ? 1 : 3;
  const bool warm_up = !args.smoke;
  constexpr double kBudgetSeconds = 150;
  std::fprintf(stderr,
               "livebench %s: seed %llu, reps of %ld warmup + %ld measured "
               "acks for %g s%s\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               spec.warmup, spec.measure, args.seconds,
               args.smoke ? " (smoke)" : "");
  const std::int64_t started = now_ns();
  std::vector<RepResult> results;  // [0] is the warm-up rep, if any
  for (int i = 0;; ++i) {
    const int reported = i - (warm_up ? 1 : 0);
    const double elapsed = static_cast<double>(now_ns() - started) / 1e9;
    if (reported >= min_reps && elapsed >= args.seconds) break;
    if (reported > 0 &&
        elapsed + 1.5 * results.back().wall_s > kBudgetSeconds) {
      std::fprintf(stderr, "  time budget reached after %d rep(s)\n", i);
      break;
    }
    results.push_back(run_rep(spec, rep_seed(args.seed, i), false));
    print_rep(reported < 0 ? "warm-up" : "rep " + std::to_string(reported + 1),
              results.back());
  }

  // Every rep counts toward the result line; a rep that fails its gate
  // contributes all its commands as failed and none of its figures.
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  const auto account = [&](const RepResult& r) {
    correct = correct && r.correct();
    attempted += attempted_commands(r);
    failed += failed_commands(r);
  };
  std::vector<const RepResult*> passed;
  std::vector<const RepResult*> quiet;
  for (std::size_t i = 0; i < results.size(); ++i) {
    account(results[i]);
    if (results[i].passed() && !(warm_up && i == 0)) {
      passed.push_back(&results[i]);
      if (results[i].other_cpu_share <= kOtherCpuLimit) {
        quiet.push_back(&results[i]);
      }
    }
  }
  const std::size_t reported = results.size() - (warm_up ? 1 : 0);
  // Other processes on the host take cores from the drivers: one busy
  // core cuts sharded-uds's throughput by about a third, and four put
  // paced-gst's replicas out of phase (decision round mean ~2.8 against
  // 2.17).  Reps that ran beside such load are gated and printed but left
  // out of the medians, as long as enough reps ran without it.
  const std::size_t loaded = passed.size() - quiet.size();
  if (quiet.size() >= static_cast<std::size_t>(min_reps)) {
    passed = quiet;
  } else if (loaded > 0) {
    std::fprintf(stderr,
                 "  warning: only %zu rep(s) ran with other processes below "
                 "%.0f%% of the host's CPU; the medians include loaded reps\n",
                 quiet.size(), 100 * kOtherCpuLimit);
  }

  std::vector<std::vector<Metric>> per_rep;
  for (const RepResult* r : passed) per_rep.push_back(end_to_end(*r));
  std::vector<Metric> medians = end_to_end(RepResult{});
  std::uint64_t samples = 0;
  for (const RepResult* r : passed) samples += r->latency.count();
  std::fprintf(stderr,
               "\n%s end to end (untraced; median over %zu passing rep(s) of "
               "%zu; %zu ran beside other load)\n",
               spec.name.c_str(), passed.size(), reported, loaded);
  std::fprintf(stderr, "  %-22s %-7s %14s %14s %14s\n", "metric", "unit",
               "median", "min", "max");
  for (std::size_t m = 0; m < medians.size(); ++m) {
    std::vector<double> values;
    for (const auto& rep : per_rep) values.push_back(rep[m].value);
    // Passing reps alone would always read 1: the served share is the
    // run's, over every rep, so a rep that fails its gate lowers it.
    const bool run_total = medians[m].name == "served_share";
    medians[m].value =
        run_total ? served_share(attempted, failed) : median(values);
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    std::fprintf(stderr, "  %-22s %-7s %14.6g %14.6g %14.6g",
                 medians[m].name.c_str(), medians[m].unit.c_str(),
                 medians[m].value, values.empty() ? 0.0 : *lo,
                 values.empty() ? 0.0 : *hi);
    if (run_total) std::fprintf(stderr, "   (over every rep)");
    if (medians[m].name.rfind("commit_", 0) == 0) {
      std::fprintf(stderr, "   (%llu latency samples)",
                   static_cast<unsigned long long>(samples));
    }
    std::fprintf(stderr, "\n");
  }
  std::vector<double> p99;
  std::vector<double> other_cpu;
  for (const RepResult* r : passed) {
    p99.push_back(quantile_ms(r->latency, 0.99));
    other_cpu.push_back(r->other_cpu_share);
  }
  std::fprintf(stderr, "  %-22s %-7s %14.6g   (printed, not gated)\n",
               "commit_p99_ms", "ms", median(p99));
  std::fprintf(stderr,
               "  commands: %ld attempted, %ld failed; median other cpu "
               "%.1f%%\n",
               attempted, failed, 100 * median(other_cpu));

  std::vector<Metric> output = medians;
  bool have_numbers = !passed.empty();
  if (args.trace) {
    // Rep index 999: inputs no untraced rep of this seed draws.
    RepResult traced = run_rep(spec, rep_seed(args.seed, 999), true);
    std::fprintf(stderr, "\n");
    print_rep("traced rep", traced);
    account(traced);
    correct = correct && traced.traced->wire.round_trip_ok;
    have_numbers = have_numbers && traced.passed();

    // Tracing overhead: the traced rep's end-to-end figures beside the
    // untraced medians; the difference is the cost of the decorators.
    std::vector<Metric> with = end_to_end(traced);
    std::fprintf(stderr,
                 "\nTracing overhead (traced rep vs untraced median)\n");
    std::fprintf(stderr, "  %-22s %-7s %14s %14s %9s\n", "metric", "unit",
                 "untraced", "traced", "diff");
    for (std::size_t m = 0; m < with.size(); ++m) {
      const double base = medians[m].value;
      std::fprintf(stderr, "  %-22s %-7s %14.6g %14.6g %8.1f%%\n",
                   with[m].name.c_str(), with[m].unit.c_str(), base,
                   with[m].value,
                   base != 0 ? 100 * (with[m].value - base) / base : 0.0);
    }
    print_round_table(spec, traced);
    output = per_layer(traced);
    std::fprintf(stderr, "\nPer-layer metrics (%s, traced rep)\n",
                 spec.name.c_str());
    for (const Metric& m : output) {
      std::fprintf(stderr, "  %-34s %-7s %14.6g\n", m.name.c_str(),
                   m.unit.c_str(), m.value);
    }
  }

  if (!have_numbers) output.clear();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << json_metrics(output) << "}" << std::endl;
  return correct && have_numbers ? 0 : 1;
}

}  // namespace
}  // namespace livebench

int main(int argc, char** argv) {
  try {
    return livebench::run(livebench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "livebench: %s\n", e.what());
    return 2;
  }
}
