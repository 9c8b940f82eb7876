// Outside-in tracing for the live-RSM benchmark: decorators around the RSM
// replica and the per-slot consensus algorithm, timed wrappers around the
// client's command source and commit callback, and the post-run analyses
// that read the returned traces and replay sampled bundles through the
// wire codec.  Nothing here changes what the program does; it only times
// the calls the runtime already makes across these public seams.

#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "rsm/rsm.hpp"
#include "sim/trace.hpp"

namespace livebench {

using indulgence::AlgorithmFactory;
using indulgence::MessagePtr;
using indulgence::RoundAlgorithm;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Allocations made by the calling thread (counted by the benchmark's
/// global operator new).
std::int64_t thread_allocations();

/// What one replica's driver thread spent, and where.  Touched only by
/// that thread while the run is live; read after the drivers joined.
struct ReplicaLayers {
  std::int64_t rsm_build_ns = 0;  ///< message_for_round, children excluded
  std::int64_t rsm_apply_ns = 0;  ///< on_round, children excluded
  std::int64_t step_ns = 0;       ///< everything inside the replica's calls
  std::int64_t slot_ns = 0;       ///< slot algorithms, incl. construction
  long slot_calls = 0;
  std::int64_t source_ns = 0;
  long source_calls = 0;
  std::int64_t commit_ns = 0;
  long commit_calls = 0;
  long bundles = 0;
  long bundle_parts = 0;
  /// Steady-clock instants (ns) at which each round's send phase began and
  /// its receive phase returned; index = round - 1.
  std::vector<std::int64_t> round_start;
  std::vector<std::int64_t> round_end;
  /// Every `kSampleEvery`-th bundle this replica built, for the wire replay.
  std::vector<MessagePtr> samples;

  /// Time spent in timed children of the replica call now on the stack.
  std::int64_t child_ns = 0;
};

/// Per-(group, replica) layer records of one traced run.
class LayerProbe {
 public:
  LayerProbe(int groups, int n);

  ReplicaLayers& at(indulgence::GroupId group, indulgence::ProcessId pid) {
    return *layers_[static_cast<std::size_t>(group * n_ + pid)];
  }
  const ReplicaLayers& at(indulgence::GroupId group,
                          indulgence::ProcessId pid) const {
    return *layers_[static_cast<std::size_t>(group * n_ + pid)];
  }
  const std::vector<std::unique_ptr<ReplicaLayers>>& all() const {
    return layers_;
  }
  int n() const { return n_; }

  /// Wraps an RSM replica factory: every replica it builds is decorated.
  AlgorithmFactory wrap_replicas(AlgorithmFactory inner,
                                 indulgence::GroupId group);
  /// Wraps the per-slot consensus factory (slot construction is timed too).
  static AlgorithmFactory wrap_slots(AlgorithmFactory inner);

  indulgence::RsmCommandSource wrap_source(indulgence::RsmCommandSource inner,
                                           indulgence::GroupId group,
                                           indulgence::ProcessId pid);
  indulgence::RsmCommitCallback wrap_commit(
      indulgence::RsmCommitCallback inner, indulgence::GroupId group,
      indulgence::ProcessId pid);

 private:
  int n_;
  std::vector<std::unique_ptr<ReplicaLayers>> layers_;
};

/// The RSM replica behind a possibly decorated algorithm instance.
const indulgence::RsmReplica* as_replica(const RoundAlgorithm* algorithm);

/// Driver-level figures of one traced run, from the layer records.
struct DriverFigures {
  double wall_s = 0;  ///< sum over replicas of first send to last receive
  double step_s = 0;
  double rsm_build_s = 0;
  double rsm_apply_s = 0;
  double slot_s = 0;
  double source_s = 0;
  double commit_s = 0;
  long slot_calls = 0;
  long source_calls = 0;
  long commit_calls = 0;
  long rounds = 0;  ///< rounds summed over replicas
  long bundles = 0;
  long bundle_parts = 0;
  double round_us_p50 = 0;
  double round_us_p99 = 0;
};

DriverFigures driver_figures(const LayerProbe& probe);

/// Synchronizer and network figures read from one merged trace.
struct TraceFigures {
  long records = 0;
  long deliveries = 0;
  long delayed = 0;  ///< delivered in a later round than sent
  /// Live in-round senders missing at a receiver, over rounds that the
  /// receiver began at or after the wall-clock GST.
  long false_suspicions = 0;
  /// trace.gst() minus the first round any replica began after the wall
  /// GST (0 when no round began after it).
  long gst_lag_rounds = 0;
};

TraceFigures trace_figures(const indulgence::RunTrace& trace,
                           const LayerProbe& probe, indulgence::GroupId group,
                           std::int64_t wall_gst_ns);

/// Sampled bundles replayed through the public wire encoder and
/// FrameParser, on the calling thread.
struct WireFigures {
  double encode_ns = 0;  ///< per frame
  double decode_ns = 0;
  double encode_allocs = 0;
  double decode_allocs = 0;
  double bytes_per_frame = 0;
  bool round_trip_ok = true;  ///< every frame decoded back to an envelope
};

WireFigures replay_wire(const LayerProbe& probe);

}  // namespace livebench
