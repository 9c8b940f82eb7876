// A replicated state machine on top of the consensus API — the downstream
// system the paper's introduction motivates ("in many real systems, most
// runs are actually synchronous"): replicas agree on a log of commands, one
// consensus instance (slot) per log position.
//
// Design:
//   * Slot s is an independent consensus instance whose round 1 is global
//     round s * window + 1.  Because every replica derives slot rounds from
//     the global round number, the per-slot lock-step alignment that
//     round-based algorithms require is preserved, and slots PIPELINE: with
//     window = 1 and the failure-free-optimized A_{t+2}, a synchronous
//     failure-free run commits one command per round after a 2-round
//     warm-up.
//   * Each round a replica broadcasts a bundle holding one part per active
//     slot: the slot algorithm's message, or a DECIDE notice once the
//     replica knows the slot's outcome (so slow replicas always catch up).
//     A part is a flat value (rsm/part.hpp), so a bundle is one vector; a
//     receiver settles DECIDE parts directly and builds a Message only for
//     a part that feeds a live slot instance.
//     `decide_retention` bounds how long outcomes are re-broadcast; the
//     default (forever) matches the original behavior, while long-running
//     campaigns set a finite retention so per-round bundles stay O(active
//     slots) rather than O(log length).
//   * Command selection: a replica obtains commands one way only, by
//     pulling its RsmCommandSource — a fixed list (rsm_list_source) or a
//     live client layer (src/client) — and reports every commit through
//     its RsmCommitCallback.  Each drawn command keeps the rank of its
//     first draw; one that loses its slot re-enters a small pool and is
//     re-proposed, lowest rank first, before the source is pulled again.
//     Kernel propose() values rank before everything.  With nothing
//     pending the replica proposes kNoOpCommand.
//
// The RSM never "decides" in the single-shot sense — drive the kernel with
// stop_on_global_decision = false and query logs afterwards.

#pragma once

#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "consensus/consensus.hpp"
#include "rsm/part.hpp"

namespace indulgence {

/// Committed when a replica had nothing to propose.
inline constexpr Value kNoOpCommand = -1;

/// On the wire a no-op is the per-replica sentinel max - self (consensus
/// proposals must be comparable and non-reserved, and with a min-wins slot
/// algorithm the sentinel loses to every real command).  Classifier for log
/// readers; assumes self < 4096, far above any real group size here.
inline bool is_rsm_noop(Value v) {
  return v > std::numeric_limits<Value>::max() - 4096;
}

/// Pull-based command ingest: "the next client command for a fresh slot",
/// or nullopt when nothing is pending (the slot proposes a no-op).  Called
/// on the replica's own driver thread; implementations synchronize their
/// own state.  The replica never asks again for a command it drew: a lost
/// command is retried from the replica's own pool (exactly-once
/// submission stays with the home replica).
using RsmCommandSource = std::function<std::optional<Value>()>;

/// A source yielding `commands` in order, then nothing.  Throws
/// std::invalid_argument on a reserved value (kBottom, kNoOpCommand).
RsmCommandSource rsm_list_source(std::vector<Value> commands);

/// Commit notification, fired on the replica's driver thread as soon as
/// this replica learns a slot's outcome — including no-op outcomes and
/// commands proposed by other replicas.  Every replica reports every slot
/// it learns, so a client layer must deduplicate across replicas.
using RsmCommitCallback =
    std::function<void(int slot, Value value, Round round)>;

struct RsmOptions {
  int num_slots = 8;     ///< how many log positions to run: a bound, not an
                         ///< allocation (per-slot state grows as slots
                         ///< start)
  Round slot_window = 0; ///< rounds between slot starts; 0 means t + 3
                         ///< (A_{t+2}'s synchronous worst case, no overlap)
  int slot_burst = 1;    ///< slots opened together per window step: burst b
                         ///< starts slots [i*b, (i+1)*b) at round
                         ///< i*window + 1, so b commands share each bundle
                         ///< round-trip.  1 reproduces the classic one-slot
                         ///< cadence.
  Round decide_retention = 0;  ///< how many rounds after a local commit the
                               ///< DECIDE notice keeps riding the bundle;
                               ///< 0 = forever (the original behavior).
                               ///< Post-GST a laggard hears a retained
                               ///< notice within one round, so a small
                               ///< value suffices once bounds hold.
};

/// The per-round bundle: one part per active slot, by value, in strictly
/// ascending slot order.  The bundle owns its parts; nothing in them points
/// anywhere, so a retained copy in a trace costs one vector.
class RsmBundleMessage final : public Message {
 public:
  /// Throws std::invalid_argument unless the slots strictly ascend.
  explicit RsmBundleMessage(std::vector<RsmPart> parts);

  const std::vector<RsmPart>& parts() const { return parts_; }

  std::string describe() const override;

  /// Part-wise equality: the same slots carrying equal payloads.
  bool same_content(const Message& other) const override;

 private:
  std::vector<RsmPart> parts_;
};

class RsmReplica : public RoundAlgorithm {
 public:
  /// `slot_factory` builds the consensus algorithm used per slot (e.g.
  /// at2_factory(...)); fresh slots pull commands from `source` (must be
  /// non-empty); `on_commit` (may be empty) hears every slot outcome this
  /// replica learns.
  RsmReplica(ProcessId self, const SystemConfig& config,
             AlgorithmFactory slot_factory, RsmCommandSource source,
             RsmCommitCallback on_commit, RsmOptions options = {});

  // --- RoundAlgorithm ------------------------------------------------------

  /// The kernel-supplied proposal ranks before every drawn command.
  void propose(Value v) override;

  MessagePtr message_for_round(Round k) override;
  void on_round(Round k, const Delivery& delivered) override;

  /// An RSM runs for as long as the kernel drives it.
  std::optional<Value> decision() const override { return std::nullopt; }
  bool halted() const override { return false; }
  std::string name() const override { return "RSM"; }

  // --- log access ----------------------------------------------------------

  /// One entry per slot started so far (at most num_slots): log()[s] holds
  /// slot s's committed command once known to this replica.  Slots past
  /// log().size() have not started here yet.
  const std::vector<std::optional<Value>>& log() const { return log_; }

  /// Number of leading slots committed at this replica (O(1): maintained
  /// incrementally so done-predicates can poll it every round).
  int committed_prefix() const { return prefix_; }

  bool all_slots_committed() const { return prefix_ == options_.num_slots; }

  /// Slots committed at this replica so far (not necessarily a prefix).
  long committed_count() const { return committed_count_; }

  /// Round at which this replica learned slot s (0 if not yet, including
  /// every slot past the started range).
  Round commit_round(int slot) const {
    return slot >= 0 && static_cast<std::size_t>(slot) < commit_rounds_.size()
               ? commit_rounds_[static_cast<std::size_t>(slot)]
               : 0;
  }

 private:
  /// Round 1 of slot s.  Slots in the same burst share a start round, so a
  /// burst of b commits b commands per window of rounds once warmed up.
  Round slot_start(int slot) const {
    return static_cast<Round>(slot / burst_) * window_ + 1;
  }
  int last_started_slot(Round k) const;
  /// Extends the per-slot state to cover slots [0, last].
  void grow_to(int last);
  void ensure_started(Round k);
  void start_slot(int slot);
  /// A command with the rank of its first draw (propose() ranks are
  /// negative, source draws count up from 0).
  struct Ranked {
    Value value = kNoOpCommand;
    long rank = 0;
  };
  /// The lowest-ranked usable command — pooled first, then fresh draws —
  /// or kNoOpCommand.  Reserved, committed and in-flight values are
  /// dropped here and nowhere else.
  Ranked next_command();
  void record_commit(int slot, Value v, Round round);

  /// A committed slot whose DECIDE notice is still riding the bundle;
  /// `until` = 0 means forever.
  struct Retained {
    int slot = 0;
    Round until = 0;
  };

  AlgorithmFactory slot_factory_;
  RsmCommandSource source_;
  RsmCommitCallback commit_callback_;
  /// Lost commands and kernel proposals awaiting (re-)proposal, by rank.
  std::map<long, Value> pool_;
  long next_draw_rank_ = 0;
  long next_propose_rank_ = -1;
  RsmOptions options_;
  Round window_ = 1;
  int burst_ = 1;

  // Per-slot state, index = slot, covering the slots started so far.
  std::vector<std::unique_ptr<RoundAlgorithm>> slots_;
  std::vector<Ranked> proposed_;  ///< ours, per slot (no-op if none)
  std::vector<std::optional<Value>> log_;
  std::vector<Round> commit_rounds_;
  std::set<Value> committed_values_;
  std::set<Value> inflight_;

  /// Started-but-uncommitted slots, ascending — the per-round working set.
  std::vector<int> open_;
  std::vector<int> round_slots_;  ///< scratch for on_round's iteration

  /// on_round's walk of one delivered bundle: the next part not yet passed.
  struct BundleCursor {
    const Envelope* envelope = nullptr;
    const RsmPart* next = nullptr;
    const RsmPart* end = nullptr;
  };
  std::vector<BundleCursor> cursors_;  ///< scratch, valid within on_round
  Delivery inner_;                     ///< scratch: one slot's delivery
  /// Committed slots still re-broadcasting DECIDE, in commit order (so
  /// expiry pruning pops from the front).
  std::deque<Retained> retained_;
  int started_hwm_ = 0;  ///< every slot below is started or committed
  int prefix_ = 0;       ///< cached committed_prefix()
  long committed_count_ = 0;

  ProcessId self_;
  SystemConfig config_;
};

/// Live-ingest factory: replicas pull commands from per-replica sources
/// and report commits through per-replica callbacks.  The client workload
/// layer (src/client) plugs in here.
AlgorithmFactory rsm_ingest_factory(
    AlgorithmFactory slot_factory,
    std::function<RsmCommandSource(ProcessId)> source_for,
    std::function<RsmCommitCallback(ProcessId)> commit_for,
    RsmOptions options = {});

/// Fixed-list factory: rsm_ingest_factory over
/// rsm_list_source(commands_for(replica)), with no commit callback.
AlgorithmFactory rsm_factory(AlgorithmFactory slot_factory,
                             std::function<std::vector<Value>(ProcessId)>
                                 commands_for,
                             RsmOptions options = {});

/// Group-factory adaptor for the sharded runtime (`run_sharded` /
/// `ShardedNode`): every group runs the same slot algorithm and RsmOptions
/// — including the slot_burst pipelining knob — with per-(group, replica)
/// command streams.  Plugs directly into run_sharded's `factory_for`.
std::function<AlgorithmFactory(GroupId)> sharded_rsm_factory(
    AlgorithmFactory slot_factory,
    std::function<std::vector<Value>(GroupId, ProcessId)> commands_for,
    RsmOptions options = {});

/// Sharded live ingest: per-(group, replica) sources and commit callbacks.
std::function<AlgorithmFactory(GroupId)> sharded_rsm_ingest_factory(
    AlgorithmFactory slot_factory,
    std::function<RsmCommandSource(GroupId, ProcessId)> source_for,
    std::function<RsmCommitCallback(GroupId, ProcessId)> commit_for,
    RsmOptions options = {});

}  // namespace indulgence
