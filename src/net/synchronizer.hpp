// Round-closing policy, extracted from RoundDriver into a strategy object.
//
// The driver owns everything a close rule must not be allowed to break: it
// waits on the mailbox, runs the shutdown drain, applies the `round_cap`
// escape valve, closes instantly on a full set of possibly-live senders,
// and — crucially — never consults the synchronizer below the n − t
// in-round quorum the validator's t-resilience check demands of every
// completed round.  What remains for the strategy is the indulgent
// question: once a quorum is in hand, how long do we wait for stragglers?
//
//   - LockstepSynchronizer: the historical rule, verbatim — hold the
//     quorum through `quorum_grace`, then suspect the rest.  Timer-paced:
//     every round costs at least the grace window (plus `round_floor`).
//   - PacemakerSynchronizer (Naor–Keidar, *Expected Linear Round
//     Synchronization*): the coordinator of round k — rotating (k−1) mod n
//     — publishes a round-advance pulse on a shared PulseBoard once it
//     holds a quorum of round-k messages; followers close on
//     pulse-or-timeout.  If the coordinator is crashed (the existing FD
//     plumbing: RunControl's crash accounting), followers close at quorum
//     immediately — leader rotation costs one observation, not a grace
//     window.  Message-paced: a stable leader drives rounds at network
//     speed (`round_floor` is waived).
//   - FastStepSynchronizer (Ryabinin–Gotsman–Sutra, *Revisiting Lower
//     Bounds for Two-Step Consensus*): hold every round open for the FULL
//     set, so A_{t+2}'s failure-free fast path (E5) sees all n unanimous
//     first-round echoes live and decides one message delay earlier.  Any
//     round that times out (`quorum_grace` without a full set) drops the
//     run into the indulgent slow path — sticky lockstep behaviour — so
//     disagreement or failure costs the paper's price, never safety.
//
// Synchronizer state is soft state: the fuzzer's transient-corruption
// injection (SyncCorruption) flips these bits mid-run, and the recovery
// obligation — the trace still validates, the run still terminates — holds
// because the driver's quorum floor and drain logic are out of reach.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/types.hpp"
#include "net/options.hpp"

namespace indulgence {

/// What the driver shows the close rule each poll iteration.  `in_round`
/// counts distinct round-k senders heard so far (the driver deduplicates
/// reliable-channel resends), `possible` = n minus reported crashes,
/// `quorum` = n − t.
struct SyncView {
  Round round = 0;
  int in_round = 0;
  int possible = 0;
  int quorum = 0;
  bool coordinator_crashed = false;
  std::chrono::steady_clock::time_point round_start{};
};

/// The pacemaker's shared signal: a monotonic high-water round mark, one
/// per consensus group, written by that round's coordinator and read by
/// every follower.  Lock-free; publish is a CAS-max so late or duplicate
/// pulses can never move the mark backwards.  Spans threads, not address
/// spaces — remote followers (multi-process shards) run the same policy
/// with a null board and degrade to the grace-timeout fallback.
class PulseBoard {
 public:
  /// Fired by the publisher each time the mark moves, so followers waiting
  /// on their mailboxes look at the board at once.  Set before the driver
  /// threads start.
  std::function<void()> on_publish;

  void publish(Round round) {
    Round seen = latest_.load(std::memory_order_acquire);
    while (seen < round) {
      if (latest_.compare_exchange_weak(seen, round,
                                        std::memory_order_acq_rel)) {
        if (on_publish) on_publish();
        return;
      }
    }
  }

  Round latest() const { return latest_.load(std::memory_order_acquire); }

 private:
  std::atomic<Round> latest_{0};
};

class RoundSynchronizer {
 public:
  virtual ~RoundSynchronizer() = default;

  virtual std::string name() const = 0;

  /// Round k just opened on this driver; reset per-round soft state.
  virtual void round_open(const SyncView& view) { (void)view; }

  /// Called once per poll iteration, before any close decision — the hook
  /// where a coordinator publishes its pulse even if its own round is
  /// about to close on a full set.
  virtual void observe(const SyncView& view,
                       std::chrono::steady_clock::time_point now) {
    (void)view;
    (void)now;
  }

  /// Quorum is in hand (view.in_round >= view.quorum, stop not requested):
  /// close now, or keep waiting for stragglers?
  virtual bool should_close(const SyncView& view,
                            std::chrono::steady_clock::time_point now) = 0;

  /// After should_close answered false: the earliest time its answer can
  /// turn true with no new message, crash or pulse (each of those wakes
  /// the driver itself); time_point::max() when only such an event can.
  virtual std::chrono::steady_clock::time_point close_deadline(
      const SyncView& view) const = 0;

  /// Whether `round_floor` (the RTT-emulation pacing knob) applies.  The
  /// timer-paced lockstep honours it; message-paced policies advance at
  /// network speed.
  virtual bool paced_by_floor() const { return true; }

  /// The round-k coordinator this policy listens to, or -1 when the policy
  /// has none; the driver feeds its crash status back via the SyncView.
  virtual ProcessId coordinator(Round round) const {
    (void)round;
    return -1;
  }

  /// Transient-fault injection: flip soft state according to `bits`
  /// (meaning is per-implementation).  Must leave the object usable.
  virtual void corrupt(std::uint64_t bits) { (void)bits; }
};

/// Factory keyed by LiveOptions::synchronizer.  `pulses` may be null (no
/// shared board reachable — e.g. a remote shard follower); the pacemaker
/// then runs on its timeout fallback.
std::unique_ptr<RoundSynchronizer> make_round_synchronizer(
    const LiveOptions& options, const SystemConfig& config, ProcessId self,
    PulseBoard* pulses);

const char* to_string(SyncKind kind);
std::optional<SyncKind> parse_sync_kind(const std::string& name);

}  // namespace indulgence
