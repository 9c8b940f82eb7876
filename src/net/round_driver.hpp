// The round synchronizer: one RoundDriver per process, each on its own
// thread, adapting the lockstep RoundAlgorithm interface (propose /
// message_for_round / on_round) to an asynchronous network of mailboxes.
//
// Each driver executes the paper's two-phase round structure against real
// time: broadcast the round-k message (self-delivery inline, like the
// kernel's), then gate on the mailbox until the round can close —
// scripted mode waits for the exact envelope counts the schedule implies,
// live mode waits for every possibly-live sender, or a quorum of n - t
// plus whatever straggler policy the configured RoundSynchronizer runs
// (net/synchronizer.hpp: lockstep grace window, leader pacemaker, or the
// two-step fast path).  Early envelopes (from rounds the receiver has not
// reached) are buffered and adopted when their round starts, so a fast
// peer can never make a slow one mis-classify an in-round message as
// delayed: "in round" is a property of the receiver's own round counter,
// exactly as the validator defines it.
//
// One payload per broadcast: each driver registers its round-k payload
// with the group's RunControl before dispatching it, and a receiver in the
// same address space logs that object in place of its own decoded copy
// when the two have equal content.  A socket run then keeps one payload
// per (sender, round) in its trace, not one per receiver; forged and
// mismatched copies keep their own, so equivocation stays visible.
//
// Shutdown is the armed-stop protocol.  Once every live process reports
// done (or a round cap fires), RunControl requests a stop; each driver,
// at its next round boundary, arms once with the last round it completed,
// and the stop round S becomes the maximum over all live processes'
// candidates.  A driver may exit only when every live process has armed
// and its own next round exceeds S — so every live process sends and
// completes exactly rounds 1..S, which is precisely the shape the
// validator's synchrony and reliable-channel checks assume of a finished
// run.

#pragma once

#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "net/options.hpp"
#include "net/script.hpp"
#include "net/synchronizer.hpp"
#include "net/transport.hpp"
#include "sim/message.hpp"
#include "sim/process.hpp"
#include "sim/trace.hpp"

namespace indulgence {

/// Everything one process thread observed, recorded lock-free on that
/// thread and merged into a RunTrace after all threads join.
struct ProcessLog {
  Value proposal = kBottom;
  std::vector<SendRecord> sends;
  std::vector<DeliveryRecord> deliveries;
  std::vector<DecisionRecord> decisions;
  std::optional<CrashRecord> crash;
  Round halt_round = 0;  ///< 0 = never halted
  Round completed = 0;   ///< last fully executed round
  bool done = false;     ///< done-predicate held at exit
  /// Reliable-channel resends suppressed before they could double-count
  /// toward the quorum gate: copies of a (sender, send_round) pair this
  /// process had already received.
  long duplicate_copies = 0;
  /// Reorder-buffer leftovers at exit: scripted delays targeting rounds
  /// beyond the stop round.  They become the trace's pending records.
  std::vector<UndeliveredCopy> leftovers;
};

/// Shared coordination between driver threads: done/crash accounting, the
/// armed-stop shutdown protocol and the broadcast payload table.  All
/// methods are thread-safe.
class RunControl {
 public:
  explicit RunControl(SystemConfig config);

  /// Optional hook fired exactly once when the stop is first requested
  /// (the live runtime plugs the router's expedite() in here).  Set before
  /// the driver threads start.
  std::function<void()> on_stop;

  void report_done(ProcessId pid);
  void report_crash(ProcessId pid);

  /// Requests a stop regardless of done accounting; `completed` says
  /// whether the run counts as terminated (false for round-cap aborts).
  void force_stop(bool completed);

  bool stop_requested() const {
    return stop_.load(std::memory_order_acquire);
  }

  /// True when the run is stopping abnormally (round cap, peer failure);
  /// scripted gates bail out instead of waiting for envelopes that will
  /// never be sent.
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  /// The atomic round-boundary decision after a stop was requested: driver
  /// `pid` stands at the start of round `next_round`, having completed
  /// next_round - 1.  Returns true when the driver may exit — every live
  /// driver has reached a boundary (armed) and no live driver has committed
  /// to a round >= next_round.  Returns false when the driver must execute
  /// round next_round, in which case that round is committed as part of the
  /// stop round S *before* the lock is released — so no peer can exit
  /// without completing it, and all live processes finish on the same S.
  bool boundary(ProcessId pid, Round next_round);

  int crashed_count() const {
    return crashed_n_.load(std::memory_order_acquire);
  }

  /// Whether `pid` has reported a crash — the pacemaker's failure
  /// detector for coordinator rotation.
  bool is_crashed(ProcessId pid) const;

  /// True when the run stopped because every live process was done (as
  /// opposed to a round-cap abort).
  bool completed_normally() const;

  /// Wakes `mailbox` whenever the stop is requested or a crash is
  /// reported, so a driver waiting on it re-evaluates its round at once.
  /// Register before the driver threads start.
  void watch(Mailbox* mailbox) { watchers_.push_back(mailbox); }

  /// Ends the current mailbox wait of every watching driver.
  void wake_watchers() const;

  /// One payload per broadcast: a driver registers its round-`round`
  /// payload here before dispatching it, so every receiver in this address
  /// space can log the sender's own object instead of a decoded copy.
  void register_payload(ProcessId sender, Round round, MessagePtr payload);

  /// The payload `sender` registered for `round`, or null when none was
  /// registered here (the sender lives in another address space).
  MessagePtr registered_payload(ProcessId sender, Round round) const;

 private:
  void request_stop_locked(bool completed, bool& fire);
  /// Runs on_stop and wakes the watchers, once, outside the lock.
  void stopped();
  bool all_live_armed_locked() const;
  /// The stop round S: the maximum boundary candidate over processes that
  /// are still live.  A crashed process' candidate is dropped — its
  /// committed rounds will never be sent, so holding live peers to them
  /// would spin empty grace windows (and its armed bit is cleared by
  /// report_crash for the same reason).
  Round stop_round_locked() const;

  SystemConfig config_;
  mutable std::mutex mutex_;
  std::vector<char> done_;
  std::vector<char> crashed_;
  std::vector<char> armed_;
  std::vector<Round> candidate_;
  bool stopped_ = false;
  bool completed_ = false;
  std::atomic<bool> stop_{false};
  std::atomic<bool> aborted_{false};
  std::atomic<int> crashed_n_{0};
  std::vector<Mailbox*> watchers_;
  mutable std::mutex payloads_mutex_;
  /// [sender][round - 1]: each driver's registered broadcasts.
  std::vector<std::vector<MessagePtr>> payloads_;
};

struct DriverContext {
  ProcessId self = -1;
  SystemConfig config;
  const LiveOptions* options = nullptr;
  Transport* transport = nullptr;
  Mailbox* mailbox = nullptr;
  RunControl* control = nullptr;
  const ScriptView* script = nullptr;  ///< null = live mode
  /// Live mode: the transport's control plane (mark_dead on crash).  Null in
  /// scripted mode, where the transport needs no supervision.
  SupervisedTransport* supervision = nullptr;
  /// The group's shared pulse board (pacemaker synchronizer).  Null when no
  /// board is reachable — scripted mode, or a remote shard follower whose
  /// coordinator lives in another address space.
  PulseBoard* pulses = nullptr;
  /// > 0: run exactly rounds 1..fixed_rounds and exit — the multi-process
  /// mode, where no shared-memory RunControl can run the armed-stop
  /// protocol across address spaces, so every process agrees on the round
  /// count a priori instead.  0 = armed-stop shutdown (single-process).
  Round fixed_rounds = 0;
  AlgorithmFactory factory;
  Value proposal = kBottom;
  DonePredicate done;       ///< null = "has decided"
  RoundObserver observer;   ///< may be null
  std::chrono::steady_clock::time_point epoch;
};

class RoundDriver {
 public:
  explicit RoundDriver(DriverContext ctx);

  /// Thread body.  Never throws; failures are captured in error().
  void run() noexcept;

  ProcessLog& log() { return log_; }
  std::exception_ptr error() const { return error_; }
  std::unique_ptr<RoundAlgorithm> take_algorithm() {
    return std::move(algorithm_);
  }

 private:
  using Clock = std::chrono::steady_clock;

  void run_impl();
  void collect_scripted(Round k);
  void collect_live(Round k);
  void adopt_future(Round k);
  void route(NetEnvelope env, Round k);
  /// The payload a delivery record keeps: the sender's registered object
  /// when this is an honest copy with equal content, else the copy's own.
  MessagePtr shared_payload(const Envelope& e) const;
  void finish_round(Round k);
  bool is_done() const;

  DriverContext ctx_;
  std::unique_ptr<RoundAlgorithm> algorithm_;
  std::unique_ptr<RoundSynchronizer> synchronizer_;
  ProcessLog log_;
  std::exception_ptr error_;

  Delivery batch_;              ///< envelopes delivered in the current round
  int in_round_count_ = 0;      ///< batch_ members with send_round == k
  int delayed_count_ = 0;       ///< batch_ members with send_round < k
  std::map<Round, Delivery> future_;  ///< early arrivals, keyed by round
  /// Every (send_round, sender, emitter) triple ever accepted: the reliable
  /// channels resend across socket resets, and a duplicate copy must not
  /// count a second time toward the n − t quorum gate (or reach the
  /// algorithm — the validator calls a double delivery a violation).  The
  /// emitter is part of the key so a FORGED copy claiming an honest sender
  /// (sim/byzantine.hpp) still reaches the algorithm alongside the honest
  /// original — that collision is the attack under test.
  std::set<std::tuple<Round, ProcessId, ProcessId>> seen_copies_;
  bool decided_ = false;
  bool halted_ = false;
  bool reported_done_ = false;
};

/// Mailbox size that fits a whole run: a process is sent at most n - 1
/// copies per round, so producers never block on a consumer that already
/// exited.  Never below options.mailbox_capacity.
std::size_t mailbox_capacity_for(const LiveOptions& options, int n);

/// What run_drivers hands back, one entry per context, in context order.
struct DriverRun {
  std::vector<ProcessLog> logs;
  std::vector<std::unique_ptr<RoundAlgorithm>> algorithms;
  /// Copies left in the drivers' mailboxes after the stop, tagged with
  /// their receiver and group.
  std::vector<UndeliveredCopy> stranded;
  std::vector<std::chrono::steady_clock::time_point> exited;  ///< per driver
};

/// The driver-run scaffold every live runtime shares: one RoundDriver on
/// its own thread per context, all joined, each stamped with its exit
/// time; then `stop_transport` (so copies the transport still delivers
/// during its teardown land in the mailboxes), the mailbox drain, and the
/// root-cause driver failure rethrown — preferred over the cascade of
/// "aborted by peer failure" errors an abort fans out to the others.
DriverRun run_drivers(std::vector<DriverContext> contexts,
                      const std::function<void()>& stop_transport);

}  // namespace indulgence
