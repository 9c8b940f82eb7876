// The pluggable round synchronizers (net/synchronizer.hpp): unit tests of
// each close rule against hand-built SyncViews, transient-corruption
// recovery, the synchronizer × shutdown interplay over real threads, and
// scripted-mode equivalence — every policy replays the kernel's
// failure-free schedules with identical decision rounds, because scripted
// gates wait for exact envelope counts and never consult the policy.

#include "net/synchronizer.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <map>

#include "consensus/hurfin_raynal.hpp"
#include "core/at2.hpp"
#include "fuzz/targets.hpp"
#include "net/runtime.hpp"
#include "sim/harness.hpp"

namespace indulgence {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

constexpr std::chrono::microseconds kGrace{400};

LiveOptions options_for(SyncKind kind) {
  LiveOptions o;
  o.synchronizer = kind;
  o.quorum_grace = kGrace;
  return o;
}

std::unique_ptr<RoundSynchronizer> make(SyncKind kind, ProcessId self = 0,
                                        PulseBoard* board = nullptr) {
  const SystemConfig cfg{.n = 3, .t = 1};
  return make_round_synchronizer(options_for(kind), cfg, self, board);
}

SyncView view_for(Round k, int in_round, Clock::time_point start) {
  SyncView v;
  v.round = k;
  v.in_round = in_round;
  v.possible = 3;
  v.quorum = 2;
  v.round_start = start;
  return v;
}

std::map<ProcessId, Round> decision_rounds(const RunTrace& trace) {
  std::map<ProcessId, Round> out;
  for (const DecisionRecord& d : trace.decisions()) {
    out.emplace(d.pid, d.round);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Unit: the three policies against hand-built views.
// ---------------------------------------------------------------------------

TEST(Sync, KindNamesRoundTripThroughParseAndFactory) {
  for (const SyncKind kind :
       {SyncKind::Lockstep, SyncKind::Pacemaker, SyncKind::FastStep}) {
    EXPECT_EQ(parse_sync_kind(to_string(kind)), kind);
    EXPECT_EQ(make(kind)->name(), to_string(kind));
  }
  EXPECT_FALSE(parse_sync_kind("bogus").has_value());
  EXPECT_FALSE(parse_sync_kind("").has_value());
}

TEST(Sync, LockstepArmsOnFirstQuorumThenClosesAfterGrace) {
  const auto sync = make(SyncKind::Lockstep);
  const Clock::time_point t0 = Clock::now();
  const SyncView v = view_for(1, 2, t0);
  sync->round_open(v);
  EXPECT_TRUE(sync->paced_by_floor());
  EXPECT_EQ(sync->coordinator(1), -1);
  // First call arms the timer — never closes, regardless of elapsed time.
  EXPECT_FALSE(sync->should_close(v, t0));
  EXPECT_FALSE(sync->should_close(v, t0 + kGrace / 2));
  EXPECT_TRUE(sync->should_close(v, t0 + kGrace));
  // A new round resets the timer.
  sync->round_open(view_for(2, 2, t0));
  EXPECT_FALSE(sync->should_close(view_for(2, 2, t0), t0 + 10 * kGrace));
}

TEST(Sync, CloseDeadlineIsWhenTheGraceTimerRunsOut) {
  const Clock::time_point t0 = Clock::now();
  const SyncView v = view_for(1, 2, t0);
  for (const SyncKind kind : {SyncKind::Lockstep, SyncKind::Pacemaker}) {
    const auto sync = make(kind);
    sync->round_open(v);
    // Unarmed, no timer runs: only a message, crash or pulse can help.
    EXPECT_EQ(sync->close_deadline(v), Clock::time_point::max());
    EXPECT_FALSE(sync->should_close(v, t0 + 1ms));
    EXPECT_EQ(sync->close_deadline(v), t0 + 1ms + kGrace);
    EXPECT_TRUE(sync->should_close(v, sync->close_deadline(v)));
  }
  // The fast path holds for the full set until round_start + grace, then
  // its slow-path grace timer arms.
  const auto fast = make(SyncKind::FastStep);
  fast->round_open(v);
  EXPECT_FALSE(fast->should_close(v, t0));
  EXPECT_EQ(fast->close_deadline(v), t0 + kGrace);
  EXPECT_FALSE(fast->should_close(v, fast->close_deadline(v)));
  EXPECT_EQ(fast->close_deadline(v), t0 + 2 * kGrace);
  EXPECT_TRUE(fast->should_close(v, fast->close_deadline(v)));
}

TEST(Pacemaker, PublishWakesTheBoardsListenerOncePerRound) {
  PulseBoard board;
  int wakes = 0;
  board.on_publish = [&] { ++wakes; };
  board.publish(1);
  board.publish(1);  // a duplicate pulse does not move the mark
  board.publish(3);
  board.publish(2);  // nor does a late one
  EXPECT_EQ(board.latest(), 3);
  EXPECT_EQ(wakes, 2);
}

TEST(Pacemaker, CoordinatorPublishesAtQuorumAndFollowersCloseOnThePulse) {
  PulseBoard board;
  const auto leader = make(SyncKind::Pacemaker, /*self=*/0, &board);
  const auto follower = make(SyncKind::Pacemaker, /*self=*/1, &board);
  EXPECT_EQ(leader->coordinator(1), 0);  // rotating (k-1) mod n
  EXPECT_EQ(leader->coordinator(2), 1);
  EXPECT_FALSE(leader->paced_by_floor());

  const Clock::time_point t0 = Clock::now();
  SyncView v = view_for(1, 1, t0);
  leader->round_open(v);
  follower->round_open(v);

  // Below quorum the leader stays silent and the follower waits.
  leader->observe(v, t0);
  EXPECT_EQ(board.latest(), 0);
  EXPECT_FALSE(follower->should_close(v, t0));

  // At quorum the leader pulses; the follower closes immediately — no
  // grace window.
  v.in_round = 2;
  leader->observe(v, t0);
  EXPECT_EQ(board.latest(), 1);
  EXPECT_TRUE(follower->should_close(v, t0));
  EXPECT_TRUE(leader->should_close(v, t0));  // its own pulse counts too
}

TEST(Pacemaker, OnlyTheRoundsCoordinatorPulses) {
  PulseBoard board;
  const auto follower = make(SyncKind::Pacemaker, /*self=*/2, &board);
  const Clock::time_point t0 = Clock::now();
  SyncView v = view_for(1, 3, t0);
  follower->round_open(v);
  follower->observe(v, t0);
  EXPECT_EQ(board.latest(), 0);  // p2 leads round 3, not round 1
}

TEST(Pacemaker, CrashedCoordinatorIsRotatedPastWithoutAGraceWindow) {
  PulseBoard board;
  const auto follower = make(SyncKind::Pacemaker, /*self=*/1, &board);
  const Clock::time_point t0 = Clock::now();
  SyncView v = view_for(1, 2, t0);
  follower->round_open(v);
  v.coordinator_crashed = true;  // the driver's FD plumbing feeds this in
  EXPECT_TRUE(follower->should_close(v, t0));
}

TEST(Pacemaker, FallsBackToTheGraceTimeoutWithoutABoard) {
  // A remote shard follower has no shared board (ctx.pulses == nullptr):
  // the policy degrades to exactly the lockstep grace rule.
  const auto sync = make(SyncKind::Pacemaker, /*self=*/1, nullptr);
  const Clock::time_point t0 = Clock::now();
  const SyncView v = view_for(1, 2, t0);
  sync->round_open(v);
  EXPECT_FALSE(sync->should_close(v, t0));
  EXPECT_FALSE(sync->should_close(v, t0 + kGrace / 2));
  EXPECT_TRUE(sync->should_close(v, t0 + kGrace));
}

TEST(Pacemaker, StalePulsesNeverMoveTheBoardBackwards) {
  PulseBoard board;
  board.publish(5);
  board.publish(3);  // a late round-3 pulse after round 5's
  EXPECT_EQ(board.latest(), 5);
  board.publish(6);
  EXPECT_EQ(board.latest(), 6);
}

TEST(FastStep, HoldsForTheFullSetThenDemotesToTheSlowPathStickily) {
  const auto sync = make(SyncKind::FastStep);
  const Clock::time_point t0 = Clock::now();
  const SyncView v = view_for(1, 2, t0);
  sync->round_open(v);
  // Fast mode: message-paced, and a quorum alone never closes the round —
  // the driver's full-set check is the only fast exit.
  EXPECT_FALSE(sync->paced_by_floor());
  EXPECT_FALSE(sync->should_close(v, t0));
  EXPECT_FALSE(sync->should_close(v, t0 + kGrace / 2));
  // The full-set timeout demotes the run: sticky lockstep behaviour (arm,
  // then close a grace later), including in every subsequent round.
  EXPECT_FALSE(sync->should_close(v, t0 + kGrace));  // demote + arm
  EXPECT_TRUE(sync->paced_by_floor());
  EXPECT_TRUE(sync->should_close(v, t0 + 2 * kGrace));
  sync->round_open(view_for(2, 2, t0 + 3 * kGrace));
  EXPECT_FALSE(sync->should_close(view_for(2, 2, t0 + 3 * kGrace),
                                  t0 + 3 * kGrace));  // arms immediately
  EXPECT_TRUE(sync->should_close(view_for(2, 2, t0 + 3 * kGrace),
                                 t0 + 4 * kGrace));
}

TEST(Sync, CorruptedPoliciesStayUsableAndStillClose) {
  // Transient corruption must never wedge a policy: whatever bits flip,
  // the grace fallback still closes the round eventually.
  PulseBoard board;
  for (const SyncKind kind :
       {SyncKind::Lockstep, SyncKind::Pacemaker, SyncKind::FastStep}) {
    for (std::uint64_t bits = 1; bits <= 7; ++bits) {
      const auto sync = make(kind, /*self=*/1, &board);
      const Clock::time_point t0 = Clock::now();
      const SyncView v = view_for(1, 2, t0);
      sync->round_open(v);
      sync->corrupt(bits);
      bool closed = false;
      for (int step = 0; step <= 4 && !closed; ++step) {
        closed = sync->should_close(v, t0 + step * kGrace);
      }
      EXPECT_TRUE(closed) << to_string(kind) << " bits=" << bits;
    }
  }
}

// ---------------------------------------------------------------------------
// Live runs: synchronizer × shutdown interplay.
// ---------------------------------------------------------------------------

TEST(Pacemaker, LeaderCrashNearTheStopRoundStaysValid) {
  // p0 leads rounds 1 and 4 of a 3-process group.  Crashing it after its
  // round-2 send leaves rounds led by a dead coordinator racing the
  // armed-stop drain; followers must rotate past it (close at quorum) and
  // the merged trace must still satisfy the unchanged validator.
  const SystemConfig cfg{.n = 3, .t = 1};
  LiveOptions options = options_for(SyncKind::Pacemaker);
  options.crashes.push_back(CrashInjection{0, 2, false});
  const FuzzTarget* hr = find_fuzz_target("hr");
  ASSERT_NE(hr, nullptr);
  const RunResult r =
      run_live(cfg, options, hr->factory, distinct_proposals(cfg.n));
  EXPECT_TRUE(r.ok()) << r.summary() << "\n" << r.validation.to_string();
  ASSERT_EQ(r.trace.crashes().size(), 1u);
  EXPECT_EQ(r.trace.crashes().front().pid, 0);
}

TEST(FastStep, FastDecisionRacesTheStopAndStaysValid) {
  // A_{t+2} with the failure-free optimization decides at round 2 when a
  // full, unanimous round-2 echo set arrives — exactly what the fast path
  // holds rounds open for.  All three decisions land in the same instant
  // and trip the armed stop while later rounds are already in flight; the
  // run must terminate cleanly with the one-message-delay-early decision.
  const SystemConfig cfg{.n = 3, .t = 1};
  At2Options ff;
  ff.failure_free_opt = true;
  const AlgorithmFactory fast = at2_factory(hurfin_raynal_factory(), ff);
  LiveOptions options = options_for(SyncKind::FastStep);
  // A wide full-set timeout: scheduling jitter on a loaded CI box must not
  // demote the clean run to the slow path and flake the round-2 assert.
  options.quorum_grace = 20ms;
  const RunResult r =
      run_live(cfg, options, fast, distinct_proposals(cfg.n));
  ASSERT_TRUE(r.ok()) << r.summary() << "\n" << r.validation.to_string();
  ASSERT_TRUE(r.global_decision_round.has_value());
  EXPECT_EQ(*r.global_decision_round, 2)
      << "failure-free fast path should decide at round 2, one message "
         "delay before the t+2 slow path";
}

TEST(Sync, EveryPolicyYieldsValidLiveRunsUnderCorruptionInjection) {
  // Recovery check: flip every soft-state bit of every early round on one
  // process; the runs must still terminate with validator-clean traces
  // (the driver's quorum floor is out of the corruption's reach).
  const SystemConfig cfg{.n = 3, .t = 1};
  const FuzzTarget* hr = find_fuzz_target("hr");
  ASSERT_NE(hr, nullptr);
  for (const SyncKind kind : {SyncKind::Pacemaker, SyncKind::FastStep}) {
    LiveOptions options = options_for(kind);
    for (Round k = 1; k <= 3; ++k) {
      options.sync_corruptions.push_back(SyncCorruption{1, k, 7});
    }
    const RunResult r =
        run_live(cfg, options, hr->factory, distinct_proposals(cfg.n));
    EXPECT_TRUE(r.ok()) << to_string(kind) << "\n"
                        << r.summary() << "\n"
                        << r.validation.to_string();
  }
}

// ---------------------------------------------------------------------------
// Scripted mode: policy independence.
// ---------------------------------------------------------------------------

TEST(Sync, ScriptedFailureFreeReplayIsIdenticalAcrossPolicies) {
  // Scripted gates wait for the exact envelope counts the schedule
  // implies — the close policy is never consulted — so all three
  // synchronizers must replay the kernel's failure-free schedule with
  // identical decision rounds.
  const SystemConfig cfg{.n = 4, .t = 1};
  const RunSchedule schedule = failure_free_schedule(cfg);
  const std::vector<Value> proposals = distinct_proposals(cfg.n);
  for (const char* name : {"hr", "at2"}) {
    const FuzzTarget* target = find_fuzz_target(name);
    ASSERT_NE(target, nullptr) << name;
    KernelOptions kernel_options;
    kernel_options.model = target->model;
    kernel_options.max_rounds = 128;
    const RunResult kernel = run_and_check(cfg, kernel_options,
                                           target->factory, proposals,
                                           schedule);
    ASSERT_TRUE(kernel.ok()) << name << "\n" << kernel.summary();
    for (const SyncKind kind :
         {SyncKind::Lockstep, SyncKind::Pacemaker, SyncKind::FastStep}) {
      const RunResult live =
          replay_schedule_live(cfg, target->model, schedule, target->factory,
                               proposals, options_for(kind));
      ASSERT_TRUE(live.ok())
          << name << " " << to_string(kind) << "\n"
          << live.summary() << "\n"
          << live.validation.to_string();
      EXPECT_EQ(kernel.global_decision_round, live.global_decision_round)
          << name << " " << to_string(kind);
      EXPECT_EQ(decision_rounds(kernel.trace), decision_rounds(live.trace))
          << name << " " << to_string(kind);
    }
  }
}

}  // namespace
}  // namespace indulgence
