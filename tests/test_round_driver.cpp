// The round driver's stop/crash race: when the committed stop round
// coincides with a wall-clock-mode before_send crash injection, the crash
// must be SUPPRESSED — the armed peers already committed to completing that
// round, and a crash now would leave them draining for copies that never
// come.  Scripted crashes are the opposite: every peer's expected envelope
// counts already account for them, so they execute even after a stop.
//
// These tests drive one RoundDriver directly against a hand-arranged
// RunControl (peers armed or crashed by fiat), which pins the exact
// interleaving the live runtime can only produce probabilistically.

#include "net/round_driver.hpp"

#include <gtest/gtest.h>

#include <time.h>

#include <chrono>
#include <memory>
#include <optional>
#include <thread>

#include "fuzz/targets.hpp"
#include "net/script.hpp"
#include "net/transport.hpp"

namespace indulgence {
namespace {

using namespace std::chrono_literals;

/// Broadcast sink: the peers in these tests are fictions of the RunControl,
/// so copies go nowhere (the driver's inline self-delivery still happens).
class NullTransport final : public Transport {
 public:
  void dispatch(ProcessId, Round, MessagePtr) override { ++dispatches_; }
  int dispatches() const { return dispatches_; }

 private:
  int dispatches_ = 0;
};

struct DriverRig {
  SystemConfig config{.n = 3, .t = 1};
  LiveOptions options;
  NullTransport transport;
  Mailbox mailbox{64};
  RunControl control{config};

  DriverRig() {
    options.max_rounds = 4;
    options.quorum_grace = std::chrono::microseconds{1'000};
    options.drain_wait = std::chrono::microseconds{1'000};
  }

  DriverContext context() {
    DriverContext ctx;
    ctx.self = 0;
    ctx.config = config;
    ctx.options = &options;
    ctx.transport = &transport;
    ctx.mailbox = &mailbox;
    ctx.control = &control;
    ctx.factory = find_fuzz_target("hr")->factory;
    ctx.proposal = 7;
    // Never report done: these tests arrange every stop by hand.
    ctx.done = [](const RoundAlgorithm&) { return false; };
    ctx.epoch = std::chrono::steady_clock::now();
    return ctx;
  }
};

TEST(RoundDriver, LiveCrashExecutesWhenNoStopIsRequested) {
  DriverRig rig;
  // Both peers are gone; rounds close instantly on the self copy.
  rig.control.report_crash(1);
  rig.control.report_crash(2);
  rig.options.crashes.push_back(CrashInjection{0, 2, true});

  RoundDriver driver(rig.context());
  driver.run();
  ASSERT_EQ(driver.error(), nullptr);
  ASSERT_TRUE(driver.log().crash.has_value());
  EXPECT_EQ(driver.log().crash->round, 2);
  EXPECT_TRUE(driver.log().crash->before_send);
  // before_send: round 2's message was never sent, round 1 completed.
  EXPECT_EQ(driver.log().completed, 1);
  EXPECT_EQ(driver.log().sends.size(), 1u);
}

TEST(RoundDriver, BeforeSendCrashOnTheCommittedStopRoundIsSuppressed) {
  DriverRig rig;
  // The race, by fiat: peer 1 armed at its round-1 boundary — committing
  // stop round 1, so every live process must still complete round 1 — then
  // peer 2 crashed, then the stop landed.  p0's injected crash falls on
  // exactly that committed round.
  EXPECT_FALSE(rig.control.boundary(1, 1));
  rig.control.report_crash(2);
  rig.control.force_stop(true);
  rig.options.crashes.push_back(CrashInjection{0, 1, true});

  RoundDriver driver(rig.context());
  driver.run();
  ASSERT_EQ(driver.error(), nullptr);
  // Suppressed: p0 sent and completed the committed round instead of
  // crashing out of it (which would strand armed peer 1 in its drain).
  EXPECT_FALSE(driver.log().crash.has_value());
  EXPECT_EQ(driver.log().completed, 1);
  EXPECT_EQ(driver.log().sends.size(), 1u);
  EXPECT_EQ(rig.transport.dispatches(), 1);
}

TEST(RoundDriver, AWaitingDriverWakesOnTheStopRequest) {
  // Below quorum with no round cap, no timer can close the round: the
  // driver sleeps on its mailbox until the stop request wakes it, then
  // drains for drain_wait and exits.
  DriverRig rig;
  rig.control.watch(&rig.mailbox);
  DriverContext ctx = rig.context();
  ctx.fixed_rounds = 1;
  RoundDriver driver(std::move(ctx));
  std::thread thread([&] { driver.run(); });
  std::this_thread::sleep_for(20ms);
  const auto stop = std::chrono::steady_clock::now();
  rig.control.force_stop(false);
  thread.join();
  EXPECT_LT(std::chrono::steady_clock::now() - stop, 2s);
  ASSERT_EQ(driver.error(), nullptr);
  EXPECT_EQ(driver.log().completed, 1);
}

TEST(RoundDriver, AQuorumHeldBelowTheFloorSleepsUntilTheFloor) {
  // Self + p1 is a quorum whose grace runs out long before the 100 ms
  // floor: the driver must sleep until the floor, not spin on a grace
  // deadline that has already passed.
  DriverRig rig;
  rig.options.round_floor = 100ms;
  auto alg = find_fuzz_target("hr")->factory(1, rig.config);
  alg->propose(41);
  rig.mailbox.push(NetEnvelope{1, 1, 1, 0, alg->message_for_round(1)});
  DriverContext ctx = rig.context();
  ctx.fixed_rounds = 1;
  RoundDriver driver(std::move(ctx));
  const auto thread_cpu = [] {
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return std::chrono::seconds{ts.tv_sec} +
           std::chrono::nanoseconds{ts.tv_nsec};
  };
  const auto wall = std::chrono::steady_clock::now();
  const auto cpu = thread_cpu();
  driver.run();
  const auto spent = thread_cpu() - cpu;
  ASSERT_EQ(driver.error(), nullptr);
  EXPECT_GE(std::chrono::steady_clock::now() - wall, 100ms);
  EXPECT_LT(spent, 30ms) << "the driver spun while the floor held";
  EXPECT_EQ(driver.log().deliveries.size(), 2u);
}

TEST(RoundDriver, DuplicateCopiesDoNotCloseTheQuorumGateEarly) {
  // A reliable channel replaying its window after a socket reset delivers
  // the same (sender, send_round) copy twice.  The quorum gate must count
  // DISTINCT senders: with the old per-envelope counting, self + two
  // copies of p1's round-1 message looked like a full set of 3 and closed
  // the round with p2 unread — one real sender short.
  DriverRig rig;
  const auto peer_message = [&](ProcessId pid) {
    auto alg = find_fuzz_target("hr")->factory(pid, rig.config);
    alg->propose(40 + pid);
    return alg->message_for_round(1);
  };
  rig.mailbox.push(NetEnvelope{1, 1, 1, 0, peer_message(1)});
  rig.mailbox.push(NetEnvelope{1, 1, 1, 0, peer_message(1)});  // the resend
  rig.mailbox.push(NetEnvelope{2, 1, 1, 0, peer_message(2)});

  DriverContext ctx = rig.context();
  ctx.fixed_rounds = 1;  // exactly one round; no armed-stop interference
  RoundDriver driver(std::move(ctx));
  driver.run();
  ASSERT_EQ(driver.error(), nullptr);

  // The round closed on the true full set — all three distinct senders
  // delivered in round 1 — and the duplicate was suppressed, not counted.
  EXPECT_EQ(driver.log().duplicate_copies, 1);
  ASSERT_EQ(driver.log().deliveries.size(), 3u);
  bool seen[3] = {false, false, false};
  for (const DeliveryRecord& d : driver.log().deliveries) {
    EXPECT_EQ(d.recv_round, 1);
    EXPECT_EQ(d.send_round, 1);
    ASSERT_GE(d.sender, 0);
    ASSERT_LT(d.sender, 3);
    EXPECT_FALSE(seen[d.sender]) << "sender " << d.sender
                                 << " delivered twice";
    seen[d.sender] = true;
  }
  EXPECT_TRUE(seen[0] && seen[1] && seen[2]);
}

TEST(RoundDriver, CrashAfterArmingReleasesItsStopRoundCandidate) {
  // The armed-stop/crash race: p1 arms at its round-5 boundary and — not
  // everyone being armed yet — commits to executing round 5; then it dies
  // between boundary() calls (the exception path reports a crash with the
  // armed bit still set).  Its committed rounds will never be sent, so the
  // stale candidate must not hold the survivors to them.
  SystemConfig config{.n = 3, .t = 1};
  RunControl control(config);
  control.report_crash(2);
  control.force_stop(true);
  EXPECT_FALSE(control.boundary(1, 5));  // commits candidate round 5
  control.report_crash(1);               // dies after arming
  // p0 stands at round 4: every live process (itself) is armed, and the
  // dead peer's candidate 5 is dropped — it may exit instead of spinning
  // two empty grace windows waiting for messages that never come.
  EXPECT_TRUE(control.boundary(0, 4));
}

TEST(RoundDriver, ScriptedCrashExecutesEvenAfterTheStop) {
  DriverRig rig;
  // Same arranged stop as above, but the crash comes from a schedule: the
  // peers' expected envelope counts already exclude p0's round-1 copies, so
  // suppressing the crash would DESYNC the replay, not rescue it.
  EXPECT_FALSE(rig.control.boundary(1, 1));
  rig.control.report_crash(2);
  rig.control.force_stop(true);

  RunSchedule schedule(rig.config);
  schedule.plan(1).add_crash(CrashEvent{0, true});
  ScriptView view(rig.config, schedule);

  DriverContext ctx = rig.context();
  ctx.script = &view;
  RoundDriver driver(std::move(ctx));
  driver.run();
  ASSERT_EQ(driver.error(), nullptr);
  ASSERT_TRUE(driver.log().crash.has_value());
  EXPECT_EQ(driver.log().crash->round, 1);
  EXPECT_TRUE(driver.log().crash->before_send);
  EXPECT_EQ(driver.log().completed, 0);
  EXPECT_TRUE(driver.log().sends.empty());
  EXPECT_EQ(rig.transport.dispatches(), 0);
}

}  // namespace
}  // namespace indulgence
