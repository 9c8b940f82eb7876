// The supervised socket transport: backoff math and the reconnect schedule
// under an injected clock, endpoint-level delivery and redelivery, and full
// consensus runs of LiveRuntime over sockets (group 0 of an in-process
// fabric) — clean, crashing, and under seeded wire chaos, UDS and TCP —
// judged by the unchanged model validator.

#include "net/socket_transport.hpp"

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "consensus/floodset.hpp"
#include "fuzz/targets.hpp"
#include "net/runtime.hpp"
#include "net/sharded_runtime.hpp"
#include "sim/harness.hpp"
#include "sim/message.hpp"

namespace indulgence {
namespace {

using namespace std::chrono_literals;
using TimePoint = ReconnectSchedule::TimePoint;

// ---------------------------------------------------------------------------
// Backoff math (pure, no sockets, no sleeping)
// ---------------------------------------------------------------------------

TEST(Backoff, ColdStartIsExactlyTheBaseDelay) {
  BackoffPolicy policy;
  Rng rng = Rng::for_stream(1, 0);
  EXPECT_EQ(next_backoff(policy, std::chrono::microseconds{0}, rng),
            policy.base);
}

TEST(Backoff, DrawsStayWithinTheDecorrelatedEnvelope) {
  BackoffPolicy policy;
  Rng rng = Rng::for_stream(2, 0);
  std::chrono::microseconds prev{0};
  for (int i = 0; i < 200; ++i) {
    const std::chrono::microseconds d = next_backoff(policy, prev, rng);
    EXPECT_GE(d, policy.base) << "iteration " << i;
    EXPECT_LE(d, policy.cap) << "iteration " << i;
    if (prev.count() > 0) {
      EXPECT_LE(d.count(), std::max<std::int64_t>(policy.base.count(),
                                                  3 * prev.count()))
          << "iteration " << i;
    }
    prev = d;
  }
}

TEST(Backoff, CapClampsEvenHugePreviousDelays) {
  BackoffPolicy policy;
  Rng rng = Rng::for_stream(3, 0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_LE(next_backoff(policy, policy.cap * 10, rng), policy.cap);
  }
}

TEST(Backoff, SameSeedSameSchedule) {
  BackoffPolicy policy;
  Rng a = Rng::for_stream(7, 1);
  Rng b = Rng::for_stream(7, 1);
  std::chrono::microseconds prev{2'000};
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(next_backoff(policy, prev, a), next_backoff(policy, prev, b));
  }
}

// ---------------------------------------------------------------------------
// ReconnectSchedule under an injected clock
// ---------------------------------------------------------------------------

TEST(ReconnectSchedule, FailureDefersTheNextAttempt) {
  ReconnectSchedule sched(BackoffPolicy{}, 11);
  const TimePoint t0 = TimePoint{} + 1s;
  EXPECT_TRUE(sched.due(t0));
  const TimePoint next = sched.on_failure(t0);
  EXPECT_GT(next, t0);
  EXPECT_FALSE(sched.due(t0));
  EXPECT_FALSE(sched.due(next - 1us));
  EXPECT_TRUE(sched.due(next));
  EXPECT_EQ(sched.failures(), 1);
}

TEST(ReconnectSchedule, DelaysStayInsidePolicyBoundsAcrossAFailureStorm) {
  const BackoffPolicy policy;
  ReconnectSchedule sched(policy, 12);
  TimePoint now = TimePoint{} + 1s;
  for (int i = 0; i < 100; ++i) {
    now = sched.on_failure(now);
    EXPECT_GE(sched.current_delay(), policy.base);
    EXPECT_LE(sched.current_delay(), policy.cap);
  }
  EXPECT_EQ(sched.failures(), 100);
}

TEST(ReconnectSchedule, SuccessResetsTheBackoff) {
  ReconnectSchedule sched(BackoffPolicy{}, 13);
  TimePoint now = TimePoint{} + 1s;
  for (int i = 0; i < 5; ++i) now = sched.on_failure(now);
  EXPECT_GT(sched.current_delay().count(), 0);
  sched.on_success();
  EXPECT_EQ(sched.current_delay().count(), 0);
  EXPECT_TRUE(sched.due(TimePoint{} + 1s));
}

TEST(ReconnectSchedule, ExpediteMakesTheLinkDueImmediately) {
  ReconnectSchedule sched(BackoffPolicy{}, 14);
  const TimePoint t0 = TimePoint{} + 1s;
  sched.on_failure(t0);
  ASSERT_FALSE(sched.due(t0));
  sched.expedite();
  EXPECT_TRUE(sched.due(t0));
}

// ---------------------------------------------------------------------------
// SocketEndpoint plumbing
// ---------------------------------------------------------------------------

std::string fresh_socket_dir() {
  std::string tmpl = (std::filesystem::temp_directory_path() /
                      "indulgence-sock-test-XXXXXX")
                         .string();
  if (::mkdtemp(tmpl.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed");
  }
  return tmpl;
}

/// Group 0 with identity placement (node i hosts replica i): the shape of
/// a single-group socket run.
GroupSpec identity_group(ProcessId self, SystemConfig cfg, Mailbox* inbox) {
  return GroupSpec{0, cfg, self, group_placement(0, cfg.n, cfg.n), inbox};
}

TEST(SocketEndpoint, DeliversBetweenEndpointsAndDedupsBySequence) {
  const SystemConfig cfg{.n = 3, .t = 1};
  const std::string dir = fresh_socket_dir();
  std::vector<SocketAddress> addrs;
  for (int i = 0; i < cfg.n; ++i) {
    addrs.push_back(
        SocketAddress::unix_path(dir + "/p" + std::to_string(i) + ".sock"));
  }
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  std::vector<std::unique_ptr<SocketEndpoint>> endpoints;
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    mailboxes.push_back(std::make_unique<Mailbox>(1024));
    SocketTransportOptions opts;
    opts.seed = 100 + static_cast<std::uint64_t>(pid);
    endpoints.push_back(std::make_unique<SocketEndpoint>(pid, addrs, opts));
    endpoints.back()->add_group(
        identity_group(pid, cfg, mailboxes.back().get()));
  }
  const auto epoch = std::chrono::steady_clock::now();
  for (auto& ep : endpoints) ep->start(epoch);

  endpoints[0]->dispatch_group(
      0, 0, 1, std::make_shared<FloodEstimateMessage>(Value{5}));
  for (ProcessId pid = 1; pid < cfg.n; ++pid) {
    auto env = mailboxes[static_cast<std::size_t>(pid)]->pop_for(2s);
    ASSERT_TRUE(env.has_value()) << "p" << pid << " got nothing";
    EXPECT_EQ(env->sender, 0);
    EXPECT_EQ(env->send_round, 1);
    EXPECT_EQ(env->target_round, 0);
    ASSERT_NE(env->payload, nullptr);
    EXPECT_EQ(env->payload->describe(),
              FloodEstimateMessage(Value{5}).describe());
  }

  const std::vector<UndeliveredCopy> rest = stop_and_flush_all(endpoints);
  EXPECT_TRUE(rest.empty());
  SocketCounters total;
  for (auto& ep : endpoints) total += ep->counters();
  EXPECT_EQ(total.envelopes_delivered, 2);
  EXPECT_EQ(total.duplicates_dropped, 0);
  endpoints.clear();
  std::filesystem::remove_all(dir);
}

TEST(SocketEndpoint, DispatchRejectsForeignSenders) {
  const SystemConfig cfg{.n = 3, .t = 1};
  const std::string dir = fresh_socket_dir();
  std::vector<SocketAddress> addrs;
  for (int i = 0; i < cfg.n; ++i) {
    addrs.push_back(
        SocketAddress::unix_path(dir + "/p" + std::to_string(i) + ".sock"));
  }
  Mailbox mailbox(64);
  SocketEndpoint ep(0, addrs, SocketTransportOptions{});
  ep.add_group(identity_group(0, cfg, &mailbox));
  EXPECT_THROW(ep.dispatch_group(0, 1, 1, std::make_shared<FillerMessage>()),
               std::logic_error);
  ep.stop_and_flush();
  std::filesystem::remove_all(dir);
}

TEST(SocketEndpoint, TcpListenerResolvesEphemeralPort) {
  SocketEndpoint ep(
      0, 3, SocketAddress::tcp_loopback(0),
      [](ProcessId) -> std::optional<SocketAddress> { return std::nullopt; },
      SocketTransportOptions{});
  EXPECT_GT(ep.listen_address().port, 0);
  ep.stop_and_flush();
}

// ---------------------------------------------------------------------------
// Counter attribution: per-link vs per-group
// ---------------------------------------------------------------------------

TEST(SocketEndpoint, ChaosOnOneLinkIsNotChargedToGroupsThatAvoidIt) {
  // Four nodes, two overlapping groups on one fabric:
  //   group 1 on nodes {0, 1, 2},  group 2 on nodes {0, 2, 3}.
  // Injected resets are confined (only_node) to node 0's link towards
  // node 1 — a link only group 1 uses.  The regression this pins: link
  // trouble must land in the counters of THAT link, and the redelivery
  // fallout must never leak into group 2's per-group counters, because
  // group 2 never puts a byte on the chaotic link.  Links, groups and the
  // endpoint share one counter type, so the attribution rule itself is
  // checked field by field at the end.
  const int kNodes = 4;
  const SystemConfig cfg{.n = 3, .t = 1};
  const std::string dir = fresh_socket_dir();
  std::vector<SocketAddress> addrs;
  for (int i = 0; i < kNodes; ++i) {
    addrs.push_back(
        SocketAddress::unix_path(dir + "/n" + std::to_string(i) + ".sock"));
  }

  // members[pid] = hosting node.
  const std::vector<int> group1_nodes = {0, 1, 2};
  const std::vector<int> group2_nodes = {0, 2, 3};
  auto local_pid = [](const std::vector<int>& members,
                      int node) -> ProcessId {
    for (ProcessId pid = 0; pid < static_cast<ProcessId>(members.size());
         ++pid) {
      if (members[static_cast<std::size_t>(pid)] == node) return pid;
    }
    return -1;
  };

  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  std::vector<std::unique_ptr<SocketEndpoint>> endpoints;
  for (int node = 0; node < kNodes; ++node) {
    SocketTransportOptions opts;
    opts.seed = 500 + static_cast<std::uint64_t>(node);
    if (node == 0) {
      opts.chaos.seed = 77;
      opts.chaos.until = 300ms;
      opts.chaos.reset_prob = 0.9;
      opts.chaos.only_node = 1;
    }
    endpoints.push_back(
        std::make_unique<SocketEndpoint>(node, addrs, opts));
    for (GroupId g : {1, 2}) {
      const auto& members = g == 1 ? group1_nodes : group2_nodes;
      const ProcessId self = local_pid(members, node);
      if (self < 0) continue;
      mailboxes.push_back(std::make_unique<Mailbox>(1024));
      GroupSpec spec;
      spec.group = g;
      spec.config = cfg;
      spec.self = self;
      spec.members = members;
      spec.inbox = mailboxes.back().get();
      endpoints.back()->add_group(std::move(spec));
    }
  }
  // Mailboxes, in endpoint construction order:
  //   n0: [0]=g1/p0  [1]=g2/p0   n1: [2]=g1/p1
  //   n2: [3]=g1/p2  [4]=g2/p1   n3: [5]=g2/p2
  const auto epoch = std::chrono::steady_clock::now();
  for (auto& ep : endpoints) ep->start(epoch);

  constexpr int kSends = 25;
  for (Round k = 1; k <= kSends; ++k) {
    endpoints[0]->dispatch_group(1, 0, k,
                                 std::make_shared<FloodEstimateMessage>(k));
    endpoints[0]->dispatch_group(2, 0, k,
                                 std::make_shared<FloodEstimateMessage>(k));
  }
  // Every broadcast must eventually land despite the resets: group 1 at
  // n1/n2, group 2 at n2/n3.  (The chaotic link redelivers after its
  // reconnects; the clean links are unaffected.)
  for (std::size_t box : {2u, 3u, 4u, 5u}) {
    for (int i = 0; i < kSends; ++i) {
      ASSERT_TRUE(mailboxes[box]->pop_for(5s).has_value())
          << "mailbox " << box << " copy " << i;
    }
  }
  stop_and_flush_all(endpoints);

  // The chaos fired, on the one link it was scoped to — and nowhere else.
  const SocketCounters to1 = endpoints[0]->link_counters(1);
  EXPECT_GT(to1.injected_resets, 0);
  EXPECT_GT(to1.reconnects, 0);
  EXPECT_GT(to1.envelopes_resent, 0);
  for (int peer : {2, 3}) {
    const SocketCounters clean = endpoints[0]->link_counters(peer);
    EXPECT_EQ(clean.injected_resets, 0) << "link to " << peer;
    EXPECT_EQ(clean.injected_connect_failures, 0) << "link to " << peer;
    EXPECT_EQ(clean.envelopes_resent, 0) << "link to " << peer;
  }

  // Group 2 never touched the chaotic link: its per-group accounting on
  // every hosting node must look like a clean run — exactly kSends copies
  // to each of its two remote members, none of them re-deliveries.
  SocketCounters group2;
  for (int node : group2_nodes) {
    group2 += endpoints[static_cast<std::size_t>(node)]->group_counters(2);
  }
  EXPECT_EQ(group2.envelopes_sent, 2 * kSends);
  EXPECT_EQ(group2.envelopes_delivered, 2 * kSends);
  EXPECT_EQ(group2.duplicates_dropped, 0);

  // Group 1 rode the chaotic link, so its deliveries survived resends:
  // same copies delivered, with any duplicates filtered by seq dedup.
  SocketCounters group1;
  for (int node : group1_nodes) {
    group1 += endpoints[static_cast<std::size_t>(node)]->group_counters(1);
  }
  EXPECT_EQ(group1.envelopes_sent, 2 * kSends);
  EXPECT_EQ(group1.envelopes_delivered, 2 * kSends);

  // Attribution: a link carries only link-owned fields, a group only
  // group-owned ones, and counters() is the endpoint's own events plus
  // every link plus every group — so whatever links and groups do not
  // explain sits in an endpoint-owned field.
  using Field = long SocketCounters::*;
  const std::vector<Field> link_owned = {
      &SocketCounters::connect_attempts,
      &SocketCounters::connect_failures,
      &SocketCounters::reconnects,
      &SocketCounters::envelopes_resent,
      &SocketCounters::heartbeats_sent,
      &SocketCounters::peer_timeouts,
      &SocketCounters::injected_resets,
      &SocketCounters::injected_stalls,
      &SocketCounters::injected_short_writes,
      &SocketCounters::injected_connect_failures,
      &SocketCounters::flush_syscalls};
  const std::vector<Field> group_owned = {
      &SocketCounters::envelopes_sent, &SocketCounters::envelopes_delivered,
      &SocketCounters::duplicates_dropped};
  const std::vector<Field> endpoint_owned = {
      &SocketCounters::duplicates_dropped, &SocketCounters::demux_drops,
      &SocketCounters::injected_accept_closes};
  const auto owns = [](const std::vector<Field>& owned, Field f) {
    return std::find(owned.begin(), owned.end(), f) != owned.end();
  };
  const auto fields = SocketCounters::fields();
  for (int node = 0; node < kNodes; ++node) {
    const SocketEndpoint& ep = *endpoints[static_cast<std::size_t>(node)];
    SocketCounters accounted;
    for (int peer = 0; peer < kNodes; ++peer) {
      const SocketCounters link = ep.link_counters(peer);
      for (std::size_t i = 0; i < fields.size(); ++i) {
        if (owns(link_owned, fields[i])) continue;
        EXPECT_EQ(link.*fields[i], 0)
            << "field " << i << " on link " << node << "->" << peer;
      }
      accounted += link;
    }
    for (GroupId g : {1, 2}) {
      const SocketCounters group = ep.group_counters(g);
      for (std::size_t i = 0; i < fields.size(); ++i) {
        if (owns(group_owned, fields[i])) continue;
        EXPECT_EQ(group.*fields[i], 0)
            << "field " << i << " of group " << g << " on node " << node;
      }
      accounted += group;
    }
    const SocketCounters total = ep.counters();
    for (std::size_t i = 0; i < fields.size(); ++i) {
      const long misc = total.*fields[i] - accounted.*fields[i];
      if (owns(endpoint_owned, fields[i])) {
        EXPECT_GE(misc, 0) << "field " << i << " on node " << node;
      } else {
        EXPECT_EQ(misc, 0) << "field " << i << " on node " << node;
      }
    }
  }

  endpoints.clear();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Full consensus runs of LiveRuntime over sockets: group 0 of an
// in-process fabric.
// ---------------------------------------------------------------------------

RunResult run_over_sockets(SocketAddress::Kind kind,
                           const SocketTransportOptions& socket_options,
                           SocketCounters* counters_out,
                           LiveOptions options = {}) {
  const SystemConfig cfg{.n = 3, .t = 1};
  const FuzzTarget* target = find_fuzz_target("hr");
  EXPECT_NE(target, nullptr);
  options.max_rounds = 64;
  LiveRuntime runtime(cfg, options);
  runtime.use_socket_transport(kind, socket_options);
  RunResult result =
      runtime.run(target->factory, distinct_proposals(cfg.n));
  if (counters_out) *counters_out = runtime.socket_counters();
  return result;
}

TEST(SocketRun, CleanUdsRunSatisfiesTheValidator) {
  SocketCounters counters;
  SocketTransportOptions opts;
  opts.seed = 21;
  const RunResult result =
      run_over_sockets(SocketAddress::Kind::Unix, opts, &counters);
  EXPECT_TRUE(result.ok()) << result.validation.to_string() << "\n"
                           << result.trace.to_string();
  EXPECT_GT(counters.envelopes_delivered, 0);
  EXPECT_EQ(counters.injected_resets, 0);
}

TEST(PayloadSharing, SocketRemoteCopiesShareTheSelfDeliveryPayload) {
  // One payload per broadcast: every honest copy a remote receiver logs is
  // the sender's own object, not a separately decoded one.
  SocketTransportOptions opts;
  opts.seed = 24;
  SocketCounters counters;
  const RunResult result =
      run_over_sockets(SocketAddress::Kind::Unix, opts, &counters);
  ASSERT_TRUE(result.ok()) << result.validation.to_string();
  EXPECT_GT(counters.envelopes_delivered, 0);
  std::map<std::pair<ProcessId, Round>, const Message*> own;
  for (const DeliveryRecord& d : result.trace.deliveries()) {
    if (d.sender == d.receiver) own[{d.sender, d.send_round}] = d.payload.get();
  }
  long remote = 0;
  std::set<const Message*> distinct;
  for (const DeliveryRecord& d : result.trace.deliveries()) {
    distinct.insert(d.payload.get());
    if (d.sender == d.receiver) continue;
    ++remote;
    ASSERT_TRUE(own.count({d.sender, d.send_round}));
    EXPECT_EQ(d.payload.get(), own.at({d.sender, d.send_round}))
        << "p" << d.sender << "->p" << d.receiver << " sent@"
        << d.send_round;
  }
  EXPECT_GT(remote, 0);
  EXPECT_EQ(distinct.size(), own.size());
}

TEST(SocketRun, CleanTcpRunSatisfiesTheValidator) {
  SocketCounters counters;
  SocketTransportOptions opts;
  opts.seed = 22;
  const RunResult result =
      run_over_sockets(SocketAddress::Kind::Tcp, opts, &counters);
  EXPECT_TRUE(result.ok()) << result.validation.to_string() << "\n"
                           << result.trace.to_string();
  EXPECT_GT(counters.envelopes_delivered, 0);
}

TEST(SocketRun, ChaoticUdsRunStillDecidesAndValidates) {
  // Heavy seeded chaos for the first 400ms: resets, stalls, short writes,
  // failed connects, accept-close.  Indulgence prices this as delay, never
  // as loss — the run must still terminate and the merged trace must still
  // satisfy the unchanged validator with a derived GST.
  SocketTransportOptions opts;
  opts.seed = 23;
  opts.chaos.seed = 99;
  opts.chaos.until = 400ms;
  opts.chaos.connect_fail_prob = 0.3;
  opts.chaos.accept_close_prob = 0.2;
  opts.chaos.reset_prob = 0.15;
  opts.chaos.stall_prob = 0.2;
  opts.chaos.stall = 2ms;
  opts.chaos.short_write_prob = 0.3;
  SocketCounters counters;
  const RunResult result =
      run_over_sockets(SocketAddress::Kind::Unix, opts, &counters);
  EXPECT_TRUE(result.ok()) << result.validation.to_string() << "\n"
                           << result.trace.to_string();
  EXPECT_GT(counters.injected_faults(), 0) << "chaos layer never fired";
}

TEST(SocketRun, ResendsUnderResetChaosNeverDoubleCountTowardTheQuorum) {
  // Reset-heavy chaos forces the reliable channels to replay their send
  // windows on reconnect, so some envelopes genuinely travel twice.  A
  // duplicate copy reaching a driver must not count a second time toward
  // the n - t quorum gate (the old per-envelope counting could close a
  // round one real sender short); the validator's reliable-channel and
  // t-resilience checks over the merged trace are exactly the "round did
  // not close early" assertion.
  //
  // A resend needs a reset drawn while a written frame is still unacked,
  // i.e. a link with a second frame queued behind the first.  The run is
  // held open for 30 rounds: a link in backoff falls behind its driver,
  // whose n - t quorum needs only the other peer, so frames pile up on it
  // and every reconnect replays them under the same 90% reset draw.  The
  // two drivers ahead keep going until the one behind is done too, so the
  // round cap stays at its default.
  SocketTransportOptions opts;
  opts.seed = 31;
  opts.chaos.seed = 313;
  opts.chaos.until = 300ms;
  opts.chaos.reset_prob = 0.9;
  const SystemConfig cfg{.n = 3, .t = 1};
  LiveRuntime runtime(cfg, LiveOptions{});
  runtime.use_socket_transport(SocketAddress::Kind::Unix, opts);
  runtime.set_done_predicate([](const RoundAlgorithm& algorithm) {
    thread_local int rounds = 0;  // each driver runs on its own thread
    return ++rounds >= 30 && algorithm.decision().has_value();
  });
  const RunResult result = runtime.run(find_fuzz_target("hr")->factory,
                                       distinct_proposals(cfg.n));
  const SocketCounters counters = runtime.socket_counters();
  EXPECT_TRUE(result.ok()) << result.validation.to_string() << "\n"
                           << result.trace.to_string();
  EXPECT_GT(counters.injected_resets, 0) << "chaos never reset a link";
  EXPECT_GT(counters.envelopes_resent, 0) << "no resend was forced";
}

/// p2 crashes in round 2: the crash reaches the transport through p2's
/// GroupPort (mark_dead -> mark_dead_group), the merged trace validates,
/// and the survivors decide.
void expect_crash_survived(SocketAddress::Kind kind) {
  LiveOptions options;
  options.crashes.push_back(CrashInjection{2, 2, false});
  SocketTransportOptions opts;
  opts.seed = 41;
  SocketCounters counters;
  const RunResult result = run_over_sockets(kind, opts, &counters, options);
  EXPECT_TRUE(result.ok()) << result.validation.to_string() << "\n"
                           << result.trace.to_string();
  EXPECT_TRUE(result.trace.crashed().contains(2));
  ProcessSet decided;
  for (const DecisionRecord& d : result.trace.decisions()) {
    decided.insert(d.pid);
  }
  EXPECT_TRUE(decided.contains(0) && decided.contains(1))
      << result.trace.to_string();
  EXPECT_GT(counters.envelopes_delivered, 0);
}

TEST(SocketCrash, UdsRunSilencesTheCrashedReplicaAndSurvivorsDecide) {
  expect_crash_survived(SocketAddress::Kind::Unix);
}

TEST(SocketCrash, TcpRunSilencesTheCrashedReplicaAndSurvivorsDecide) {
  expect_crash_survived(SocketAddress::Kind::Tcp);
}

TEST(SocketCrash, GroupPortMarkDeadDropsCopiesToThatReplicaOnly) {
  // The merge drops pending copies to crashed receivers, so the runs above
  // cannot see whether the transport silenced p2; this checks it directly.
  const SystemConfig cfg{.n = 3, .t = 1};
  const std::string dir = fresh_socket_dir();
  std::vector<SocketAddress> addrs;
  for (int i = 0; i < cfg.n; ++i) {
    addrs.push_back(
        SocketAddress::unix_path(dir + "/p" + std::to_string(i) + ".sock"));
  }
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  std::vector<std::unique_ptr<SocketEndpoint>> endpoints;
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    mailboxes.push_back(std::make_unique<Mailbox>(64));
    endpoints.push_back(
        std::make_unique<SocketEndpoint>(pid, addrs, SocketTransportOptions{}));
    endpoints.back()->add_group(
        identity_group(pid, cfg, mailboxes.back().get()));
  }
  const auto epoch = std::chrono::steady_clock::now();
  for (auto& ep : endpoints) ep->start(epoch);
  GroupPort(endpoints[2].get(), 0).mark_dead(2);
  GroupPort(endpoints[1].get(), 0).mark_dead(0);  // remote pid: ignored
  GroupPort(endpoints[0].get(), 0)
      .dispatch(0, 1, std::make_shared<FloodEstimateMessage>(Value{5}));

  EXPECT_TRUE(stop_and_flush_all(endpoints).empty());
  EXPECT_EQ(mailboxes[1]->drain().size(), 1u);
  EXPECT_TRUE(mailboxes[2]->drain().empty());
  endpoints.clear();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// The flush: resume arithmetic and keepalive boundaries
// ---------------------------------------------------------------------------

TEST(FlushResumeIndex, ArithmeticCoversTheStateSpace) {
  // Empty queue: nothing to skip.
  EXPECT_EQ(flush_resume_index(1, 0, 0), 0u);
  // Nothing acked/flushed yet (sent_up_to below the front): start at 0.
  EXPECT_EQ(flush_resume_index(5, 4, 0), 0u);
  EXPECT_EQ(flush_resume_index(5, 4, 4), 0u);
  // Mid-queue resume: seqs [5..8], flushed through 6 -> resume at index 2.
  EXPECT_EQ(flush_resume_index(5, 4, 6), 2u);
  // Fully flushed (and anything beyond): resume == size, i.e. no work.
  EXPECT_EQ(flush_resume_index(5, 4, 8), 4u);
  EXPECT_EQ(flush_resume_index(5, 4, 100), 4u);
  // Seq 0 front with first frame flushed.
  EXPECT_EQ(flush_resume_index(0, 3, 0), 1u);
}

TEST(Keepalive, BoundariesAreStrictAndSilenceOutranksHeartbeat) {
  SocketTransportOptions opts;
  opts.heartbeat_every = std::chrono::microseconds{25'000};
  opts.peer_silence = std::chrono::microseconds{150'000};
  const auto t0 = std::chrono::steady_clock::time_point{} +
                  std::chrono::seconds{10};

  // Fresh traffic in both directions: nothing owed.
  EXPECT_EQ(keepalive_action(t0, t0, t0, opts), KeepaliveAction::None);
  // Exactly at the heartbeat interval: strict >, still nothing owed.
  EXPECT_EQ(keepalive_action(t0 + opts.heartbeat_every, t0, t0, opts),
            KeepaliveAction::None);
  // One tick past it: heartbeat due.
  EXPECT_EQ(keepalive_action(
                t0 + opts.heartbeat_every + std::chrono::microseconds{1}, t0,
                t0, opts),
            KeepaliveAction::Heartbeat);
  // Exactly at peer_silence: strict >, the rx side is still in grace (but
  // tx is long idle, so a heartbeat is owed).
  EXPECT_EQ(keepalive_action(t0 + opts.peer_silence, t0, t0, opts),
            KeepaliveAction::Heartbeat);
  // Past peer_silence: redial, even though a heartbeat is also overdue —
  // silence outranks keep-alive.
  EXPECT_EQ(keepalive_action(
                t0 + opts.peer_silence + std::chrono::microseconds{1}, t0, t0,
                opts),
            KeepaliveAction::Redial);
  // Recent rx keeps the link alive no matter how stale tx is.
  EXPECT_EQ(keepalive_action(t0 + std::chrono::seconds{5},
                             t0 + std::chrono::seconds{5} -
                                 std::chrono::microseconds{1},
                             t0, opts),
            KeepaliveAction::Heartbeat);
}

// ---------------------------------------------------------------------------
// The non-blocking write: one deadline per write, progress to a draining
// peer, and a blocked link that waits for POLLOUT instead of spinning.
// ---------------------------------------------------------------------------

TEST(SocketWrite, DrainedPeerLetsTheWriteFinish) {
  // A write much larger than the socket buffer finishes in steps, each
  // shipping what the kernel takes while the peer drains.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::vector<std::uint8_t> payload(1 << 20, 0xee);
  std::thread drain([&] {
    std::vector<std::uint8_t> sink(1 << 16);
    std::size_t got = 0;
    while (got < payload.size()) {
      const ssize_t n = ::recv(fds[1], sink.data(), sink.size(), 0);
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
  });
  GatherWrite write;
  write.begin(5s);
  write.add(payload.data(), payload.size());
  GatherWrite::Status status = GatherWrite::Status::Pending;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (status == GatherWrite::Status::Pending &&
         std::chrono::steady_clock::now() < deadline) {
    pollfd p{fds[0], POLLOUT, 0};
    ::poll(&p, 1, 100);
    status = write.step(fds[0], std::chrono::steady_clock::now());
  }
  EXPECT_EQ(status, GatherWrite::Status::Done);
  EXPECT_EQ(write.written(), payload.size());
  EXPECT_GT(write.syscalls(), 1) << "the buffer never filled: no partial write";
  ::close(fds[0]);
  drain.join();
  ::close(fds[1]);
}

TEST(SocketWrite, ProgressDoesNotExtendTheDeadline) {
  // The write's one deadline runs from its FIRST step: later steps that
  // ship more bytes do not buy a fresh send_timeout.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::vector<std::uint8_t> payload(1 << 20, 0xcd);
  GatherWrite write;
  write.begin(100ms);
  write.add(payload.data(), payload.size());
  EXPECT_EQ(write.deadline(), std::chrono::steady_clock::time_point::max());
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_EQ(write.step(fds[0], t0), GatherWrite::Status::Pending);
  const std::size_t first = write.written();
  // Drain what the first step queued, so the socket takes more.
  std::vector<std::uint8_t> sink(1 << 16);
  while (::recv(fds[1], sink.data(), sink.size(), MSG_DONTWAIT) > 0) {
  }
  const auto later = t0 + 80ms;
  pollfd p{fds[0], POLLOUT, 0};
  ASSERT_EQ(::poll(&p, 1, 1000), 1);
  EXPECT_EQ(write.step(fds[0], later), GatherWrite::Status::Pending);
  EXPECT_GT(write.written(), first) << "the second step made no progress";
  EXPECT_EQ(write.deadline(), t0 + 100ms);
  EXPECT_FALSE(write.expired(t0 + 99ms));
  EXPECT_TRUE(write.expired(t0 + 100ms));
  EXPECT_TRUE(write.expired(later + 20ms));
  ::close(fds[0]);
  ::close(fds[1]);
}

/// Node 0 of group 0 whose peers, nodes 1 and 2, are bare listeners that
/// never accept and never read: node 0's links connect (the kernel queues
/// the connection), fill their socket buffers with a deep backlog, and
/// block mid-write.
struct UnreadPeers {
  explicit UnreadPeers(std::chrono::microseconds send_timeout)
      : dir(fresh_socket_dir()) {
    std::vector<SocketAddress> addrs;
    for (int i = 0; i < cfg.n; ++i) {
      addrs.push_back(
          SocketAddress::unix_path(dir + "/p" + std::to_string(i) + ".sock"));
    }
    for (int node : {1, 2}) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      sockaddr_un un{};
      un.sun_family = AF_UNIX;
      const std::string& path = addrs[static_cast<std::size_t>(node)].path;
      std::memcpy(un.sun_path, path.c_str(), path.size() + 1);
      EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&un), sizeof(un)), 0);
      EXPECT_EQ(::listen(fd, 64), 0);
      listeners.push_back(fd);
    }
    SocketTransportOptions opts;
    opts.send_timeout = send_timeout;
    // Keep-alive out of the way: only the write deadline may end a link.
    opts.heartbeat_every = 10s;
    opts.peer_silence = 20s;
    opts.linger = 50ms;
    endpoint = std::make_unique<SocketEndpoint>(0, addrs, opts);
    endpoint->add_group(identity_group(0, cfg, &mailbox));
    for (int i = 0; i < 20'000; ++i) {
      endpoint->dispatch_group(
          0, 0, 1, std::make_shared<FloodEstimateMessage>(Value{i}));
    }
  }

  ~UnreadPeers() {
    endpoint.reset();
    for (int fd : listeners) ::close(fd);
    std::filesystem::remove_all(dir);
  }

  /// Waits until the links stop shipping frames for 100 ms: their socket
  /// buffers are full and their writes are blocked.
  void await_blocked() {
    long last = -1;
    int still = 0;
    for (int i = 0; i < 500 && still < 5; ++i) {
      std::this_thread::sleep_for(20ms);
      const long sent = endpoint->group_counters(0).envelopes_sent;
      still = sent == last && sent > 0 ? still + 1 : 0;
      last = sent;
    }
    if (still < 5) ADD_FAILURE() << "the links never blocked";
  }

  const SystemConfig cfg{.n = 3, .t = 1};
  std::string dir;
  std::vector<int> listeners;
  Mailbox mailbox{64};
  std::unique_ptr<SocketEndpoint> endpoint;
};

TEST(SocketWrite, UnreadPeerIsDroppedOneSendTimeoutAfterTheWriteStarted) {
  // The peer stops reading: the blocked write must give up about
  // send_timeout after it started — one deadline for the whole write —
  // and the link redials.  A redial well past that bound would mean the
  // budget was stacked or restarted along the way.
  const std::chrono::milliseconds send_timeout = 150ms;
  UnreadPeers fabric(send_timeout);
  const auto start = std::chrono::steady_clock::now();
  fabric.endpoint->start(start);
  std::chrono::steady_clock::duration redial{};
  while (std::chrono::steady_clock::now() - start < 10s) {
    if (fabric.endpoint->link_counters(1).connect_attempts >= 2) {
      redial = std::chrono::steady_clock::now() - start;
      break;
    }
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GE(redial, send_timeout);
  EXPECT_LT(redial, 2 * send_timeout + 300ms);
  EXPECT_GT(fabric.endpoint->group_counters(0).envelopes_sent, 0);
}

TEST(SocketWrite, BlockedLinkWaitsInsteadOfSpinning) {
  // While both links are blocked mid-write, the loop waits for POLLOUT:
  // a 50 ms window (well over 500 us) may see a handful of send attempts,
  // not the thousands a retry-until-deadline spin would make.
  UnreadPeers fabric(10s);
  fabric.endpoint->start(std::chrono::steady_clock::now());
  fabric.await_blocked();
  const long before = fabric.endpoint->counters().flush_syscalls;
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(50ms);
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 500us);
  const long attempts = fabric.endpoint->counters().flush_syscalls - before;
  EXPECT_LE(attempts, 4);
  EXPECT_EQ(fabric.endpoint->link_counters(1).connect_attempts, 1);
}

TEST(SocketEndpoint, ExpeditedLinkRedialsWithoutWaitingOutItsBackoff) {
  // Nobody listens at the peers' addresses, so every dial fails and the
  // backoff (5 s here) would hold the next one back.  Once expedited, a
  // shutdown must not wait: the link redials within milliseconds.
  const SystemConfig cfg{.n = 3, .t = 1};
  const std::string dir = fresh_socket_dir();
  std::vector<SocketAddress> addrs;
  for (int i = 0; i < cfg.n; ++i) {
    addrs.push_back(
        SocketAddress::unix_path(dir + "/p" + std::to_string(i) + ".sock"));
  }
  Mailbox mailbox(64);
  SocketTransportOptions opts;
  opts.backoff = BackoffPolicy{5s, 5s};
  opts.linger = 50ms;
  SocketEndpoint ep(0, addrs, opts);
  ep.add_group(identity_group(0, cfg, &mailbox));
  ep.start(std::chrono::steady_clock::now());
  const auto attempts = [&] { return ep.link_counters(1).connect_attempts; };
  const auto wait_for = [&](long want, std::chrono::milliseconds within) {
    const auto until = std::chrono::steady_clock::now() + within;
    while (attempts() < want && std::chrono::steady_clock::now() < until) {
      std::this_thread::sleep_for(1ms);
    }
    return attempts();
  };
  ASSERT_GE(wait_for(1, 2000ms), 1);
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(attempts(), 1) << "the backoff did not hold the redial back";
  ep.expedite();
  EXPECT_GE(wait_for(3, 200ms), 3);
  ep.stop_and_flush();
  std::filesystem::remove_all(dir);
}

TEST(SocketEndpoint, DeepBacklogFlushesLinearlyAndCoalesced) {
  // The resend-scan regression test: queue a 10k-envelope backlog BEFORE
  // the supervisors start, so the first flush cycles face the whole pile.
  // The old per-frame find_if from begin() made this quadratic in the
  // backlog and the old write loop spent one syscall per frame; the fix
  // must deliver every copy, promptly, at >= 4 frames per flush syscall.
  constexpr int kBacklog = 10'000;
  const SystemConfig cfg{.n = 3, .t = 1};
  const std::string dir = fresh_socket_dir();
  std::vector<SocketAddress> addrs;
  for (int i = 0; i < cfg.n; ++i) {
    addrs.push_back(
        SocketAddress::unix_path(dir + "/p" + std::to_string(i) + ".sock"));
  }
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  std::vector<std::unique_ptr<SocketEndpoint>> endpoints;
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    mailboxes.push_back(std::make_unique<Mailbox>(kBacklog + 64));
    SocketTransportOptions opts;
    opts.seed = 700 + static_cast<std::uint64_t>(pid);
    endpoints.push_back(std::make_unique<SocketEndpoint>(pid, addrs, opts));
    endpoints.back()->add_group(
        identity_group(pid, cfg, mailboxes.back().get()));
  }
  for (int i = 0; i < kBacklog; ++i) {
    endpoints[0]->dispatch_group(
        0, 0, 1, std::make_shared<FloodEstimateMessage>(Value{i}));
  }

  const auto start = std::chrono::steady_clock::now();
  for (auto& ep : endpoints) ep->start(start);
  const long expected = static_cast<long>(kBacklog) * (cfg.n - 1);
  const auto deadline = start + std::chrono::seconds{30};
  while (std::chrono::steady_clock::now() < deadline) {
    const SocketCounters c = endpoints[0]->counters();
    if (c.envelopes_sent + c.envelopes_resent >= expected) break;
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;

  const std::vector<UndeliveredCopy> rest = stop_and_flush_all(endpoints);
  EXPECT_TRUE(rest.empty());
  SocketCounters total;
  for (auto& ep : endpoints) total += ep->counters();
  EXPECT_EQ(total.envelopes_sent + total.envelopes_resent, expected);
  EXPECT_EQ(total.envelopes_delivered, expected);
  ASSERT_GT(total.flush_syscalls, 0);
  const double frames_per_syscall =
      static_cast<double>(total.envelopes_sent + total.envelopes_resent) /
      static_cast<double>(total.flush_syscalls);
  EXPECT_GE(frames_per_syscall, 4.0);
  // Linear-time guard: 20k copies over loopback UDS take well under a
  // second batched; the quadratic rescan blew past this by orders of
  // magnitude.  Generous for slow CI machines.
  EXPECT_LT(elapsed, std::chrono::seconds{20});
  endpoints.clear();
  std::filesystem::remove_all(dir);
}

TEST(SocketEndpoint, ChaosDribbleDeliversWithinPerFrameBudgets) {
  // Short-write chaos on every frame, byte-at-a-time: with the per-byte
  // timeout bug each dribbled frame could stall up to frame_len *
  // send_timeout; with one deadline per frame the whole exchange still
  // completes promptly and correctly.
  const SystemConfig cfg{.n = 3, .t = 1};
  const std::string dir = fresh_socket_dir();
  std::vector<SocketAddress> addrs;
  for (int i = 0; i < cfg.n; ++i) {
    addrs.push_back(
        SocketAddress::unix_path(dir + "/p" + std::to_string(i) + ".sock"));
  }
  constexpr int kMessages = 50;
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  std::vector<std::unique_ptr<SocketEndpoint>> endpoints;
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    mailboxes.push_back(std::make_unique<Mailbox>(1024));
    SocketTransportOptions opts;
    opts.seed = 800 + static_cast<std::uint64_t>(pid);
    opts.chaos.seed = 900 + static_cast<std::uint64_t>(pid);
    opts.chaos.until = std::chrono::hours{1};  // chaos for the whole test
    opts.chaos.short_write_prob = 1.0;         // dribble EVERY frame
    endpoints.push_back(std::make_unique<SocketEndpoint>(pid, addrs, opts));
    endpoints.back()->add_group(
        identity_group(pid, cfg, mailboxes.back().get()));
  }
  const auto start = std::chrono::steady_clock::now();
  for (auto& ep : endpoints) ep->start(start);
  for (int i = 0; i < kMessages; ++i) {
    endpoints[0]->dispatch_group(
        0, 0, 1, std::make_shared<FloodEstimateMessage>(Value{i}));
  }
  for (ProcessId pid = 1; pid < cfg.n; ++pid) {
    for (int i = 0; i < kMessages; ++i) {
      auto env = mailboxes[static_cast<std::size_t>(pid)]->pop_for(
          std::chrono::seconds{30});
      ASSERT_TRUE(env.has_value()) << "p" << pid << " message " << i;
      EXPECT_EQ(env->payload->describe(),
                FloodEstimateMessage(Value{i}).describe());
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  SocketCounters total;
  const std::vector<UndeliveredCopy> rest = stop_and_flush_all(endpoints);
  for (auto& ep : endpoints) total += ep->counters();
  EXPECT_TRUE(rest.empty());
  EXPECT_GT(total.injected_short_writes, 0) << "dribble path never exercised";
  // ~37-byte frames at 100% short-write probability: the per-byte budget
  // bug allowed minutes; one deadline per frame keeps this in seconds.
  EXPECT_LT(elapsed, std::chrono::seconds{60});
  endpoints.clear();
  std::filesystem::remove_all(dir);
}

TEST(SocketEndpoint, ChaosOnOneLinkDoesNotDebatchTheOthers) {
  // Node 0 dribbles every frame on its link to node 1 (chaos scoped there
  // with only_node) while a deep backlog waits for both peers: the chaotic
  // link writes one frame at a time, the clean link to node 2 must keep
  // shipping coalesced batches from the same flush.
  constexpr int kBacklog = 2'000;
  const SystemConfig cfg{.n = 3, .t = 1};
  const std::string dir = fresh_socket_dir();
  std::vector<SocketAddress> addrs;
  for (int i = 0; i < cfg.n; ++i) {
    addrs.push_back(
        SocketAddress::unix_path(dir + "/p" + std::to_string(i) + ".sock"));
  }
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  std::vector<std::unique_ptr<SocketEndpoint>> endpoints;
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    mailboxes.push_back(std::make_unique<Mailbox>(kBacklog + 64));
    SocketTransportOptions opts;
    opts.seed = 1200 + static_cast<std::uint64_t>(pid);
    if (pid == 0) {
      opts.chaos.seed = 1300;
      opts.chaos.until = std::chrono::hours{1};
      opts.chaos.short_write_prob = 1.0;
      opts.chaos.only_node = 1;
    }
    endpoints.push_back(std::make_unique<SocketEndpoint>(pid, addrs, opts));
    endpoints.back()->add_group(
        identity_group(pid, cfg, mailboxes.back().get()));
  }
  for (int i = 0; i < kBacklog; ++i) {
    endpoints[0]->dispatch_group(
        0, 0, 1, std::make_shared<FloodEstimateMessage>(Value{i}));
  }
  const auto epoch = std::chrono::steady_clock::now();
  for (auto& ep : endpoints) ep->start(epoch);
  for (ProcessId pid = 1; pid < cfg.n; ++pid) {
    for (int i = 0; i < kBacklog; ++i) {
      ASSERT_TRUE(mailboxes[static_cast<std::size_t>(pid)]->pop_for(30s))
          << "p" << pid << " copy " << i;
    }
  }
  EXPECT_TRUE(stop_and_flush_all(endpoints).empty());

  const SocketCounters chaotic = endpoints[0]->link_counters(1);
  EXPECT_GT(chaotic.injected_short_writes, 0);
  const SocketCounters clean = endpoints[0]->link_counters(2);
  EXPECT_EQ(clean.injected_short_writes, 0);
  ASSERT_GT(clean.flush_syscalls, 0);
  const double frames_per_syscall =
      static_cast<double>(kBacklog + clean.envelopes_resent) /
      static_cast<double>(clean.flush_syscalls);
  EXPECT_GE(frames_per_syscall, 4.0);
  endpoints.clear();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Resources: one thread per endpoint, and no connection outlives its peer.
// ---------------------------------------------------------------------------

std::size_t count_entries(const char* dir) {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++n;
  }
  return n;
}

/// Three endpoints hosting group 0 over UDS, not yet started.
struct ThreeNodes {
  explicit ThreeNodes(const std::function<void(SocketTransportOptions&,
                                               ProcessId)>& tune = {})
      : dir(fresh_socket_dir()) {
    std::vector<SocketAddress> addrs;
    for (int i = 0; i < cfg.n; ++i) {
      addrs.push_back(
          SocketAddress::unix_path(dir + "/p" + std::to_string(i) + ".sock"));
    }
    for (ProcessId pid = 0; pid < cfg.n; ++pid) {
      mailboxes.push_back(std::make_unique<Mailbox>(1 << 16));
      SocketTransportOptions opts;
      opts.seed = 1400 + static_cast<std::uint64_t>(pid);
      if (tune) tune(opts, pid);
      endpoints.push_back(std::make_unique<SocketEndpoint>(pid, addrs, opts));
      endpoints.back()->add_group(
          identity_group(pid, cfg, mailboxes.back().get()));
    }
  }

  ~ThreeNodes() {
    endpoints.clear();
    std::filesystem::remove_all(dir);
  }

  const SystemConfig cfg{.n = 3, .t = 1};
  std::string dir;
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  std::vector<std::unique_ptr<SocketEndpoint>> endpoints;
};

TEST(SocketEndpoint, EachStartRunsExactlyOneThread) {
  // One event loop per endpoint: start() adds exactly one thread, live
  // connections add none, and the stop joins every loop without starting
  // a thread of its own.
  ThreeNodes fabric;
  // Sanitizer runtimes start a helper thread with the first thread the
  // process creates; let that happen before counting.
  std::thread([] {}).join();
  const std::size_t baseline = count_entries("/proc/self/task");
  const auto epoch = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < fabric.endpoints.size(); ++i) {
    const std::size_t before = count_entries("/proc/self/task");
    fabric.endpoints[i]->start(epoch);
    EXPECT_EQ(count_entries("/proc/self/task"), before + 1) << "endpoint " << i;
  }
  for (ProcessId pid = 0; pid < fabric.cfg.n; ++pid) {
    fabric.endpoints[static_cast<std::size_t>(pid)]->dispatch_group(
        0, pid, 1, std::make_shared<FloodEstimateMessage>(Value{pid}));
  }
  for (auto& mailbox : fabric.mailboxes) {
    for (int i = 0; i < fabric.cfg.n - 1; ++i) {
      ASSERT_TRUE(mailbox->pop_for(5s).has_value());
    }
  }
  // Every link is connected and every inbound connection accepted.
  EXPECT_EQ(count_entries("/proc/self/task"), baseline + 3);
  EXPECT_TRUE(stop_and_flush_all(fabric.endpoints).empty());
  // A joined thread can linger in /proc for a moment after it is released.
  for (int i = 0; i < 100 && count_entries("/proc/self/task") != baseline;
       ++i) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(count_entries("/proc/self/task"), baseline);
}

TEST(SocketEndpoint, ResetChaosDoesNotAccumulateInboundConnections) {
  // Every injected reset ends a connection: the link redials, and the
  // peer must release the inbound side as soon as it reads the EOF, not
  // at stop.  So the process' open fds stay within a small constant of
  // their count right after start, however many resets pile up.
  ThreeNodes fabric([](SocketTransportOptions& opts, ProcessId pid) {
    opts.chaos.seed = 1500 + static_cast<std::uint64_t>(pid);
    opts.chaos.until = std::chrono::hours{1};
    opts.chaos.reset_prob = 0.5;
  });
  const auto epoch = std::chrono::steady_clock::now();
  for (auto& ep : fabric.endpoints) ep->start(epoch);
  const std::size_t baseline = count_entries("/proc/self/fd");
  std::size_t peak = baseline;
  long resets = 0;
  for (Round k = 1; resets < 1000; ++k) {
    ASSERT_LT(std::chrono::steady_clock::now() - epoch, 60s)
        << "only " << resets << " resets";
    for (ProcessId pid = 0; pid < fabric.cfg.n; ++pid) {
      fabric.endpoints[static_cast<std::size_t>(pid)]->dispatch_group(
          0, pid, k, std::make_shared<FloodEstimateMessage>(Value{k}));
    }
    for (auto& mailbox : fabric.mailboxes) mailbox->drain();
    peak = std::max(peak, count_entries("/proc/self/fd"));
    resets = 0;
    for (auto& ep : fabric.endpoints) resets += ep->counters().injected_resets;
    std::this_thread::sleep_for(200us);
  }
  stop_and_flush_all(fabric.endpoints);
  EXPECT_GE(resets, 1000);
  // Each endpoint holds a listener, an eventfd, two links and about two
  // inbound connections; a reset briefly overlaps an old connection with
  // its redial.  Leaking one fd per reset would blow far past this.
  EXPECT_LE(peak, baseline + 24) << "baseline " << baseline;
}

// ---------------------------------------------------------------------------
// Teardown: endpoints that stop together end on the FIN exchange, not on
// `linger`; linger only bounds a peer that never says goodbye.
// ---------------------------------------------------------------------------

/// Three endpoints hosting group 0 over UDS or TCP loopback, resolved
/// through their bound listeners (TCP ports are ephemeral).
struct TeardownFabric {
  TeardownFabric(SocketAddress::Kind kind, std::chrono::microseconds linger) {
    if (kind == SocketAddress::Kind::Unix) dir = fresh_socket_dir();
    AddressResolver resolve = [this](ProcessId pid)
        -> std::optional<SocketAddress> {
      return endpoints[static_cast<std::size_t>(pid)]->listen_address();
    };
    for (ProcessId pid = 0; pid < cfg.n; ++pid) {
      mailboxes.push_back(std::make_unique<Mailbox>(4096));
      SocketTransportOptions opts;
      opts.seed = 1100 + static_cast<std::uint64_t>(pid);
      opts.linger = linger;
      endpoints.push_back(std::make_unique<SocketEndpoint>(
          pid, cfg.n,
          kind == SocketAddress::Kind::Unix
              ? SocketAddress::unix_path(dir + "/p" + std::to_string(pid) +
                                         ".sock")
              : SocketAddress::tcp_loopback(0),
          resolve, opts));
      endpoints.back()->add_group(
          identity_group(pid, cfg, mailboxes.back().get()));
    }
  }

  ~TeardownFabric() {
    endpoints.clear();
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }

  /// Every endpoint in `senders` broadcasts rounds 1..rounds; with `await`
  /// the call returns once every copy reached its mailbox.
  void broadcast(const std::vector<ProcessId>& senders, Round rounds,
                 bool await) {
    for (Round k = 1; k <= rounds; ++k) {
      for (ProcessId pid : senders) {
        endpoints[static_cast<std::size_t>(pid)]->dispatch_group(
            0, pid, k, std::make_shared<FloodEstimateMessage>(Value{k}));
      }
    }
    if (!await) return;
    for (ProcessId r = 0; r < cfg.n; ++r) {
      const long expected =
          rounds * static_cast<long>(senders.size() -
                                     std::count(senders.begin(),
                                                senders.end(), r));
      for (long i = 0; i < expected; ++i) {
        ASSERT_TRUE(mailboxes[static_cast<std::size_t>(r)]->pop_for(5s))
            << "p" << r << " copy " << i;
      }
    }
  }

  /// Stops `which` concurrently; returns each stop's duration and appends
  /// the undelivered copies to `rest`.
  std::vector<std::chrono::steady_clock::duration> stop_timed(
      const std::vector<ProcessId>& which, std::vector<UndeliveredCopy>& rest) {
    std::vector<std::chrono::steady_clock::duration> took(which.size());
    std::vector<std::vector<UndeliveredCopy>> parts(which.size());
    std::vector<std::thread> stoppers;
    for (std::size_t i = 0; i < which.size(); ++i) {
      stoppers.emplace_back([&, i] {
        const auto t0 = std::chrono::steady_clock::now();
        parts[i] =
            endpoints[static_cast<std::size_t>(which[i])]->stop_and_flush();
        took[i] = std::chrono::steady_clock::now() - t0;
      });
    }
    for (std::thread& t : stoppers) t.join();
    for (auto& part : parts) rest.insert(rest.end(), part.begin(), part.end());
    return took;
  }

  const SystemConfig cfg{.n = 3, .t = 1};
  std::string dir;
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  std::vector<std::unique_ptr<SocketEndpoint>> endpoints;
};

void expect_stop_ends_on_fin(SocketAddress::Kind kind) {
  // A linger long enough that waiting it out could not pass for a FIN.
  const std::chrono::microseconds linger = 2s;
  TeardownFabric fabric(kind, linger);
  const auto epoch = std::chrono::steady_clock::now();
  for (auto& ep : fabric.endpoints) ep->start(epoch);
  fabric.broadcast({0, 1, 2}, 20, /*await=*/true);
  // A last burst still in flight when the stop begins: the links drain it
  // before they say FIN.
  fabric.broadcast({0, 1, 2}, 5, /*await=*/false);

  std::vector<UndeliveredCopy> rest;
  const auto took = fabric.stop_timed({0, 1, 2}, rest);
  for (std::size_t i = 0; i < took.size(); ++i) {
    EXPECT_LT(took[i], linger / 4) << "endpoint " << i;
  }
  EXPECT_TRUE(rest.empty()) << rest.size() << " copies left undelivered";
  SocketCounters total;
  for (auto& ep : fabric.endpoints) total += ep->counters();
  EXPECT_EQ(total.envelopes_delivered, 25 * 3 * 2);
}

TEST(SocketTeardown, ConcurrentUdsStopEndsOnFinNotLinger) {
  expect_stop_ends_on_fin(SocketAddress::Kind::Unix);
}

TEST(SocketTeardown, ConcurrentTcpStopEndsOnFinNotLinger) {
  expect_stop_ends_on_fin(SocketAddress::Kind::Tcp);
}

TEST(SocketTeardown, PeerThatNeverSaysFinIsBoundedByLinger) {
  // p2 binds its listener but never starts, like a process that crashed
  // before teardown: it neither acks nor says FIN.
  const std::chrono::microseconds linger = 300ms;
  TeardownFabric fabric(SocketAddress::Kind::Unix, linger);
  const auto epoch = std::chrono::steady_clock::now();
  fabric.endpoints[0]->start(epoch);
  fabric.endpoints[1]->start(epoch);
  fabric.broadcast({0, 1}, 3, /*await=*/false);
  for (ProcessId r : {0, 1}) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(fabric.mailboxes[static_cast<std::size_t>(r)]->pop_for(5s));
    }
  }

  std::vector<UndeliveredCopy> rest;
  const auto took = fabric.stop_timed({0, 1}, rest);
  for (std::size_t i = 0; i < took.size(); ++i) {
    EXPECT_GE(took[i], linger) << "endpoint " << i;
    EXPECT_LT(took[i], linger + 2s) << "endpoint " << i;
  }
  // Only the copies addressed to the silent peer stay undelivered.
  EXPECT_EQ(rest.size(), 6u);
  for (const UndeliveredCopy& copy : rest) EXPECT_EQ(copy.receiver, 2);
}

TEST(SocketRun, At2RunsOverSocketsToo) {
  const SystemConfig cfg{.n = 4, .t = 1};
  const FuzzTarget* target = find_fuzz_target("at2");
  ASSERT_NE(target, nullptr);
  LiveOptions options;
  options.max_rounds = 64;
  LiveRuntime runtime(cfg, options);
  SocketTransportOptions opts;
  opts.seed = 24;
  runtime.use_socket_transport(SocketAddress::Kind::Unix, opts);
  const RunResult result =
      runtime.run(target->factory, distinct_proposals(cfg.n));
  EXPECT_TRUE(result.ok()) << result.validation.to_string() << "\n"
                           << result.trace.to_string();
}

}  // namespace
}  // namespace indulgence
