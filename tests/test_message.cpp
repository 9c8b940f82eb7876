// Message payloads, envelopes, and the harness-level helpers.

#include <gtest/gtest.h>

#include "consensus/consensus.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "core/at2.hpp"
#include "net/wire.hpp"
#include "rsm/rsm.hpp"
#include "sim/harness.hpp"
#include "sim/message.hpp"

namespace indulgence {
namespace {

TEST(Message, EnvelopeDowncasting) {
  Envelope env{2, 5, std::make_shared<DecideMessage>(42)};
  ASSERT_NE(env.as<DecideMessage>(), nullptr);
  EXPECT_EQ(env.as<DecideMessage>()->value(), 42);
  EXPECT_EQ(env.as<HaltedMessage>(), nullptr);
  EXPECT_EQ(env.as<At2EstimateMessage>(), nullptr);
}

TEST(Message, CurrentRoundSendersFiltersBySendRound) {
  Delivery delivery;
  auto payload = std::make_shared<FillerMessage>();
  delivery.push_back({0, 3, payload});
  delivery.push_back({1, 2, payload});  // delayed round-2 message
  delivery.push_back({2, 3, payload});
  const auto senders = current_round_senders(delivery, 3);
  EXPECT_EQ(senders, (std::vector<ProcessId>{0, 2}));
}

TEST(Message, DescribeStringsAreUseful) {
  EXPECT_EQ(HaltedMessage(7).describe(), "HALTED(decided=7)");
  EXPECT_EQ(DecideMessage(3).describe(), "DECIDE(3)");
  EXPECT_EQ(FillerMessage().describe(), "FILLER");
  At2EstimateMessage est(5, ProcessSet{1});
  EXPECT_NE(est.describe().find("est=5"), std::string::npos);
  EXPECT_NE(est.describe().find("p1"), std::string::npos);
  At2NewEstimateMessage bottom(kBottom);
  EXPECT_NE(bottom.describe().find("BOTTOM"), std::string::npos);
}

TEST(Message, FindDecideNoticeSeesBothKinds) {
  Delivery delivery;
  delivery.push_back({0, 1, std::make_shared<FillerMessage>()});
  EXPECT_EQ(find_decide_notice(delivery), std::nullopt);
  delivery.push_back({1, 1, std::make_shared<HaltedMessage>(9)});
  EXPECT_EQ(find_decide_notice(delivery), std::optional<Value>{9});
  delivery.clear();
  delivery.push_back({2, 1, std::make_shared<DecideMessage>(4)});
  EXPECT_EQ(find_decide_notice(delivery), std::optional<Value>{4});
}

// --- same_content: typed equality behind the equivocation check ---------

/// same_content in both directions, checked against its contract:
/// describe() equality.
bool same(const Message& a, const Message& b) {
  const bool forward = a.same_content(b);
  EXPECT_EQ(forward, b.same_content(a)) << a.describe() << " / "
                                        << b.describe();
  EXPECT_EQ(forward, a.describe() == b.describe())
      << a.describe() << " / " << b.describe();
  return forward;
}

MessagePtr vote(Value v) {
  return std::make_shared<At2UnderlyingMessage>(
      std::make_shared<HrVoteMessage>(v));
}

std::shared_ptr<RsmBundleMessage> bundle(
    const std::vector<std::pair<int, MessagePtr>>& parts) {
  std::vector<RsmPart> flat;
  for (const auto& [slot, message] : parts) {
    flat.push_back(to_part(slot, *message));
  }
  return std::make_shared<RsmBundleMessage>(std::move(flat));
}

TEST(SameContent, HurfinRaynalMessagesCompareByValue) {
  EXPECT_TRUE(same(HrCoordMessage(4), HrCoordMessage(4)));
  EXPECT_FALSE(same(HrCoordMessage(4), HrCoordMessage(5)));
  EXPECT_TRUE(same(HrVoteMessage(kBottom), HrVoteMessage(kBottom)));
  EXPECT_FALSE(same(HrVoteMessage(kBottom), HrVoteMessage(4)));
  EXPECT_FALSE(same(HrVoteMessage(4), HrCoordMessage(4)));
}

TEST(SameContent, At2MessagesCompareEveryField) {
  const ProcessSet halt{0, 2};
  EXPECT_TRUE(same(At2EstimateMessage(3, halt), At2EstimateMessage(3, halt)));
  EXPECT_FALSE(same(At2EstimateMessage(3, halt), At2EstimateMessage(4, halt)));
  EXPECT_FALSE(
      same(At2EstimateMessage(3, halt), At2EstimateMessage(3, ProcessSet{0})));
  EXPECT_TRUE(same(At2NewEstimateMessage(7), At2NewEstimateMessage(7)));
  EXPECT_FALSE(same(At2NewEstimateMessage(7), At2NewEstimateMessage(kBottom)));
  // The wrapper recurses into separately allocated inner payloads.
  EXPECT_TRUE(same(*vote(2), *vote(2)));
  EXPECT_FALSE(same(*vote(2), *vote(3)));
  EXPECT_FALSE(same(*vote(2), At2UnderlyingMessage(
                                  std::make_shared<HrCoordMessage>(2))));
  EXPECT_FALSE(same(At2NewEstimateMessage(3), At2EstimateMessage(3, halt)));
  EXPECT_FALSE(same(At2NewEstimateMessage(3), HrVoteMessage(3)));
}

TEST(SameContent, DecideAndFillerCompareByValue) {
  EXPECT_TRUE(same(DecideMessage(9), DecideMessage(9)));
  EXPECT_FALSE(same(DecideMessage(9), DecideMessage(8)));
  EXPECT_TRUE(same(FillerMessage(), FillerMessage()));
  EXPECT_FALSE(same(FillerMessage(), DecideMessage(9)));
  EXPECT_FALSE(same(DecideMessage(9), HaltedMessage(9)));
}

TEST(SameContent, RsmBundlesCompareSlotKeysAndPartsPairwise) {
  const auto make = [] {
    return bundle({{0, std::make_shared<DecideMessage>(5)}, {1, vote(3)}});
  };
  EXPECT_TRUE(same(*make(), *make()));
  // One part differs.
  EXPECT_FALSE(same(
      *make(),
      *bundle({{0, std::make_shared<DecideMessage>(5)}, {1, vote(4)}})));
  // Same parts under a different slot key.
  EXPECT_FALSE(same(
      *make(),
      *bundle({{0, std::make_shared<DecideMessage>(5)}, {2, vote(3)}})));
  // A missing or an extra part.
  EXPECT_FALSE(same(*make(),
                    *bundle({{0, std::make_shared<DecideMessage>(5)}})));
  EXPECT_FALSE(same(*make(), *bundle({{0, std::make_shared<DecideMessage>(5)},
                                      {1, vote(3)},
                                      {2, vote(3)}})));
  EXPECT_TRUE(same(*bundle({}), *bundle({})));
  EXPECT_FALSE(same(*make(), DecideMessage(5)));
}

/// A steady-state A_{t+2} + Hurfin-Raynal bundle, as the live RSM sends it:
/// a retained DECIDE, a FILLER, a phase-1 estimate with a halt set, a
/// BOTTOM new estimate, and the underlying module's coordinator and vote.
/// `hr_vote` and `halt` let a caller change one part.
std::shared_ptr<RsmBundleMessage> steady_state_bundle(
    Value hr_vote = kBottom, ProcessSet halt = ProcessSet{0, 2}) {
  return bundle({{3, std::make_shared<DecideMessage>(41)},
                 {4, std::make_shared<FillerMessage>()},
                 {5, std::make_shared<At2EstimateMessage>(17, halt)},
                 {6, std::make_shared<At2NewEstimateMessage>(kBottom)},
                 {7, std::make_shared<At2UnderlyingMessage>(
                         std::make_shared<HrCoordMessage>(9))},
                 {8, vote(hr_vote)}});
}

TEST(SameContent, SteadyStateBundlesCompareEveryPartField) {
  const auto own = steady_state_bundle();
  // A separately decoded copy, as a socket reader hands it to a replica.
  WireWriter w;
  encode_message(*own, w);
  WireReader r(w.data(), w.size());
  const MessagePtr copy = decode_message(r);
  ASSERT_NE(copy, nullptr);
  EXPECT_TRUE(same(*own, *copy));
  EXPECT_TRUE(same(*steady_state_bundle(), *steady_state_bundle()));
  // The BOTTOM vote against a value, and the halt set against another.
  EXPECT_FALSE(same(*own, *steady_state_bundle(4)));
  EXPECT_FALSE(same(*own, *steady_state_bundle(kBottom, ProcessSet{0})));
  // The same leaf with and without its At2Underlying wrapper.
  EXPECT_FALSE(same(*bundle({{8, vote(kBottom)}}),
                    *bundle({{8, std::make_shared<HrVoteMessage>(kBottom)}})));
  // DECIDE and HALTED carry one value but are different payloads.
  EXPECT_FALSE(same(*bundle({{3, std::make_shared<DecideMessage>(41)}}),
                    *bundle({{3, std::make_shared<HaltedMessage>(41)}})));
}

TEST(SameContent, BundleSlotsMustStrictlyAscend) {
  EXPECT_THROW(bundle({{2, std::make_shared<FillerMessage>()},
                       {1, std::make_shared<FillerMessage>()}}),
               std::invalid_argument);
  EXPECT_THROW(bundle({{1, std::make_shared<FillerMessage>()},
                       {1, std::make_shared<DecideMessage>(3)}}),
               std::invalid_argument);
}

TEST(SameContent, TypesWithoutAnOverrideFallBackToDescribe) {
  EXPECT_TRUE(same(HaltedMessage(1), HaltedMessage(1)));
  EXPECT_FALSE(same(HaltedMessage(1), HaltedMessage(2)));
}

TEST(Harness, RunResultSummaryMentionsEveryProperty) {
  const SystemConfig cfg{.n = 5, .t = 2};
  KernelOptions options;
  options.model = Model::ES;
  options.max_rounds = 64;
  RunResult r = run_and_check(cfg, options,
                              at2_factory(hurfin_raynal_factory()),
                              distinct_proposals(cfg.n),
                              failure_free_schedule(cfg));
  const std::string s = r.summary();
  EXPECT_NE(s.find("decision_round=4"), std::string::npos);
  EXPECT_NE(s.find("agreement=ok"), std::string::npos);
  EXPECT_NE(s.find("validity=ok"), std::string::npos);
  EXPECT_NE(s.find("termination=ok"), std::string::npos);
  EXPECT_NE(s.find("model=valid"), std::string::npos);
}

TEST(Harness, WorstCaseSyncDecisionRoundMatchesE1) {
  const SystemConfig cfg{.n = 5, .t = 2};
  const Round worst = worst_case_sync_decision_round(
      cfg, at2_factory(hurfin_raynal_factory()),
      {distinct_proposals(cfg.n)}, cfg.t);
  EXPECT_EQ(worst, cfg.t + 2);
}

TEST(Harness, RoundCapYieldsTerminationFailureNotCrash) {
  const SystemConfig cfg{.n = 5, .t = 2};
  KernelOptions options;
  options.model = Model::ES;
  options.max_rounds = 2;  // far too short for A_{t+2}
  RunResult r = run_and_check(cfg, options,
                              at2_factory(hurfin_raynal_factory()),
                              distinct_proposals(cfg.n),
                              failure_free_schedule(cfg));
  EXPECT_FALSE(r.termination);
  EXPECT_FALSE(r.global_decision_round.has_value());
  EXPECT_FALSE(r.trace.terminated());
  EXPECT_TRUE(r.agreement) << "no decisions, so trivially agreeing";
}

}  // namespace
}  // namespace indulgence
