// RunTrace queries and the Table formatter.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "common/table.hpp"
#include "sim/trace.hpp"

namespace indulgence {
namespace {

const SystemConfig kCfg{.n = 4, .t = 1};

RunTrace sample_trace() {
  RunTrace trace(kCfg, Model::ES, 2);
  trace.set_rounds_executed(3);
  trace.set_terminated(true);
  for (ProcessId pid = 0; pid < kCfg.n; ++pid) {
    trace.record_proposal(pid, pid * 10);
  }
  trace.record_crash({2, 3, false});
  trace.record_decision({3, 0, 10});
  trace.record_decision({2, 1, 10});
  trace.record_decision({3, 2, 10});
  return trace;
}

TEST(Trace, CrashedAndCorrect) {
  const RunTrace trace = sample_trace();
  EXPECT_EQ(trace.crashed(), (ProcessSet{3}));
  EXPECT_EQ(trace.correct(), (ProcessSet{0, 1, 2}));
  EXPECT_EQ(trace.crash_round(3), std::optional<Round>{2});
  EXPECT_EQ(trace.crash_round(0), std::nullopt);
}

TEST(Trace, DecisionsAndGlobalDecisionRound) {
  const RunTrace trace = sample_trace();
  EXPECT_EQ(trace.decision_of(0), (std::optional<Decision>{{10, 3}}));
  EXPECT_EQ(trace.decision_of(3), std::nullopt);
  EXPECT_TRUE(trace.all_correct_decided());
  EXPECT_EQ(trace.global_decision_round(), std::optional<Round>{3});
}

TEST(Trace, GlobalDecisionRoundRequiresAllCorrectDecided) {
  RunTrace trace(kCfg, Model::ES, 1);
  trace.set_rounds_executed(2);
  trace.record_decision({2, 0, 5});
  EXPECT_FALSE(trace.all_correct_decided());
  EXPECT_EQ(trace.global_decision_round(), std::nullopt);
}

TEST(Trace, AgreementAndValidity) {
  RunTrace trace = sample_trace();
  EXPECT_TRUE(trace.agreement_ok());
  EXPECT_TRUE(trace.validity_ok());
  trace.record_decision({3, 3, 20});
  EXPECT_FALSE(trace.agreement_ok());
  RunTrace invalid(kCfg, Model::ES, 1);
  invalid.record_proposal(0, 1);
  invalid.record_decision({1, 0, 99});
  EXPECT_FALSE(invalid.validity_ok());
}

TEST(Trace, InRoundSendersFiltersDelayed) {
  RunTrace trace(kCfg, Model::ES, 3);
  trace.set_rounds_executed(2);
  trace.record_send({1, 0, false});
  trace.record_send({1, 1, false});
  trace.record_delivery({1, 2, 0, 1, nullptr});   // in-round
  trace.record_delivery({2, 2, 1, 1, nullptr});   // delayed round-1 msg
  EXPECT_EQ(trace.in_round_senders(2, 1), (ProcessSet{0}));
  EXPECT_TRUE(trace.in_round_senders(2, 2).empty());
  EXPECT_EQ(trace.delivered_to(2, 2).size(), 1u);
}

TEST(InRoundIndex, AnswersEveryCellOfAMixedTrace) {
  RunTrace trace(kCfg, Model::ES, 3);
  trace.set_rounds_executed(3);
  trace.record_delivery({1, 0, 0, 1, nullptr});
  trace.record_delivery({1, 0, 2, 1, nullptr});
  trace.record_delivery({2, 0, 1, 1, nullptr});  // delayed: not in-round
  trace.record_delivery({2, 0, 1, 2, nullptr});
  trace.record_delivery({3, 3, 3, 3, nullptr});
  trace.record_delivery({3, 3, 3, 3, nullptr});  // duplicate copy
  trace.record_delivery({7, 9, 5, 7, nullptr});  // outside round and system
  const InRoundIndex index(trace);
  EXPECT_EQ(index.senders(0, 1), (ProcessSet{0, 2}));
  EXPECT_EQ(index.senders(0, 2), (ProcessSet{1}));
  EXPECT_EQ(index.senders(3, 3), (ProcessSet{3}));
  EXPECT_EQ(index.senders(9, 7), (ProcessSet{5}));
  EXPECT_TRUE(index.senders(1, 1).empty());
  EXPECT_TRUE(index.senders(0, 4).empty());
  EXPECT_TRUE(index.contains(2, 1, 0));
  EXPECT_FALSE(index.contains(1, 1, 0));
  EXPECT_TRUE(index.contains(5, 7, 9));
  EXPECT_FALSE(index.contains(-1, 1, 0));
  for (ProcessId r = 0; r < kCfg.n; ++r) {
    for (Round k = 0; k <= 4; ++k) {
      EXPECT_EQ(trace.in_round_senders(r, k), index.senders(r, k))
          << "p" << r << " round " << k;
    }
  }
}

TEST(InRoundIndex, UnrepresentableSenderThrowsOnlyForItsCell) {
  RunTrace trace(kCfg, Model::ES, 1);
  trace.set_rounds_executed(2);
  trace.record_delivery({1, 0, 1, 1, nullptr});
  trace.record_delivery({1, 0, 64, 1, nullptr});
  trace.record_delivery({2, 1, -2, 1, nullptr});  // delayed: never indexed
  const InRoundIndex index(trace);
  EXPECT_THROW(index.senders(0, 1), std::out_of_range);
  EXPECT_THROW(trace.in_round_senders(0, 1), std::out_of_range);
  EXPECT_TRUE(index.senders(1, 2).empty());
  EXPECT_TRUE(index.contains(64, 1, 0));
  EXPECT_FALSE(index.contains(-2, 1, 1));
  EXPECT_TRUE(index.contains(1, 1, 0));
}

TEST(Trace, ToStringMentionsKeyEvents) {
  const std::string dump = sample_trace().to_string();
  EXPECT_NE(dump.find("CRASH p3"), std::string::npos);
  EXPECT_NE(dump.find("DECIDE p0 = 10"), std::string::npos);
  EXPECT_NE(dump.find("n=4"), std::string::npos);
}

TEST(Table, AlignsAndRenders) {
  Table table({"algorithm", "rounds"});
  table.add("A_{t+2}", 5);
  table.add("FloodSet", 3);
  const std::string out = table.to_string("Decision rounds");
  EXPECT_NE(out.find("Decision rounds"), std::string::npos);
  EXPECT_NE(out.find("| A_{t+2}"), std::string::npos);
  EXPECT_NE(out.find("| 5"), std::string::npos);
  EXPECT_EQ(table.rows(), 2);
}

TEST(Table, PadsShortRows) {
  Table table({"a", "b", "c"});
  table.add_row({"only one"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("only one"), std::string::npos);
}

TEST(Table, BoolCellsRenderAsYesNo) {
  Table table({"flag"});
  table.add(true);
  table.add(false);
  const std::string out = table.to_string();
  EXPECT_NE(out.find("yes"), std::string::npos);
  EXPECT_NE(out.find("no"), std::string::npos);
}

TEST(Table, PrintWritesToStream) {
  Table table({"x"});
  table.add(1);
  std::ostringstream os;
  table.print(os, "T");
  EXPECT_FALSE(os.str().empty());
}

}  // namespace
}  // namespace indulgence
