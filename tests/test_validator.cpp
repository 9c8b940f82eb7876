// The independent model validator: accepts conforming traces, rejects each
// class of violation.  Synthetic traces are built by hand so the validator
// is tested without trusting the kernel.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "consensus/consensus.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "core/at2.hpp"
#include "net/wire.hpp"
#include "rsm/rsm.hpp"
#include "sim/validator.hpp"

namespace indulgence {
namespace {

const SystemConfig kCfg{.n = 3, .t = 1};

/// A hand-built, fully synchronous, crash-free 1-round ES trace.
RunTrace clean_trace() {
  RunTrace trace(kCfg, Model::ES, /*gst=*/1);
  trace.set_rounds_executed(1);
  trace.set_terminated(true);
  for (ProcessId s = 0; s < kCfg.n; ++s) {
    trace.record_proposal(s, s);
    trace.record_send({1, s, false});
  }
  for (ProcessId r = 0; r < kCfg.n; ++r) {
    for (ProcessId s = 0; s < kCfg.n; ++s) {
      trace.record_delivery({1, r, s, 1, nullptr});
    }
  }
  return trace;
}

TEST(Validator, AcceptsCleanTrace) {
  const ValidationReport report = validate_trace(clean_trace());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Validator, RejectsTooManyCrashes) {
  RunTrace trace = clean_trace();
  trace.record_crash({1, 0, true});
  trace.record_crash({1, 1, true});  // two crashes, t = 1
  const ValidationReport report = validate_trace(trace);
  EXPECT_FALSE(report.ok());
}

TEST(Validator, RejectsDoubleCrash) {
  RunTrace trace = clean_trace();
  trace.record_crash({1, 0, true});
  trace.record_crash({1, 0, true});
  EXPECT_FALSE(validate_trace(trace).ok());
}

TEST(Validator, RejectsReceiptWithoutSend) {
  RunTrace trace = clean_trace();
  trace.record_delivery({1, 0, 2, 0, nullptr});  // "round 0" never sent
  EXPECT_FALSE(validate_trace(trace).ok());
}

TEST(Validator, RejectsDuplicateDelivery) {
  RunTrace trace = clean_trace();
  trace.record_delivery({1, 0, 1, 1, nullptr});  // second copy
  EXPECT_FALSE(validate_trace(trace).ok());
}

TEST(Validator, RejectsDeliveryToCrashedProcess) {
  RunTrace trace(kCfg, Model::ES, 1);
  trace.set_rounds_executed(2);
  for (ProcessId s = 0; s < kCfg.n; ++s) trace.record_send({1, s, false});
  trace.record_crash({1, 0, false});
  // p0 crashed in round 1 yet "receives" in round 2.
  trace.record_send({2, 1, false});
  trace.record_delivery({2, 0, 1, 2, nullptr});
  const ValidationReport report = validate_trace(trace);
  EXPECT_FALSE(report.ok());
}

TEST(Validator, RejectsMissingSelfDelivery) {
  RunTrace trace = clean_trace();
  // Remove is impossible on the record API; instead build a fresh trace
  // where p0 misses its own message.
  RunTrace bad(kCfg, Model::ES, 1);
  bad.set_rounds_executed(1);
  bad.set_terminated(true);
  for (ProcessId s = 0; s < kCfg.n; ++s) bad.record_send({1, s, false});
  for (ProcessId r = 0; r < kCfg.n; ++r) {
    for (ProcessId s = 0; s < kCfg.n; ++s) {
      if (r == 0 && s == 0) continue;
      bad.record_delivery({1, r, s, 1, nullptr});
    }
  }
  EXPECT_FALSE(validate_trace(bad).ok());
}

TEST(Validator, RejectsLateSelfDelivery) {
  RunTrace bad(kCfg, Model::ES, 2);
  bad.set_rounds_executed(2);
  for (ProcessId s = 0; s < kCfg.n; ++s) bad.record_send({1, s, false});
  for (ProcessId r = 0; r < kCfg.n; ++r) {
    for (ProcessId s = 0; s < kCfg.n; ++s) {
      if (r == s) continue;
      bad.record_delivery({1, r, s, 1, nullptr});
    }
  }
  for (ProcessId p = 0; p < kCfg.n; ++p) {
    bad.record_delivery({2, p, p, 1, nullptr});  // own message, next round
  }
  EXPECT_FALSE(validate_trace(bad).ok());
}

TEST(Validator, EsRejectsStarvedReceiver) {
  // p0 receives only its own round-1 message: 1 < n - t = 2.
  RunTrace bad(kCfg, Model::ES, /*gst=*/5);
  bad.set_rounds_executed(1);
  for (ProcessId s = 0; s < kCfg.n; ++s) bad.record_send({1, s, false});
  bad.record_delivery({1, 0, 0, 1, nullptr});
  for (ProcessId r = 1; r < kCfg.n; ++r) {
    for (ProcessId s = 0; s < kCfg.n; ++s) {
      bad.record_delivery({1, r, s, 1, nullptr});
    }
  }
  // Mark the missing messages as pending so reliable-channels holds; the
  // t-resilience check must still fire.
  bad.record_pending({1, 0, 1, 2});
  bad.record_pending({2, 0, 1, 2});
  const ValidationReport report = validate_trace(bad);
  EXPECT_FALSE(report.ok());
  bool resilience = false;
  for (const std::string& v : report.violations) {
    resilience |= v.find("t-resilience") != std::string::npos;
  }
  EXPECT_TRUE(resilience) << report.to_string();
}

TEST(Validator, EsRejectsLostCorrectToCorrectMessage) {
  RunTrace bad(kCfg, Model::ES, /*gst=*/5);
  bad.set_rounds_executed(1);
  for (ProcessId s = 0; s < kCfg.n; ++s) bad.record_send({1, s, false});
  for (ProcessId r = 0; r < kCfg.n; ++r) {
    for (ProcessId s = 0; s < kCfg.n; ++s) {
      if (r == 2 && s == 1) continue;  // p1 -> p2 vanished, both correct
      bad.record_delivery({1, r, s, 1, nullptr});
    }
  }
  const ValidationReport report = validate_trace(bad);
  EXPECT_FALSE(report.ok());
  bool reliable = false;
  for (const std::string& v : report.violations) {
    reliable |= v.find("reliable channels") != std::string::npos;
  }
  EXPECT_TRUE(reliable) << report.to_string();
}

TEST(Validator, EsAcceptsPendingAsNotLost) {
  RunTrace trace(kCfg, Model::ES, /*gst=*/5);
  trace.set_rounds_executed(1);
  for (ProcessId s = 0; s < kCfg.n; ++s) trace.record_send({1, s, false});
  for (ProcessId r = 0; r < kCfg.n; ++r) {
    for (ProcessId s = 0; s < kCfg.n; ++s) {
      if (r == 2 && s == 1) continue;
      trace.record_delivery({1, r, s, 1, nullptr});
    }
  }
  trace.record_pending({1, 2, 1, 3});  // p1 -> p2 still in flight
  // p2 now only has n - t current-round messages... exactly 2 = n - t: OK.
  EXPECT_TRUE(validate_trace(trace).ok())
      << validate_trace(trace).to_string();
}

TEST(Validator, EsRejectsPostGstDelay) {
  RunTrace bad(kCfg, Model::ES, /*gst=*/1);  // synchronous run
  bad.set_rounds_executed(2);
  for (Round k = 1; k <= 2; ++k) {
    for (ProcessId s = 0; s < kCfg.n; ++s) bad.record_send({k, s, false});
  }
  for (Round k = 1; k <= 2; ++k) {
    for (ProcessId r = 0; r < kCfg.n; ++r) {
      for (ProcessId s = 0; s < kCfg.n; ++s) {
        if (k == 1 && r == 2 && s == 1) continue;  // delayed below
        bad.record_delivery({k, r, s, k, nullptr});
      }
    }
  }
  bad.record_delivery({2, 2, 1, 1, nullptr});  // round-1 msg lands in round 2
  const ValidationReport report = validate_trace(bad);
  EXPECT_FALSE(report.ok());
  bool synchrony = false;
  for (const std::string& v : report.violations) {
    synchrony |= v.find("synchrony") != std::string::npos;
  }
  EXPECT_TRUE(synchrony) << report.to_string();
}

TEST(Validator, ScsRejectsAnyDelayedDelivery) {
  RunTrace bad(kCfg, Model::SCS, 1);
  bad.set_rounds_executed(2);
  for (Round k = 1; k <= 2; ++k) {
    for (ProcessId s = 0; s < kCfg.n; ++s) bad.record_send({k, s, false});
    for (ProcessId r = 0; r < kCfg.n; ++r) {
      for (ProcessId s = 0; s < kCfg.n; ++s) {
        bad.record_delivery({k, r, s, k, nullptr});
      }
    }
  }
  bad.record_delivery({2, 0, 1, 1, nullptr});  // duplicate AND delayed
  EXPECT_FALSE(validate_trace(bad).ok());
}

// ---------------------------------------------------------------------------
// Equivocation over socket-decoded RSM bundles: every receiver holds its own
// decoded copy, so the check compares content, not pointers.
// ---------------------------------------------------------------------------

/// A wire round-trip: an equal payload in a separate allocation, as a
/// socket reader hands it to its replica.
MessagePtr decoded(const Message& message) {
  WireWriter w;
  encode_message(message, w);
  WireReader r(w.bytes().data(), w.bytes().size());
  MessagePtr copy = decode_message(r);
  EXPECT_NE(copy, nullptr);
  return copy;
}

MessagePtr rsm_bundle(int vote_slot, Value vote) {
  return std::make_shared<RsmBundleMessage>(std::vector<RsmPart>{
      to_part(0, DecideMessage(5)),
      to_part(vote_slot, At2UnderlyingMessage(
                             std::make_shared<HrVoteMessage>(vote)))});
}

/// The clean 1-round trace, with p0's broadcast carried as `own` to itself
/// and as separately decoded copies of `to_p1` and `to_p2` to the others.
RunTrace bundle_broadcast(const MessagePtr& own, const Message& to_p1,
                          const Message& to_p2) {
  RunTrace trace(kCfg, Model::ES, /*gst=*/1);
  trace.set_rounds_executed(1);
  trace.set_terminated(true);
  for (ProcessId s = 0; s < kCfg.n; ++s) trace.record_send({1, s, false});
  const MessagePtr filler = std::make_shared<FillerMessage>();
  const MessagePtr from_p0[] = {own, decoded(to_p1), decoded(to_p2)};
  for (ProcessId r = 0; r < kCfg.n; ++r) {
    for (ProcessId s = 0; s < kCfg.n; ++s) {
      trace.record_delivery({1, r, s, 1, s == 0 ? from_p0[r] : filler});
    }
  }
  return trace;
}

TEST(ValidatorEquivocation, SeparatelyDecodedEqualBundlesAreClean) {
  const MessagePtr own = rsm_bundle(1, 3);
  const ValidationReport report =
      validate_trace(bundle_broadcast(own, *own, *own));
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ValidatorEquivocation, BundleDifferingInOnePartIsFlagged) {
  const MessagePtr own = rsm_bundle(1, 3);
  const ValidationReport report =
      validate_trace(bundle_broadcast(own, *own, *rsm_bundle(1, 4)));
  EXPECT_EQ(report.violations,
            std::vector<std::string>{
                "equivocation by unbudgeted p0: round-1 broadcast differs "
                "across receivers (RSM{s0:DECIDE(5), s1:C[HR-VOTE(3)]} vs "
                "RSM{s0:DECIDE(5), s1:C[HR-VOTE(4)]})"});
}

TEST(ValidatorEquivocation, BundleDifferingInOneSlotKeyIsFlagged) {
  const MessagePtr own = rsm_bundle(1, 3);
  const ValidationReport report =
      validate_trace(bundle_broadcast(own, *rsm_bundle(2, 3), *own));
  EXPECT_EQ(report.violations,
            std::vector<std::string>{
                "equivocation by unbudgeted p0: round-1 broadcast differs "
                "across receivers (RSM{s0:DECIDE(5), s1:C[HR-VOTE(3)]} vs "
                "RSM{s0:DECIDE(5), s2:C[HR-VOTE(3)]})"});
}

// ---------------------------------------------------------------------------
// Long traces: the round-indexed checks must report exactly what the
// per-query scans reported, at lengths where those scans were quadratic.
// ---------------------------------------------------------------------------

const SystemConfig kCfg5{.n = 5, .t = 2};

/// `rounds` rounds at n = 5 in which every copy arrives in its own round,
/// except that p1 hears only p0 and itself in round `starved` (the other
/// three copies arrive one round late) and p3 gets p4's round-`late` copy
/// one round late.
RunTrace long_trace(Model model, Round gst, Round rounds, Round starved,
                    Round late) {
  RunTrace trace(kCfg5, model, gst);
  trace.set_rounds_executed(rounds);
  trace.set_terminated(true);
  const auto delayed = [&](Round k, ProcessId r, ProcessId s) {
    return (k == starved && r == 1 && s >= 2) ||
           (k == late && r == 3 && s == 4);
  };
  for (Round k = 1; k <= rounds; ++k) {
    for (ProcessId s = 0; s < kCfg5.n; ++s) trace.record_send({k, s, false});
    for (ProcessId r = 0; r < kCfg5.n; ++r) {
      for (ProcessId s = 0; s < kCfg5.n; ++s) {
        if (!delayed(k, r, s)) trace.record_delivery({k, r, s, k, nullptr});
      }
    }
    for (ProcessId r = 0; r < kCfg5.n; ++r) {
      for (ProcessId s = 0; s < kCfg5.n; ++s) {
        if (delayed(k - 1, r, s)) {
          trace.record_delivery({k, r, s, k - 1, nullptr});
        }
      }
    }
  }
  return trace;
}

TEST(ValidatorLongTrace, EsReportsTheStarvedRoundAndThePostGstMiss) {
  const ValidationReport report = validate_trace(
      long_trace(Model::ES, /*gst=*/1900, /*rounds=*/2000, /*starved=*/1800,
                 /*late=*/1995));
  EXPECT_EQ(report.violations,
            (std::vector<std::string>{
                "t-resilience: p1 received only 2 round-1800 messages in "
                "round 1800",
                "synchrony: p3 missed round-1995 message of live sender p4"}));
}

TEST(ValidatorLongTrace, ScsReportsEveryDelayAndEveryMiss) {
  const ValidationReport report = validate_trace(
      long_trace(Model::SCS, /*gst=*/1, /*rounds=*/2000, /*starved=*/1800,
                 /*late=*/1995));
  EXPECT_EQ(report.violations,
            (std::vector<std::string>{
                "SCS: delayed delivery p2->p1 sent@1800 recv@1801",
                "SCS: delayed delivery p3->p1 sent@1800 recv@1801",
                "SCS: delayed delivery p4->p1 sent@1800 recv@1801",
                "SCS: delayed delivery p4->p3 sent@1995 recv@1996",
                "synchrony: p1 missed round-1800 message of live sender p2",
                "synchrony: p1 missed round-1800 message of live sender p3",
                "synchrony: p1 missed round-1800 message of live sender p4",
                "synchrony: p3 missed round-1995 message of live sender p4"}));
}

// ---------------------------------------------------------------------------
// Malformed traces: out-of-range senders and rounds get the report, or the
// exception, the per-query scans gave.
// ---------------------------------------------------------------------------

const SystemConfig kCfg4{.n = 4, .t = 1};

/// A clean 1-round ES trace at n = 4 with p0 a declared liar, plus a copy
/// p0 forged in the name of `sender` for p1, received in `recv_round`.
RunTrace forged_by_liar(ProcessId sender, Round recv_round) {
  RunTrace trace(kCfg4, Model::ES, /*gst=*/1);
  trace.set_rounds_executed(1);
  trace.set_terminated(true);
  trace.record_byzantine(0);
  trace.set_byzantine_budget(1);
  for (ProcessId s = 0; s < kCfg4.n; ++s) trace.record_send({1, s, false});
  for (ProcessId r = 0; r < kCfg4.n; ++r) {
    for (ProcessId s = 0; s < kCfg4.n; ++s) {
      trace.record_delivery({1, r, s, 1, nullptr});
    }
  }
  trace.record_delivery({recv_round, 1, sender, 1, nullptr, /*origin=*/0});
  return trace;
}

std::string thrown_by(const RunTrace& trace) {
  try {
    validate_trace(trace);
  } catch (const std::out_of_range& error) {
    return error.what();
  }
  return "no exception";
}

TEST(ValidatorMalformed, InRoundSenderBeyondProcessSetThrowsTheRangeError) {
  EXPECT_EQ(thrown_by(forged_by_liar(70, 1)),
            "ProcessSet: process id 70 out of range [0, 64)");
  EXPECT_EQ(thrown_by(forged_by_liar(-5, 1)),
            "ProcessSet: process id -5 out of range [0, 64)");
}

TEST(ValidatorMalformed, DelayedSenderBeyondProcessSetIsNotQueried) {
  const ValidationReport report = validate_trace(forged_by_liar(70, 2));
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ValidatorMalformed, SenderOutsideTheSystemIsReportedAndCounted) {
  // p5 does not exist at n = 3, yet its copy counts towards p2's round-1
  // quorum, exactly as the scan counted it.
  RunTrace trace(kCfg, Model::ES, /*gst=*/2);
  trace.set_rounds_executed(1);
  for (ProcessId s = 0; s < kCfg.n; ++s) trace.record_send({1, s, false});
  for (ProcessId r = 0; r < kCfg.n; ++r) {
    for (ProcessId s = 0; s < kCfg.n; ++s) {
      if (r != 2 || s == 2) trace.record_delivery({1, r, s, 1, nullptr});
    }
  }
  trace.record_delivery({1, 2, 5, 1, nullptr});
  trace.record_pending({0, 2, 1, 2});
  trace.record_pending({1, 2, 1, 2});
  const ValidationReport report = validate_trace(trace);
  EXPECT_EQ(report.violations,
            std::vector<std::string>{"message p5->p2 (sent@1, recv@1) "
                                     "received without having been sent"});
}

TEST(ValidatorMalformed, RoundsOutsideTheRunAreCheckedLikeAnyOther) {
  RunTrace trace = clean_trace();
  trace.record_send({0, 1, false});
  trace.record_send({9, 2, false});
  trace.record_delivery({0, 0, 1, 0, nullptr});
  trace.record_delivery({9, 1, 2, 9, nullptr});
  trace.record_delivery({-3, 2, 2, -3, nullptr});
  const ValidationReport report = validate_trace(trace);
  EXPECT_EQ(report.violations,
            (std::vector<std::string>{
                "message p2->p2 (sent@-3, recv@-3) received without having "
                "been sent",
                "p1 missed its own round-0 message",
                "p2 missed its own round-9 message",
                "synchrony: p0 missed round-9 message of live sender p2",
                "synchrony: p2 missed round-9 message of live sender p2",
                "reliable channels: round-0 message p1->p1 (both correct) "
                "was lost",
                "reliable channels: round-0 message p1->p2 (both correct) "
                "was lost",
                "reliable channels: round-9 message p2->p0 (both correct) "
                "was lost",
                "reliable channels: round-9 message p2->p2 (both correct) "
                "was lost"}));
}

TEST(Validator, ExpectValidThrowsWithReport) {
  RunTrace bad = clean_trace();
  bad.record_crash({1, 0, true});
  bad.record_crash({1, 1, true});
  EXPECT_THROW(expect_valid(bad), std::runtime_error);
}

}  // namespace
}  // namespace indulgence
