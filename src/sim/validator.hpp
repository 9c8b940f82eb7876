// Independent model-conformance checking of run traces.
//
// The validator re-derives every constraint of the paper's models
// (Sect. 1.2) from the raw trace — it shares no state with the kernel or
// the adversaries, so it catches bugs in either:
//
//   common    - at most t crashes, each process crashes at most once;
//             - messages are received at most once, never without having
//               been sent, never before being sent, never by a crashed
//               process;
//             - self-delivery is in-round;
//             - halting implies a decision.
//   SCS       - no delayed messages at all;
//             - a sender that does not crash in round k is received
//               in-round by every process completing round k.
//   ES        - t-resilience: every process completing round k receives
//               round-k messages from at least n - t processes in round k;
//             - eventual synchrony: from round gst() on, SCS-style delivery
//               for non-crashing senders;
//             - reliable channels: a message from a correct process to a
//               correct process is delivered or still pending, never lost.
//
// Cost: one pass builds an InRoundIndex (sim/trace.hpp), so the in-round
// checks are O(1) per (round, receiver) or (send, receiver) pair, and the
// rest is O(D log D) over D records.  Separately decoded copies of one
// broadcast are compared with Message::same_content.

#pragma once

#include <string>
#include <vector>

#include "sim/trace.hpp"

namespace indulgence {

struct ValidationReport {
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  std::string to_string() const;
};

/// Checks `trace` against its own model() and gst().
ValidationReport validate_trace(const RunTrace& trace);

/// Throwing convenience used in tests: aborts with the full report.
void expect_valid(const RunTrace& trace);

}  // namespace indulgence
