#include "sim/stats.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace indulgence {

void TraceStats::merge(const TraceStats& other) {
  rounds = std::max(rounds, other.rounds);
  sends += other.sends;
  dummy_sends += other.dummy_sends;
  deliveries += other.deliveries;
  delayed_deliveries += other.delayed_deliveries;
  lost_messages += other.lost_messages;
  suspicions += other.suspicions;
  wire_messages += other.wire_messages;
}

std::string TraceStats::to_string() const {
  std::ostringstream os;
  os << "rounds=" << rounds << " sends=" << sends
     << " (dummy=" << dummy_sends << ") wire=" << wire_messages
     << " delivered=" << deliveries << " (delayed=" << delayed_deliveries
     << ") lost=" << lost_messages << " suspicions=" << suspicions;
  return os.str();
}

TraceStats compute_stats(const RunTrace& trace, Round until_round) {
  TraceStats stats;
  const Round horizon =
      until_round > 0 ? until_round : trace.rounds_executed();
  stats.rounds = horizon;
  const int n = trace.config().n;

  std::map<ProcessId, Round> crash_round;
  for (const CrashRecord& c : trace.crashes()) crash_round[c.pid] = c.round;
  auto completes = [&](ProcessId pid, Round k) {
    auto it = crash_round.find(pid);
    return it == crash_round.end() || it->second > k;
  };

  for (const SendRecord& s : trace.sends()) {
    if (s.round > horizon) continue;
    ++stats.sends;
    if (s.dummy) ++stats.dummy_sends;
    stats.wire_messages += n - 1;
  }

  std::set<std::tuple<ProcessId, Round, ProcessId>> delivered;
  for (const DeliveryRecord& d : trace.deliveries()) {
    if (d.recv_round > horizon) continue;
    ++stats.deliveries;
    if (d.recv_round > d.send_round) ++stats.delayed_deliveries;
    delivered.insert({d.sender, d.send_round, d.receiver});
  }

  // Pending messages are per-copy: one sender/round message may be delayed
  // to one receiver while another copy of it is lost outright.
  std::set<std::tuple<ProcessId, Round, ProcessId>> pending;
  for (const PendingRecord& p : trace.pending()) {
    pending.insert({p.sender, p.send_round, p.receiver});
  }

  for (const SendRecord& s : trace.sends()) {
    if (s.round > horizon) continue;
    for (ProcessId rec = 0; rec < n; ++rec) {
      if (rec == s.sender) continue;
      if (delivered.count({s.sender, s.round, rec})) continue;
      if (pending.count({s.sender, s.round, rec})) continue;
      // A copy counts as lost only if its receiver was still alive in the
      // send round; a receiver already crashed by then never expected it.
      // (Liveness at the horizon is the wrong test: a receiver crashing
      // mid-window used to hide every loss it suffered before crashing.)
      if (completes(rec, s.round)) ++stats.lost_messages;
    }
  }

  // Suspicions: a live (this round) sender's round-k message missing from a
  // completing receiver's round-k receipt.
  std::map<Round, std::set<ProcessId>> senders_by_round;
  for (const SendRecord& s : trace.sends()) {
    if (s.round >= 1 && s.round <= horizon) {
      senders_by_round[s.round].insert(s.sender);
    }
  }
  const InRoundIndex in_round(trace);
  for (Round k = 1; k <= horizon; ++k) {
    const std::set<ProcessId>& sent_this_round = senders_by_round[k];
    for (ProcessId rec = 0; rec < n; ++rec) {
      if (!completes(rec, k)) continue;
      const ProcessSet got = in_round.senders(rec, k);
      for (ProcessId sender : sent_this_round) {
        if (sender != rec && !got.contains(sender)) ++stats.suspicions;
      }
    }
  }
  return stats;
}

}  // namespace indulgence
