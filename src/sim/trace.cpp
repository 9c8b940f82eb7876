#include "sim/trace.hpp"

#include <algorithm>
#include <sstream>

namespace indulgence {

ProcessSet RunTrace::crashed() const {
  ProcessSet s;
  for (const CrashRecord& c : crashes_) s.insert(c.pid);
  return s;
}

ProcessSet RunTrace::correct() const {
  return ProcessSet::all(config_.n) - crashed() - byzantine_;
}

std::optional<Round> RunTrace::crash_round(ProcessId pid) const {
  for (const CrashRecord& c : crashes_) {
    if (c.pid == pid) return c.round;
  }
  return std::nullopt;
}

std::optional<Decision> RunTrace::decision_of(ProcessId pid) const {
  for (const DecisionRecord& d : decisions_) {
    if (d.pid == pid) return Decision{d.value, d.round};
  }
  return std::nullopt;
}

bool RunTrace::all_correct_decided() const {
  for (ProcessId pid : correct()) {
    if (!decision_of(pid)) return false;
  }
  return true;
}

std::optional<Round> RunTrace::global_decision_round() const {
  if (decisions_.empty() || !all_correct_decided()) return std::nullopt;
  Round max_round = 0;
  for (const DecisionRecord& d : decisions_) {
    max_round = std::max(max_round, d.round);
  }
  return max_round;
}

bool RunTrace::agreement_ok() const {
  const DecisionRecord* first = nullptr;
  for (const DecisionRecord& d : decisions_) {
    if (byzantine_.contains(d.pid)) continue;  // liars may "decide" anything
    if (first == nullptr) {
      first = &d;
    } else if (d.value != first->value) {
      return false;
    }
  }
  return true;
}

bool RunTrace::validity_ok() const {
  // Weak validity under declared liars: a consistent lie is
  // indistinguishable from a real proposal, so the property is vacuous.
  if (!byzantine_.empty()) return true;
  return std::all_of(
      decisions_.begin(), decisions_.end(), [this](const DecisionRecord& d) {
        return std::any_of(proposals_.begin(), proposals_.end(),
                           [&d](const auto& kv) { return kv.second == d.value; });
      });
}

ProcessSet RunTrace::in_round_senders(ProcessId receiver, Round round) const {
  return InRoundIndex(*this).senders(receiver, round);
}

InRoundIndex::InRoundIndex(const RunTrace& trace) {
  // About n in-round copies land in each cell.
  cells_.reserve(trace.deliveries().size() /
                 static_cast<std::size_t>(std::max(trace.config().n, 1)));
  for (const DeliveryRecord& d : trace.deliveries()) {
    if (d.recv_round != d.send_round) continue;
    if (d.sender < 0 || d.sender >= kMaxProcesses) {
      odd_.push_back(OddCopy{d.recv_round, d.receiver, d.sender});
      continue;
    }
    cells_[key(d.recv_round, d.receiver)].insert(d.sender);
  }
}

ProcessSet InRoundIndex::senders(ProcessId receiver, Round round) const {
  for (const OddCopy& odd : odd_) {
    if (odd.round == round && odd.receiver == receiver) {
      ProcessSet{}.insert(odd.sender);  // throws the range error
    }
  }
  const auto it = cells_.find(key(round, receiver));
  return it == cells_.end() ? ProcessSet{} : it->second;
}

bool InRoundIndex::contains(ProcessId sender, Round round,
                            ProcessId receiver) const {
  if (sender < 0 || sender >= kMaxProcesses) {
    return std::any_of(odd_.begin(), odd_.end(), [&](const OddCopy& odd) {
      return odd.round == round && odd.receiver == receiver &&
             odd.sender == sender;
    });
  }
  const auto it = cells_.find(key(round, receiver));
  return it != cells_.end() && it->second.contains(sender);
}

std::vector<DeliveryRecord> RunTrace::delivered_to(ProcessId receiver,
                                                   Round round) const {
  std::vector<DeliveryRecord> out;
  for (const DeliveryRecord& d : deliveries_) {
    if (d.receiver == receiver && d.recv_round == round) out.push_back(d);
  }
  return out;
}

std::string RunTrace::to_string() const {
  std::ostringstream os;
  os << "run: model=" << indulgence::to_string(model_) << " n=" << config_.n
     << " t=" << config_.t << " gst=" << gst_
     << " rounds=" << rounds_executed_
     << (terminated_ ? "" : " [ROUND CAP HIT]") << '\n';
  os << "proposals:";
  for (const auto& [pid, v] : proposals_) os << " p" << pid << "=" << v;
  os << '\n';
  if (!byzantine_.empty()) {
    os << "byzantine (budget " << byzantine_budget_ << "):";
    for (ProcessId pid : byzantine_) os << " p" << pid;
    os << '\n';
  }
  for (Round k = 1; k <= rounds_executed_; ++k) {
    os << "round " << k << ":\n";
    for (const CrashRecord& c : crashes_) {
      if (c.round == k) {
        os << "  CRASH p" << c.pid
           << (c.before_send ? " (before send)" : " (after send)") << '\n';
      }
    }
    for (const DeliveryRecord& d : deliveries_) {
      if (d.recv_round != k) continue;
      os << "  p" << d.sender << " -> p" << d.receiver;
      if (d.send_round != k) os << "  [delayed from round " << d.send_round << "]";
      if (d.payload) os << "  " << d.payload->describe();
      os << '\n';
    }
    for (const DecisionRecord& d : decisions_) {
      if (d.round == k) os << "  DECIDE p" << d.pid << " = " << d.value << '\n';
    }
    for (const auto& [pid, round] : halts_) {
      if (round == k) os << "  HALT p" << pid << '\n';
    }
  }
  if (!pending_.empty()) {
    os << "pending at end:";
    for (const PendingRecord& p : pending_) {
      os << " (p" << p.sender << "->p" << p.receiver << " sent@" << p.send_round
         << " due@" << p.deliver_round << ")";
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace indulgence
