#include "rsm/rsm.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace indulgence {
namespace {

/// The value an unwrapped DECIDE or HALTED part settles its slot with: what
/// find_decide_notice reads off the Message the part stands for.
std::optional<Value> decide_notice(const RsmPart& part) {
  if (part.wraps == 0 &&
      (part.tag == PayloadTag::Decide || part.tag == PayloadTag::Halted)) {
    return part.wide[0];
  }
  return std::nullopt;
}

}  // namespace

RsmBundleMessage::RsmBundleMessage(std::vector<RsmPart> parts)
    : parts_(std::move(parts)) {
  const auto unordered =
      std::adjacent_find(parts_.begin(), parts_.end(),
                         [](const RsmPart& a, const RsmPart& b) {
                           return a.slot >= b.slot;
                         });
  if (unordered != parts_.end()) {
    throw std::invalid_argument("RsmBundleMessage: slots must ascend");
  }
}

std::string RsmBundleMessage::describe() const {
  std::ostringstream os;
  os << "RSM{";
  bool first = true;
  for (const RsmPart& part : parts_) {
    if (!first) os << ", ";
    os << "s" << part.slot << ":" << to_message(part)->describe();
    first = false;
  }
  os << "}";
  return os.str();
}

bool RsmBundleMessage::same_content(const Message& other) const {
  const auto* that = as_same_type<RsmBundleMessage>(other);
  return that != nullptr && parts_ == that->parts_;
}

RsmCommandSource rsm_list_source(std::vector<Value> commands) {
  for (Value v : commands) {
    if (v == kBottom || v == kNoOpCommand) {
      throw std::invalid_argument("rsm_list_source: reserved command value");
    }
  }
  return [commands = std::move(commands),
          next = std::size_t{0}]() mutable -> std::optional<Value> {
    if (next == commands.size()) return std::nullopt;
    return commands[next++];
  };
}

RsmReplica::RsmReplica(ProcessId self, const SystemConfig& config,
                       AlgorithmFactory slot_factory, RsmCommandSource source,
                       RsmCommitCallback on_commit, RsmOptions options)
    : slot_factory_(std::move(slot_factory)),
      source_(std::move(source)),
      commit_callback_(std::move(on_commit)),
      options_(options),
      self_(self),
      config_(config) {
  config_.validate();
  if (!source_) {
    throw std::invalid_argument("RsmReplica: empty command source");
  }
  if (options_.num_slots < 1) {
    throw std::invalid_argument("RsmReplica: need at least one slot");
  }
  if (options_.slot_burst < 1) {
    throw std::invalid_argument("RsmReplica: slot_burst must be >= 1");
  }
  if (options_.decide_retention < 0) {
    throw std::invalid_argument("RsmReplica: decide_retention must be >= 0");
  }
  window_ = options_.slot_window > 0 ? options_.slot_window : config.t + 3;
  burst_ = options_.slot_burst;
  slots_.resize(options_.num_slots);
  proposed_.resize(options_.num_slots);
  log_.resize(options_.num_slots);
  commit_rounds_.assign(options_.num_slots, 0);
}

void RsmReplica::propose(Value v) { pool_.emplace(next_propose_rank_--, v); }

int RsmReplica::last_started_slot(Round k) const {
  // Window step i (rounds i*window+1 .. (i+1)*window) has bursts
  // 0..i open, i.e. slots [0, (i+1)*burst).
  const int step = static_cast<int>((k - 1) / window_);
  const int by_round = (step + 1) * burst_ - 1;
  return std::min(by_round, options_.num_slots - 1);
}

RsmReplica::Ranked RsmReplica::next_command() {
  // Every pooled rank precedes every undrawn one, so this is one scan in
  // rank order; a dropped value is never drawn again.
  for (;;) {
    if (pool_.empty()) {
      const std::optional<Value> fresh = source_();
      if (!fresh) return {};
      pool_.emplace(next_draw_rank_++, *fresh);
    }
    const auto [rank, v] = *pool_.begin();
    pool_.erase(pool_.begin());
    if (v == kBottom || v == kNoOpCommand) continue;  // reserved
    if (committed_values_.count(v) || inflight_.count(v)) continue;
    return {v, rank};
  }
}

void RsmReplica::start_slot(int slot) {
  if (slots_[slot]) return;
  proposed_[slot] = next_command();
  const Value cmd = proposed_[slot].value;
  if (cmd != kNoOpCommand) inflight_.insert(cmd);
  slots_[slot] = slot_factory_(self_, config_);
  // Consensus proposals must be comparable and non-reserved; no-ops are
  // encoded as a large sentinel that any proposal set tolerates.
  slots_[slot]->propose(cmd == kNoOpCommand
                            ? std::numeric_limits<Value>::max() - self_
                            : cmd);
  open_.push_back(slot);
}

void RsmReplica::ensure_started(Round k) {
  const int last = last_started_slot(k);
  for (int slot = started_hwm_; slot <= last; ++slot) {
    if (!log_[slot]) start_slot(slot);
  }
  if (last + 1 > started_hwm_) started_hwm_ = last + 1;
}

void RsmReplica::record_commit(int slot, Value v, Round round) {
  if (log_[slot]) return;
  log_[slot] = v;
  commit_rounds_[slot] = round;
  committed_values_.insert(v);
  ++committed_count_;
  const Ranked& ours = proposed_[slot];
  if (ours.value != kNoOpCommand) {
    // Either way the command is no longer riding this slot; if ours lost,
    // it returns to the pool at the rank of its first draw.
    inflight_.erase(ours.value);
    if (ours.value != v) pool_.emplace(ours.rank, ours.value);
  }
  retained_.push_back(Retained{
      slot, options_.decide_retention > 0 ? round + options_.decide_retention
                                          : 0});
  while (prefix_ < options_.num_slots && log_[prefix_]) ++prefix_;
  // The slot's consensus instance is settled; free it so a long log does
  // not hold every instance alive.
  slots_[slot].reset();
  const auto it = std::find(open_.begin(), open_.end(), slot);
  if (it != open_.end()) open_.erase(it);
  if (commit_callback_) commit_callback_(slot, v, round);
}

MessagePtr RsmReplica::message_for_round(Round k) {
  ensure_started(k);
  while (!retained_.empty() && retained_.front().until != 0 &&
         k > retained_.front().until) {
    retained_.pop_front();
  }
  std::vector<RsmPart> parts;
  parts.reserve(retained_.size() + open_.size());
  for (const Retained& r : retained_) {
    // Keep broadcasting the outcome so every replica catches up.
    parts.push_back(to_part(r.slot, DecideMessage(*log_[r.slot])));
  }
  for (int slot : open_) {
    if (slots_[slot]->halted()) {
      parts.push_back(to_part(slot, DecideMessage(*slots_[slot]->decision())));
      continue;
    }
    parts.push_back(to_part(
        slot, *slots_[slot]->message_for_round(k - slot_start(slot) + 1)));
  }
  // Retained slots are in commit order; a committed slot is never open.
  std::sort(parts.begin(), parts.end(),
            [](const RsmPart& a, const RsmPart& b) { return a.slot < b.slot; });
  return std::make_shared<RsmBundleMessage>(std::move(parts));
}

void RsmReplica::on_round(Round k, const Delivery& delivered) {
  const int last = last_started_slot(k);
  // This round's working set: the open slots plus any slot the send phase
  // has not opened yet (possible when a crash swallowed the send) —
  // ascending, since open slots all precede started_hwm_.
  round_slots_.assign(open_.begin(), open_.end());
  for (int slot = started_hwm_; slot <= last; ++slot) {
    if (!log_[slot]) round_slots_.push_back(slot);
  }
  if (last + 1 > started_hwm_) started_hwm_ = last + 1;

  // Slots ascend here and in every bundle, so one cursor per bundle walks
  // each delivered bundle once across the whole round.
  cursors_.clear();
  for (const Envelope& env : delivered) {
    if (const auto* bundle = env.as<RsmBundleMessage>()) {
      const std::vector<RsmPart>& parts = bundle->parts();
      cursors_.push_back({&env, parts.data(), parts.data() + parts.size()});
    }
  }

  for (int slot : round_slots_) {
    if (log_[slot]) continue;  // already committed here
    const Round start = slot_start(slot);
    const Round inner_round = k - start + 1;
    if (inner_round < 1) continue;

    // Move every cursor onto this slot; a bundle carries a part for it
    // when its cursor lands there and the copy was sent in the slot's life.
    for (BundleCursor& c : cursors_) {
      while (c.next != c.end && c.next->slot < slot) ++c.next;
    }
    const auto carries = [slot, start](const BundleCursor& c) {
      return c.next != c.end && c.next->slot == slot &&
             c.envelope->send_round - start + 1 >= 1;
    };

    // A DECIDE notice settles the slot even if our instance lags; the
    // first in delivery order wins, as in find_decide_notice.
    std::optional<Value> notice;
    for (const BundleCursor& c : cursors_) {
      if (carries(c) && (notice = decide_notice(*c.next))) break;
    }
    if (notice) {
      record_commit(slot, *notice, k);
      continue;
    }
    start_slot(slot);
    if (slots_[slot]->halted()) continue;
    // Only a live instance needs Messages: build them from the parts.
    inner_.clear();
    for (const BundleCursor& c : cursors_) {
      if (carries(c)) {
        inner_.push_back(Envelope{c.envelope->sender,
                                  c.envelope->send_round - start + 1,
                                  to_message(*c.next)});
      }
    }
    slots_[slot]->on_round(inner_round, inner_);
    if (auto d = slots_[slot]->decision()) record_commit(slot, *d, k);
  }
  inner_.clear();
  cursors_.clear();
}

AlgorithmFactory rsm_ingest_factory(
    AlgorithmFactory slot_factory,
    std::function<RsmCommandSource(ProcessId)> source_for,
    std::function<RsmCommitCallback(ProcessId)> commit_for,
    RsmOptions options) {
  return [slot_factory = std::move(slot_factory),
          source_for = std::move(source_for),
          commit_for = std::move(commit_for),
          options](ProcessId self, const SystemConfig& config)
             -> std::unique_ptr<RoundAlgorithm> {
    return std::make_unique<RsmReplica>(self, config, slot_factory,
                                        source_for(self), commit_for(self),
                                        options);
  };
}

AlgorithmFactory rsm_factory(
    AlgorithmFactory slot_factory,
    std::function<std::vector<Value>(ProcessId)> commands_for,
    RsmOptions options) {
  return rsm_ingest_factory(
      std::move(slot_factory),
      [commands_for = std::move(commands_for)](ProcessId pid) {
        return rsm_list_source(commands_for(pid));
      },
      [](ProcessId) { return RsmCommitCallback{}; }, options);
}

std::function<AlgorithmFactory(GroupId)> sharded_rsm_ingest_factory(
    AlgorithmFactory slot_factory,
    std::function<RsmCommandSource(GroupId, ProcessId)> source_for,
    std::function<RsmCommitCallback(GroupId, ProcessId)> commit_for,
    RsmOptions options) {
  return [slot_factory = std::move(slot_factory),
          source_for = std::move(source_for),
          commit_for = std::move(commit_for), options](GroupId group) {
    return rsm_ingest_factory(
        slot_factory,
        [source_for, group](ProcessId pid) { return source_for(group, pid); },
        [commit_for, group](ProcessId pid) { return commit_for(group, pid); },
        options);
  };
}

std::function<AlgorithmFactory(GroupId)> sharded_rsm_factory(
    AlgorithmFactory slot_factory,
    std::function<std::vector<Value>(GroupId, ProcessId)> commands_for,
    RsmOptions options) {
  return sharded_rsm_ingest_factory(
      std::move(slot_factory),
      [commands_for = std::move(commands_for)](GroupId group, ProcessId pid) {
        return rsm_list_source(commands_for(group, pid));
      },
      [](GroupId, ProcessId) { return RsmCommitCallback{}; }, options);
}

}  // namespace indulgence
