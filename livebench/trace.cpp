#include "trace.hpp"

#include <algorithm>
#include <limits>

#include "net/wire.hpp"

namespace livebench {

using namespace indulgence;

namespace {

/// One bundle in this many is kept for the wire replay, up to kMaxSamples
/// per replica: enough frames to time the codec, few enough to keep the
/// traced run's memory close to the untraced one.
constexpr long kSampleEvery = 16;
constexpr std::size_t kMaxSamples = 48;

/// The replica whose call is on this driver thread's stack; slot decorators
/// charge their time to it.
thread_local ReplicaLayers* t_current = nullptr;

void mark(std::vector<std::int64_t>& instants, Round k, std::int64_t at) {
  const auto index = static_cast<std::size_t>(k - 1);
  if (instants.size() <= index) instants.resize(index + 1, 0);
  instants[index] = at;
}

class TracedSlot final : public RoundAlgorithm {
 public:
  TracedSlot(std::unique_ptr<RoundAlgorithm> inner, ReplicaLayers* layers)
      : inner_(std::move(inner)), layers_(layers) {}

  void propose(Value v) override {
    const std::int64_t t0 = now_ns();
    inner_->propose(v);
    charge(t0);
  }
  MessagePtr message_for_round(Round k) override {
    const std::int64_t t0 = now_ns();
    MessagePtr m = inner_->message_for_round(k);
    charge(t0);
    return m;
  }
  void on_round(Round k, const Delivery& delivered) override {
    const std::int64_t t0 = now_ns();
    inner_->on_round(k, delivered);
    charge(t0);
  }
  std::optional<Value> decision() const override { return inner_->decision(); }
  bool halted() const override { return inner_->halted(); }
  std::string name() const override { return inner_->name(); }

 private:
  void charge(std::int64_t t0) {
    const std::int64_t dt = now_ns() - t0;
    layers_->slot_ns += dt;
    layers_->child_ns += dt;
    ++layers_->slot_calls;
  }

  std::unique_ptr<RoundAlgorithm> inner_;
  ReplicaLayers* layers_;
};

class TracedReplica final : public RoundAlgorithm {
 public:
  TracedReplica(std::unique_ptr<RoundAlgorithm> inner, ReplicaLayers* layers)
      : inner_(std::move(inner)), layers_(layers) {}

  const RoundAlgorithm& inner() const { return *inner_; }

  void propose(Value v) override {
    t_current = layers_;
    inner_->propose(v);
  }

  MessagePtr message_for_round(Round k) override {
    t_current = layers_;
    const std::int64_t child0 = layers_->child_ns;
    const std::int64_t t0 = now_ns();
    MessagePtr m = inner_->message_for_round(k);
    const std::int64_t total = now_ns() - t0;
    layers_->step_ns += total;
    layers_->rsm_build_ns += total - (layers_->child_ns - child0);
    mark(layers_->round_start, k, t0);
    if (const auto* bundle = dynamic_cast<const RsmBundleMessage*>(m.get())) {
      ++layers_->bundles;
      layers_->bundle_parts += static_cast<long>(bundle->parts().size());
      if (layers_->bundles % kSampleEvery == 1 &&
          layers_->samples.size() < kMaxSamples) {
        layers_->samples.push_back(m);
      }
    }
    return m;
  }

  void on_round(Round k, const Delivery& delivered) override {
    t_current = layers_;
    const std::int64_t child0 = layers_->child_ns;
    const std::int64_t t0 = now_ns();
    inner_->on_round(k, delivered);
    const std::int64_t t1 = now_ns();
    layers_->step_ns += t1 - t0;
    layers_->rsm_apply_ns += (t1 - t0) - (layers_->child_ns - child0);
    mark(layers_->round_end, k, t1);
  }

  std::optional<Value> decision() const override { return inner_->decision(); }
  bool halted() const override { return inner_->halted(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<RoundAlgorithm> inner_;
  ReplicaLayers* layers_;
};

double percentile(std::vector<std::int64_t>& values, double q) {
  if (values.empty()) return 0;
  const auto index = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return static_cast<double>(values[index]);
}

}  // namespace

LayerProbe::LayerProbe(int groups, int n) : n_(n) {
  layers_.reserve(static_cast<std::size_t>(groups * n));
  for (int i = 0; i < groups * n; ++i) {
    layers_.push_back(std::make_unique<ReplicaLayers>());
  }
}

AlgorithmFactory LayerProbe::wrap_replicas(AlgorithmFactory inner,
                                           GroupId group) {
  return [this, inner = std::move(inner), group](
             ProcessId self, const SystemConfig& config)
             -> std::unique_ptr<RoundAlgorithm> {
    return std::make_unique<TracedReplica>(inner(self, config),
                                           &at(group, self));
  };
}

AlgorithmFactory LayerProbe::wrap_slots(AlgorithmFactory inner) {
  return [inner = std::move(inner)](ProcessId self, const SystemConfig& config)
             -> std::unique_ptr<RoundAlgorithm> {
    ReplicaLayers* layers = t_current;
    const std::int64_t t0 = now_ns();
    auto slot = std::make_unique<TracedSlot>(inner(self, config), layers);
    const std::int64_t dt = now_ns() - t0;
    layers->slot_ns += dt;
    layers->child_ns += dt;
    return slot;
  };
}

RsmCommandSource LayerProbe::wrap_source(RsmCommandSource inner, GroupId group,
                                         ProcessId pid) {
  ReplicaLayers* layers = &at(group, pid);
  return [inner = std::move(inner), layers]() {
    const std::int64_t t0 = now_ns();
    std::optional<Value> v = inner();
    const std::int64_t dt = now_ns() - t0;
    layers->source_ns += dt;
    layers->child_ns += dt;
    ++layers->source_calls;
    return v;
  };
}

RsmCommitCallback LayerProbe::wrap_commit(RsmCommitCallback inner,
                                          GroupId group, ProcessId pid) {
  ReplicaLayers* layers = &at(group, pid);
  return [inner = std::move(inner), layers](int slot, Value value,
                                            Round round) {
    const std::int64_t t0 = now_ns();
    inner(slot, value, round);
    const std::int64_t dt = now_ns() - t0;
    layers->commit_ns += dt;
    layers->child_ns += dt;
    ++layers->commit_calls;
  };
}

const RsmReplica* as_replica(const RoundAlgorithm* algorithm) {
  if (const auto* traced = dynamic_cast<const TracedReplica*>(algorithm)) {
    algorithm = &traced->inner();
  }
  return dynamic_cast<const RsmReplica*>(algorithm);
}

DriverFigures driver_figures(const LayerProbe& probe) {
  DriverFigures f;
  std::vector<std::int64_t> round_ns;
  for (const auto& l : probe.all()) {
    f.step_s += static_cast<double>(l->step_ns) / 1e9;
    f.rsm_build_s += static_cast<double>(l->rsm_build_ns) / 1e9;
    f.rsm_apply_s += static_cast<double>(l->rsm_apply_ns) / 1e9;
    f.slot_s += static_cast<double>(l->slot_ns) / 1e9;
    f.source_s += static_cast<double>(l->source_ns) / 1e9;
    f.commit_s += static_cast<double>(l->commit_ns) / 1e9;
    f.slot_calls += l->slot_calls;
    f.source_calls += l->source_calls;
    f.commit_calls += l->commit_calls;
    f.bundles += l->bundles;
    f.bundle_parts += l->bundle_parts;
    const std::size_t rounds =
        std::min(l->round_start.size(), l->round_end.size());
    if (rounds == 0) continue;
    f.rounds += static_cast<long>(rounds);
    f.wall_s +=
        static_cast<double>(l->round_end[rounds - 1] - l->round_start[0]) /
        1e9;
    // A round runs from the previous round's receive phase returning to
    // its own returning: the interval a RoundObserver sees between calls.
    round_ns.push_back(l->round_end[0] - l->round_start[0]);
    for (std::size_t k = 1; k < rounds; ++k) {
      round_ns.push_back(l->round_end[k] - l->round_end[k - 1]);
    }
  }
  f.round_us_p50 = percentile(round_ns, 0.50) / 1e3;
  f.round_us_p99 = percentile(round_ns, 0.99) / 1e3;
  return f;
}

TraceFigures trace_figures(const RunTrace& trace, const LayerProbe& probe,
                           GroupId group, std::int64_t wall_gst_ns) {
  TraceFigures f;
  const int n = trace.config().n;
  const Round rounds = trace.rounds_executed();
  f.deliveries = static_cast<long>(trace.deliveries().size());
  f.records = static_cast<long>(
      trace.sends().size() + trace.deliveries().size() +
      trace.decisions().size() + trace.pending().size());

  const auto slot = [n](Round k, ProcessId pid) {
    return static_cast<std::size_t>(k) * static_cast<std::size_t>(n) +
           static_cast<std::size_t>(pid);
  };
  std::vector<std::uint32_t> in_round(slot(rounds + 1, 0), 0);
  std::vector<std::uint32_t> senders(static_cast<std::size_t>(rounds) + 1, 0);
  for (const DeliveryRecord& d : trace.deliveries()) {
    if (d.send_round < d.recv_round) ++f.delayed;
    if (d.send_round == d.recv_round && d.recv_round <= rounds) {
      in_round[slot(d.recv_round, d.receiver)] |= 1u << d.sender;
    }
  }
  for (const SendRecord& s : trace.sends()) {
    if (s.round <= rounds) {
      senders[static_cast<std::size_t>(s.round)] |= 1u << s.sender;
    }
  }

  const ProcessSet crashed = trace.crashed();
  Round first_any = std::numeric_limits<Round>::max();
  for (ProcessId r = 0; r < n; ++r) {
    if (crashed.contains(r)) continue;
    const auto& starts = probe.at(group, r).round_start;
    Round first = 0;
    for (std::size_t i = 0; i < starts.size(); ++i) {
      if (starts[i] >= wall_gst_ns) {
        first = static_cast<Round>(i) + 1;
        break;
      }
    }
    if (first == 0) continue;
    first_any = std::min(first_any, first);
    for (Round k = first; k <= rounds; ++k) {
      const std::uint32_t missing =
          senders[static_cast<std::size_t>(k)] & ~in_round[slot(k, r)] &
          ~(1u << r);
      f.false_suspicions += __builtin_popcount(missing);
    }
  }
  if (first_any != std::numeric_limits<Round>::max()) {
    f.gst_lag_rounds = static_cast<long>(trace.gst()) - first_any;
  }
  return f;
}

WireFigures replay_wire(const LayerProbe& probe) {
  std::vector<NetEnvelope> envelopes;
  const auto n = static_cast<std::size_t>(probe.n());
  for (std::size_t i = 0; i < probe.all().size(); ++i) {
    const auto& l = probe.all()[i];
    for (std::size_t s = 0; s < l->samples.size(); ++s) {
      NetEnvelope env;
      env.group = static_cast<GroupId>(i / n);
      env.sender = static_cast<ProcessId>(i % n);
      env.send_round = static_cast<Round>(s + 1);
      env.target_round = env.send_round;
      env.payload = l->samples[s];
      envelopes.push_back(std::move(env));
    }
  }
  WireFigures f;
  if (envelopes.empty()) return f;

  // The transport reuses one writer per link, so the encoder runs into
  // warm capacity; one untimed pass warms it here too.
  constexpr int kPasses = 4;
  WireWriter writer;
  std::vector<std::vector<std::uint8_t>> frames(envelopes.size());
  std::uint64_t seq = 0;
  std::int64_t encode_ns = 0;
  std::int64_t decode_ns = 0;
  std::int64_t encode_allocs = 0;
  std::int64_t decode_allocs = 0;
  std::size_t bytes = 0;
  FrameParser parser;  // one per connection in the transport
  for (int pass = 0; pass <= kPasses; ++pass) {
    const bool timed = pass > 0;
    for (std::size_t i = 0; i < envelopes.size(); ++i) {
      writer.clear();
      const std::int64_t a0 = thread_allocations();
      const std::int64_t t0 = now_ns();
      const std::size_t size =
          encode_envelope_frame2_into(++seq, envelopes[i], writer);
      const std::int64_t t1 = now_ns();
      const std::int64_t a1 = thread_allocations();
      if (timed) {
        encode_ns += t1 - t0;
        encode_allocs += a1 - a0;
        bytes += size;
      }
      frames[i].assign(writer.data(), writer.data() + writer.size());
    }
    for (const auto& frame : frames) {
      const std::int64_t a0 = thread_allocations();
      const std::int64_t t0 = now_ns();
      parser.feed(frame.data(), frame.size());
      const std::optional<Frame> decoded = parser.next();
      const std::int64_t t1 = now_ns();
      const std::int64_t a1 = thread_allocations();
      if (!decoded || decoded->type != FrameType::Envelope2 ||
          !decoded->envelope.payload) {
        f.round_trip_ok = false;
      }
      if (timed) {
        decode_ns += t1 - t0;
        decode_allocs += a1 - a0;
      }
    }
  }
  const double count = static_cast<double>(envelopes.size()) * kPasses;
  f.encode_ns = static_cast<double>(encode_ns) / count;
  f.decode_ns = static_cast<double>(decode_ns) / count;
  f.encode_allocs = static_cast<double>(encode_allocs) / count;
  f.decode_allocs = static_cast<double>(decode_allocs) / count;
  f.bytes_per_frame = static_cast<double>(bytes) / count;
  return f;
}

}  // namespace livebench
