// Hurfin-Raynal-style <>S consensus — the paper's baseline [10].
//
// "The <>S-based consensus algorithm of [10], which used to be the most
// efficient in worst-case synchronous runs among the indulgent consensus
// algorithms we knew of, has a synchronous run which requires 2t + 2 rounds
// for a global decision."  (Sect. 1.4)
//
// RECONSTRUCTION NOTE (DESIGN.md Sect. 2): we reproduce the structural
// property the paper's comparison rests on — a rotating coordinator whose
// every attempt costs TWO rounds, so that assassinating the first t
// coordinators wastes 2t rounds and the run decides at round 2t + 2.  The
// vote/lock rule below is the standard majority-quorum argument (t < n/2):
//
//   attempt a (rounds 2a+1, 2a+2), coordinator p_{a mod n}:
//     COORD round:  the coordinator broadcasts its estimate v; a process
//                   that hears it sets aux := v, otherwise aux := BOTTOM
//                   (it "suspects" the coordinator — receipt-simulated <>S,
//                   paper Sect. 4).
//     VOTE round:   everybody broadcasts aux.  A process that receives
//                   >= n - t votes, all equal to v, decides v; a process
//                   that receives at least one vote v != BOTTOM adopts
//                   est := v.
//
//   Safety: a decision at attempt a means >= n - t processes voted v; any
//   two (n - t)-sets of voters intersect (t < n/2), and all non-BOTTOM
//   votes of an attempt carry the same coordinator value, so every process
//   completing the attempt adopts v — later attempts can only propose v.
//
//   Deciders broadcast DECIDE in the next round and return; everyone adopts
//   decision notices.

#pragma once

#include "consensus/consensus.hpp"

namespace indulgence {

class HrCoordMessage final : public Message {
 public:
  explicit HrCoordMessage(Value est) : est_(est) {}
  Value est() const { return est_; }
  std::string describe() const override {
    return "HR-COORD(" + std::to_string(est_) + ")";
  }
  bool same_content(const Message& other) const override {
    const auto* that = as_same_type<HrCoordMessage>(other);
    return that != nullptr && that->est_ == est_;
  }

  MessagePtr mutated(Value v) const override {
    return std::make_shared<HrCoordMessage>(v);
  }

 private:
  Value est_;
};

class HrVoteMessage final : public Message {
 public:
  explicit HrVoteMessage(Value aux) : aux_(aux) {}
  Value aux() const { return aux_; }
  bool is_bottom() const { return aux_ == kBottom; }
  std::string describe() const override {
    return "HR-VOTE(" + (is_bottom() ? "BOTTOM" : std::to_string(aux_)) + ")";
  }
  bool same_content(const Message& other) const override {
    const auto* that = as_same_type<HrVoteMessage>(other);
    return that != nullptr && that->aux_ == aux_;
  }

  MessagePtr mutated(Value v) const override {
    return std::make_shared<HrVoteMessage>(v);
  }

 private:
  Value aux_;
};

class HurfinRaynal : public ConsensusBase {
 public:
  HurfinRaynal(ProcessId self, const SystemConfig& config);

  MessagePtr message_for_round(Round k) override;
  void on_round(Round k, const Delivery& delivered) override;

  std::string name() const override { return "HurfinRaynal[<>S]"; }

  Value estimate() const { return est_; }

  /// Coordinator of the attempt containing round k (attempts are the round
  /// pairs (1,2), (3,4), ...).
  ProcessId coordinator_for_round(Round k) const {
    return static_cast<ProcessId>(((k - 1) / 2) % n());
  }

 protected:
  void on_propose(Value v) override { est_ = v; }

 private:
  static bool is_coord_round(Round k) { return k % 2 == 1; }

  Value est_ = 0;
  Value aux_ = kBottom;          ///< what we vote in the current attempt
  bool announce_pending_ = false;
};

AlgorithmFactory hurfin_raynal_factory();

}  // namespace indulgence
