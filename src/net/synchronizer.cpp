#include "net/synchronizer.hpp"

namespace indulgence {

namespace {

/// When a grace timer armed at `since` runs out; never while unarmed.
std::chrono::steady_clock::time_point grace_deadline(
    const std::optional<std::chrono::steady_clock::time_point>& since,
    std::chrono::microseconds grace) {
  if (!since) return std::chrono::steady_clock::time_point::max();
  return *since + grace;
}

/// The historical close rule, verbatim: once a quorum of in-round messages
/// is held, start a timer; close when it survives `quorum_grace`.  The
/// two-call shape (first call arms, later calls compare) reproduces the
/// old inline gate's decision sequence exactly.
class LockstepSynchronizer : public RoundSynchronizer {
 public:
  explicit LockstepSynchronizer(std::chrono::microseconds grace)
      : grace_(grace) {}

  std::string name() const override { return "lockstep"; }

  void round_open(const SyncView&) override { quorum_since_.reset(); }

  bool should_close(const SyncView&,
                    std::chrono::steady_clock::time_point now) override {
    if (!quorum_since_) {
      quorum_since_ = now;
      return false;
    }
    return now - *quorum_since_ >= grace_;
  }

  std::chrono::steady_clock::time_point close_deadline(
      const SyncView&) const override {
    return grace_deadline(quorum_since_, grace_);
  }

  void corrupt(std::uint64_t bits) override {
    if (bits & 1) quorum_since_.reset();
    if ((bits & 2) && quorum_since_) {
      *quorum_since_ -= grace_;  // a stale timer: grace appears elapsed
    }
  }

 private:
  std::chrono::microseconds grace_;
  std::optional<std::chrono::steady_clock::time_point> quorum_since_;
};

/// Naor–Keidar-style leader pacemaker.  The round-k coordinator (rotating
/// (k−1) mod n) publishes a pulse on the shared board once it holds a
/// quorum; every follower closes the moment the board reaches its round.
/// A crashed coordinator is closed past at quorum without waiting — the
/// existing crash accounting is the failure detector.  The grace timeout
/// remains underneath as the indulgent fallback (lost board, corrupted
/// state), so liveness never depends on the leader.
class PacemakerSynchronizer : public RoundSynchronizer {
 public:
  PacemakerSynchronizer(int n, ProcessId self, PulseBoard* board,
                        std::chrono::microseconds grace)
      : n_(n), self_(self), board_(board), grace_(grace) {}

  std::string name() const override { return "pacemaker"; }

  bool paced_by_floor() const override { return false; }

  ProcessId coordinator(Round round) const override {
    return static_cast<ProcessId>((round - 1) % n_);
  }

  void round_open(const SyncView&) override {
    published_ = false;
    quorum_since_.reset();
  }

  void observe(const SyncView& view,
               std::chrono::steady_clock::time_point) override {
    if (board_ && !published_ && coordinator(view.round) == self_ &&
        view.in_round >= view.quorum) {
      board_->publish(view.round);
      published_ = true;
    }
  }

  bool should_close(const SyncView& view,
                    std::chrono::steady_clock::time_point now) override {
    if (board_ && board_->latest() >= view.round) return true;
    if (view.coordinator_crashed) return true;  // rotate past a dead leader
    if (!quorum_since_) {
      quorum_since_ = now;
      return false;
    }
    return now - *quorum_since_ >= grace_;
  }

  std::chrono::steady_clock::time_point close_deadline(
      const SyncView&) const override {
    return grace_deadline(quorum_since_, grace_);
  }

  void corrupt(std::uint64_t bits) override {
    if (bits & 1) published_ = !published_;  // may drop this round's pulse
    if (bits & 2) quorum_since_.reset();
    if ((bits & 4) && quorum_since_) *quorum_since_ -= grace_;
  }

 private:
  int n_;
  ProcessId self_;
  PulseBoard* board_;
  std::chrono::microseconds grace_;
  bool published_ = false;
  std::optional<std::chrono::steady_clock::time_point> quorum_since_;
};

/// Two-step fast path: refuse to close early — wait for the FULL set (the
/// driver closes on full sets without asking us) so unanimous first-round
/// echoes reach A_{t+2}'s failure-free optimization live.  A round that
/// spends `quorum_grace` without filling up demotes the whole run to the
/// indulgent slow path: sticky lockstep behaviour from then on, because a
/// run that has already missed messages cannot decide fast anyway.
class FastStepSynchronizer : public RoundSynchronizer {
 public:
  explicit FastStepSynchronizer(std::chrono::microseconds grace)
      : grace_(grace) {}

  std::string name() const override { return "faststep"; }

  /// Message-paced while fast; once demoted, honours the floor like
  /// lockstep does.
  bool paced_by_floor() const override { return fallback_; }

  void round_open(const SyncView&) override { quorum_since_.reset(); }

  bool should_close(const SyncView& view,
                    std::chrono::steady_clock::time_point now) override {
    if (!fallback_) {
      if (now - view.round_start < grace_) return false;  // hold for full set
      fallback_ = true;  // timeout: indulgent slow path, permanently
    }
    if (!quorum_since_) {
      quorum_since_ = now;
      return false;
    }
    return now - *quorum_since_ >= grace_;
  }

  std::chrono::steady_clock::time_point close_deadline(
      const SyncView& view) const override {
    if (!fallback_) return view.round_start + grace_;
    return grace_deadline(quorum_since_, grace_);
  }

  void corrupt(std::uint64_t bits) override {
    if (bits & 1) fallback_ = !fallback_;
    if (bits & 2) quorum_since_.reset();
    if ((bits & 4) && quorum_since_) *quorum_since_ -= grace_;
  }

 private:
  std::chrono::microseconds grace_;
  bool fallback_ = false;
  std::optional<std::chrono::steady_clock::time_point> quorum_since_;
};

}  // namespace

std::unique_ptr<RoundSynchronizer> make_round_synchronizer(
    const LiveOptions& options, const SystemConfig& config, ProcessId self,
    PulseBoard* pulses) {
  switch (options.synchronizer) {
    case SyncKind::Pacemaker:
      return std::make_unique<PacemakerSynchronizer>(config.n, self, pulses,
                                                     options.quorum_grace);
    case SyncKind::FastStep:
      return std::make_unique<FastStepSynchronizer>(options.quorum_grace);
    case SyncKind::Lockstep:
      break;
  }
  return std::make_unique<LockstepSynchronizer>(options.quorum_grace);
}

const char* to_string(SyncKind kind) {
  switch (kind) {
    case SyncKind::Pacemaker: return "pacemaker";
    case SyncKind::FastStep: return "faststep";
    case SyncKind::Lockstep: break;
  }
  return "lockstep";
}

std::optional<SyncKind> parse_sync_kind(const std::string& name) {
  if (name == "lockstep") return SyncKind::Lockstep;
  if (name == "pacemaker") return SyncKind::Pacemaker;
  if (name == "faststep") return SyncKind::FastStep;
  return std::nullopt;
}

}  // namespace indulgence
