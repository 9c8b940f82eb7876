#include "net/round_driver.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

namespace indulgence {

// ---------------------------------------------------------------------------
// RunControl

RunControl::RunControl(SystemConfig config)
    : config_(config),
      done_(static_cast<std::size_t>(config.n), 0),
      crashed_(static_cast<std::size_t>(config.n), 0),
      armed_(static_cast<std::size_t>(config.n), 0),
      candidate_(static_cast<std::size_t>(config.n), 0),
      payloads_(static_cast<std::size_t>(config.n)) {}

void RunControl::request_stop_locked(bool completed, bool& fire) {
  if (!completed) aborted_.store(true, std::memory_order_release);
  if (!stopped_) {
    stopped_ = true;
    completed_ = completed;
    stop_.store(true, std::memory_order_release);
    fire = true;
  } else if (!completed) {
    completed_ = false;  // an abort downgrades a normal stop
  }
}

bool RunControl::all_live_armed_locked() const {
  for (std::size_t i = 0; i < armed_.size(); ++i) {
    if (!crashed_[i] && !armed_[i]) return false;
  }
  return true;
}

Round RunControl::stop_round_locked() const {
  Round s = 0;
  for (std::size_t i = 0; i < candidate_.size(); ++i) {
    if (!crashed_[i]) s = std::max(s, candidate_[i]);
  }
  return s;
}

void RunControl::report_done(ProcessId pid) {
  bool fire = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    done_[static_cast<std::size_t>(pid)] = 1;
    bool all = true;
    for (std::size_t i = 0; i < done_.size(); ++i) {
      if (!crashed_[i] && !done_[i]) {
        all = false;
        break;
      }
    }
    if (all) request_stop_locked(true, fire);
  }
  if (fire) stopped();
}

void RunControl::report_crash(ProcessId pid) {
  bool fire = false;
  bool crashed = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!crashed_[static_cast<std::size_t>(pid)]) {
      crashed_[static_cast<std::size_t>(pid)] = 1;
      // A driver that dies after arming must not keep pinning the stop
      // round: its armed bit and boundary candidate are both stale (the
      // rounds it committed to will never be sent), so peers recompute S
      // from the live processes only.
      armed_[static_cast<std::size_t>(pid)] = 0;
      crashed_n_.fetch_add(1, std::memory_order_acq_rel);
      crashed = true;
      bool all = true;
      for (std::size_t i = 0; i < done_.size(); ++i) {
        if (!crashed_[i] && !done_[i]) {
          all = false;
          break;
        }
      }
      if (all) request_stop_locked(true, fire);
    }
  }
  if (fire) {
    stopped();
  } else if (crashed) {
    wake_watchers();
  }
}

void RunControl::force_stop(bool completed) {
  bool fire = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    request_stop_locked(completed, fire);
  }
  if (fire) stopped();
}

void RunControl::stopped() {
  if (on_stop) on_stop();
  wake_watchers();
}

void RunControl::wake_watchers() const {
  for (Mailbox* mailbox : watchers_) mailbox->wake();
}

void RunControl::register_payload(ProcessId sender, Round round,
                                  MessagePtr payload) {
  std::lock_guard<std::mutex> lock(payloads_mutex_);
  auto& sent = payloads_[static_cast<std::size_t>(sender)];
  if (sent.size() < static_cast<std::size_t>(round)) {
    sent.resize(static_cast<std::size_t>(round));
  }
  sent[static_cast<std::size_t>(round) - 1] = std::move(payload);
}

MessagePtr RunControl::registered_payload(ProcessId sender,
                                          Round round) const {
  if (sender < 0 || sender >= config_.n || round < 1) return nullptr;
  std::lock_guard<std::mutex> lock(payloads_mutex_);
  const auto& sent = payloads_[static_cast<std::size_t>(sender)];
  return static_cast<std::size_t>(round) <= sent.size()
             ? sent[static_cast<std::size_t>(round) - 1]
             : nullptr;
}

bool RunControl::boundary(ProcessId pid, Round next_round) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t i = static_cast<std::size_t>(pid);
  armed_[i] = 1;
  candidate_[i] = std::max(candidate_[i], next_round - 1);
  if (all_live_armed_locked() && next_round > stop_round_locked()) return true;
  // Can't exit yet: commit the round about to be sent, so every live peer
  // must complete it too before it may exit.
  candidate_[i] = std::max(candidate_[i], next_round);
  return false;
}

bool RunControl::is_crashed(ProcessId pid) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return crashed_[static_cast<std::size_t>(pid)] != 0;
}

bool RunControl::completed_normally() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stopped_ && completed_;
}

// ---------------------------------------------------------------------------
// RoundDriver

RoundDriver::RoundDriver(DriverContext ctx) : ctx_(std::move(ctx)) {}

void RoundDriver::run() noexcept {
  try {
    run_impl();
  } catch (...) {
    error_ = std::current_exception();
    // Unblock the peers: without these reports their gates would wait for
    // this process' messages until their own timeouts.
    if (ctx_.supervision) ctx_.supervision->mark_dead(ctx_.self);
    ctx_.control->report_crash(ctx_.self);
    ctx_.control->force_stop(false);
  }
}

bool RoundDriver::is_done() const {
  if (ctx_.done) return ctx_.done(*algorithm_);
  return algorithm_->decision().has_value();
}

void RoundDriver::route(NetEnvelope env, Round k) {
  // Distinct senders, not envelopes: a reliable channel replaying its
  // window after a socket reset can deliver the same (sender, send_round)
  // copy twice, and counting it twice would close the quorum gate early —
  // with one real sender short.  Exactly-once is also what the validator's
  // reliable-channel check demands of the merged trace.
  const ProcessId emitter = env.origin < 0 ? env.sender : env.origin;
  if (!seen_copies_.emplace(env.send_round, env.sender, emitter).second) {
    ++log_.duplicate_copies;
    return;
  }
  // Forged copies never count toward the quorum gate: inflating the count
  // could close a round before an honest sender's copy lands, turning a
  // content attack into a synchrony violation the liar did not pay for.
  const bool forged = env.origin >= 0 && env.origin != env.sender;
  const Round slot = env.target_round > 0 ? env.target_round : env.send_round;
  if (slot > k) {
    future_[slot].push_back(
        Envelope{env.sender, env.send_round, std::move(env.payload),
                 env.origin});
    return;
  }
  if (!forged) {
    if (env.send_round == k) {
      ++in_round_count_;
    } else {
      ++delayed_count_;
    }
  }
  batch_.push_back(Envelope{env.sender, env.send_round, std::move(env.payload),
                            env.origin});
}

void RoundDriver::adopt_future(Round k) {
  auto it = future_.find(k);
  if (it == future_.end()) return;
  for (Envelope& e : it->second) {
    if (e.origin < 0 || e.origin == e.sender) {
      if (e.send_round == k) {
        ++in_round_count_;
      } else {
        ++delayed_count_;
      }
    }
    batch_.push_back(std::move(e));
  }
  future_.erase(it);
}

void RoundDriver::collect_scripted(Round k) {
  const int want_in = ctx_.script->expected_in_round(ctx_.self, k);
  const int want_delayed = ctx_.script->expected_delayed(ctx_.self, k);
  const Clock::time_point deadline = Clock::now() + ctx_.options->scripted_wait;
  while (in_round_count_ < want_in || delayed_count_ < want_delayed) {
    if (auto env = ctx_.mailbox->pop_for(std::chrono::microseconds{2000})) {
      route(std::move(*env), k);
      continue;
    }
    if (ctx_.control->aborted()) {
      throw std::runtime_error("scripted replay aborted by peer failure");
    }
    if (Clock::now() >= deadline) {
      throw std::runtime_error(
          "scripted replay stalled: p" + std::to_string(ctx_.self) +
          " round " + std::to_string(k) + " got " +
          std::to_string(in_round_count_) + "/" + std::to_string(want_in) +
          " in-round and " + std::to_string(delayed_count_) + "/" +
          std::to_string(want_delayed) + " delayed envelopes");
    }
  }
}

void RoundDriver::collect_live(Round k) {
  const LiveOptions& opt = *ctx_.options;
  const Clock::time_point round_start = Clock::now();
  std::optional<Clock::time_point> drain_since;

  SyncView view;
  view.round = k;
  view.quorum = ctx_.config.n - ctx_.config.t;
  view.round_start = round_start;
  synchronizer_->round_open(view);
  // Transient-fault injection fires after round_open (which resets soft
  // state and would otherwise erase the corruption).
  for (const SyncCorruption& c : opt.sync_corruptions) {
    if (c.pid == ctx_.self && c.round == k) synchronizer_->corrupt(c.bits);
  }
  const ProcessId coord = synchronizer_->coordinator(k);

  for (;;) {
    const Clock::time_point now = Clock::now();
    // The RTT-emulation floor holds a round open even after everyone has
    // been heard from — but only for timer-paced policies, and never once
    // a stop is draining.
    const bool floor_passed = opt.round_floor.count() == 0 ||
                              now - round_start >= opt.round_floor ||
                              !synchronizer_->paced_by_floor() ||
                              ctx_.control->stop_requested();

    view.in_round = in_round_count_;
    view.possible = ctx_.config.n - ctx_.control->crashed_count();
    view.coordinator_crashed = coord >= 0 && ctx_.control->is_crashed(coord);
    // The pacemaker's publish hook: a coordinator must pulse even when its
    // own round is about to close on a full set.
    synchronizer_->observe(view, now);

    // Everyone who could still send has: close immediately.  Senders not
    // counted here are crashed, and their round-k copies (if any) arriving
    // later are crash-round deliveries the synchrony check exempts.
    if (in_round_count_ >= view.possible && floor_passed) break;

    // Wait for the next envelope, or until the earliest timer below can
    // close the round; a stop, a crash or a pulse wakes the mailbox.
    Clock::time_point wake_at = Clock::time_point::max();
    const auto due = [&](Clock::time_point at) {
      wake_at = std::min(wake_at, at);
    };
    if (!floor_passed) due(round_start + opt.round_floor);
    if (ctx_.control->stop_requested()) {
      if (!drain_since) {
        drain_since = now;
      } else if (now - *drain_since >= opt.drain_wait) {
        break;  // scheduling-jitter valve; expedited copies land in microseconds
      }
      due(*drain_since + opt.drain_wait);
    } else {
      // The synchronizer is only consulted at or above the n − t quorum —
      // the validator's t-resilience floor.  No policy (or corrupted
      // policy state) can close a round below it.
      if (in_round_count_ >= view.quorum) {
        if (synchronizer_->should_close(view, now) && floor_passed) break;
        // Below the floor, the floor's own deadline comes first.
        if (floor_passed) due(synchronizer_->close_deadline(view));
      }
      if (opt.round_cap.count() > 0) {
        if (now - round_start >= opt.round_cap) {
          break;  // model-violating escape valve (lossy runs); validator flags it
        }
        due(round_start + opt.round_cap);
      }
    }
    if (auto env = ctx_.mailbox->pop_until(wake_at)) {
      route(std::move(*env), k);
    }
  }
}

MessagePtr RoundDriver::shared_payload(const Envelope& e) const {
  // Only an honest copy may stand for the broadcast, and only when its
  // content equals the registered object: forged and mismatched copies keep
  // their own payload, so the validator still sees every equivocation.
  if (e.payload == nullptr || (e.origin >= 0 && e.origin != e.sender)) {
    return e.payload;
  }
  MessagePtr registered =
      ctx_.control->registered_payload(e.sender, e.send_round);
  if (registered == nullptr || registered == e.payload ||
      !registered->same_content(*e.payload)) {
    return e.payload;
  }
  return registered;
}

void RoundDriver::finish_round(Round k) {
  // The kernel presents each round's batch ordered by (send_round, sender);
  // matching that order makes replay batches bit-identical inputs.
  std::sort(batch_.begin(), batch_.end(),
            [](const Envelope& a, const Envelope& b) {
              if (a.send_round != b.send_round) {
                return a.send_round < b.send_round;
              }
              if (a.sender != b.sender) return a.sender < b.sender;
              // Forged copies share (send_round, sender) with the honest
              // original; ordering by emitter keeps batches deterministic.
              return a.emitter() < b.emitter();
            });
  for (const Envelope& e : batch_) {
    log_.deliveries.push_back(DeliveryRecord{k, ctx_.self, e.sender,
                                             e.send_round, shared_payload(e),
                                             e.origin});
  }
  if (!halted_) {
    algorithm_->on_round(k, batch_);
    if (!decided_) {
      if (auto d = algorithm_->decision()) {
        decided_ = true;
        log_.decisions.push_back(DecisionRecord{k, ctx_.self, *d});
      }
    }
    if (algorithm_->halted()) {
      if (!decided_) {
        throw std::logic_error(algorithm_->name() +
                               " halted without deciding");
      }
      halted_ = true;
      log_.halt_round = k;
    }
  }
  if (!reported_done_ && is_done()) {
    reported_done_ = true;
    log_.done = true;
    ctx_.control->report_done(ctx_.self);
  }
  if (ctx_.observer) {
    ctx_.observer(ctx_.self, k, *algorithm_,
                  std::chrono::duration_cast<std::chrono::microseconds>(
                      Clock::now() - ctx_.epoch));
  }
  log_.completed = k;
}

void RoundDriver::run_impl() {
  algorithm_ = ctx_.factory(ctx_.self, ctx_.config);
  algorithm_->propose(ctx_.proposal);
  log_.proposal = ctx_.proposal;
  synchronizer_ =
      make_round_synchronizer(*ctx_.options, ctx_.config, ctx_.self,
                              ctx_.pulses);

  std::optional<CrashInjection> crash;
  if (ctx_.script) {
    crash = ctx_.script->crash_of(ctx_.self);
  } else {
    for (const CrashInjection& c : ctx_.options->crashes) {
      if (c.pid == ctx_.self) {
        crash = c;
        break;
      }
    }
  }

  RunControl& control = *ctx_.control;
  for (Round k = 1;; ++k) {
    if (ctx_.fixed_rounds > 0) {
      // Multi-process mode: the round count is agreed a priori; the only
      // stop signal is a local failure abort (no shared-memory armed-stop).
      if (k > ctx_.fixed_rounds || control.stop_requested()) break;
    } else {
      if (!control.stop_requested() && k > ctx_.options->max_rounds) {
        control.force_stop(false);
      }
      if (control.stop_requested() && control.boundary(ctx_.self, k)) break;
    }

    // Injected (wall-clock-mode) crashes are suppressed once the stop is
    // requested so the drain stays live; scripted crashes always execute,
    // because every peer's expected envelope counts account for them.
    const bool crash_now =
        crash && crash->round == k &&
        !(ctx_.script == nullptr && control.stop_requested());
    if (crash_now && crash->before_send) {
      log_.crash = CrashRecord{k, ctx_.self, true};
      if (ctx_.supervision) ctx_.supervision->mark_dead(ctx_.self);
      control.report_crash(ctx_.self);
      return;
    }

    // Send phase; the self-copy is delivered inline and unconditionally
    // in-round, mirroring the kernel.
    MessagePtr payload =
        halted_ ? MessagePtr(std::make_shared<HaltedMessage>(
                      *algorithm_->decision()))
                : algorithm_->message_for_round(k);
    if (!payload) {
      throw std::logic_error(algorithm_->name() +
                             " returned a null round message");
    }
    log_.sends.push_back(SendRecord{k, ctx_.self, halted_});
    control.register_payload(ctx_.self, k, payload);
    batch_.clear();
    in_round_count_ = 0;
    delayed_count_ = 0;
    route(NetEnvelope{ctx_.self, k, k, 0, payload}, k);
    ctx_.transport->dispatch(ctx_.self, k, payload);

    if (crash_now) {
      log_.crash = CrashRecord{k, ctx_.self, false};
      if (ctx_.supervision) ctx_.supervision->mark_dead(ctx_.self);
      control.report_crash(ctx_.self);
      return;
    }

    // Receive phase.
    adopt_future(k);
    if (ctx_.script) {
      collect_scripted(k);
    } else {
      collect_live(k);
    }
    finish_round(k);
  }

  // Reorder-buffer leftovers are copies scheduled past the stop round:
  // still pending, never received.
  for (const auto& [slot, envelopes] : future_) {
    for (const Envelope& e : envelopes) {
      log_.leftovers.push_back(
          UndeliveredCopy{e.sender, ctx_.self, e.send_round, slot});
    }
  }
}

std::size_t mailbox_capacity_for(const LiveOptions& options, int n) {
  return std::max(options.mailbox_capacity,
                  static_cast<std::size_t>(n) *
                      (static_cast<std::size_t>(options.max_rounds) + 8));
}

namespace {

std::exception_ptr pick_error(
    const std::vector<std::unique_ptr<RoundDriver>>& drivers) {
  std::exception_ptr fallback;
  for (const auto& driver : drivers) {
    std::exception_ptr error = driver->error();
    if (!error) continue;
    if (!fallback) fallback = error;
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& ex) {
      if (std::string(ex.what()).find("aborted") == std::string::npos) {
        return error;
      }
    } catch (...) {
      return error;
    }
  }
  return fallback;
}

}  // namespace

DriverRun run_drivers(std::vector<DriverContext> contexts,
                      const std::function<void()>& stop_transport) {
  std::vector<std::pair<ProcessId, Mailbox*>> inboxes;
  std::vector<std::unique_ptr<RoundDriver>> drivers;
  inboxes.reserve(contexts.size());
  drivers.reserve(contexts.size());
  for (DriverContext& ctx : contexts) {
    inboxes.emplace_back(ctx.self, ctx.mailbox);
    // A driver waits on its mailbox until an envelope or a timer of its
    // own; the group's stop, crashes and pulses wake it too.
    ctx.control->watch(ctx.mailbox);
    if (ctx.pulses != nullptr) {
      ctx.pulses->on_publish = [control = ctx.control] {
        control->wake_watchers();
      };
    }
    drivers.push_back(std::make_unique<RoundDriver>(std::move(ctx)));
  }
  DriverRun run;
  run.exited.resize(drivers.size());
  std::vector<std::thread> threads;
  threads.reserve(drivers.size());
  for (std::size_t i = 0; i < drivers.size(); ++i) {
    threads.emplace_back([&run, driver = drivers[i].get(), i] {
      driver->run();
      run.exited[i] = std::chrono::steady_clock::now();
    });
  }
  for (std::thread& t : threads) t.join();

  if (stop_transport) stop_transport();
  for (const auto& [self, mailbox] : inboxes) {
    for (NetEnvelope& env : mailbox->drain()) {
      run.stranded.push_back(UndeliveredCopy{
          env.sender, self, env.send_round, env.target_round, env.group});
    }
  }
  if (std::exception_ptr error = pick_error(drivers)) {
    std::rethrow_exception(error);
  }
  for (auto& driver : drivers) {
    run.logs.push_back(std::move(driver->log()));
    run.algorithms.push_back(driver->take_algorithm());
  }
  return run;
}

}  // namespace indulgence
