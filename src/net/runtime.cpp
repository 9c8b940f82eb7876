#include "net/runtime.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/live_trace.hpp"
#include "net/round_driver.hpp"
#include "net/router.hpp"
#include "net/script.hpp"
#include "net/sharded_runtime.hpp"

namespace indulgence {

LiveRuntime::LiveRuntime(SystemConfig config, LiveOptions options)
    : config_(config), options_(std::move(options)) {
  config_.validate();
}

void LiveRuntime::use_socket_transport(SocketAddress::Kind kind,
                                       SocketTransportOptions socket_options) {
  socket_kind_ = kind;
  socket_options_ = std::move(socket_options);
}

RunResult LiveRuntime::run(const AlgorithmFactory& factory,
                           const std::vector<Value>& proposals) {
  return execute(nullptr, Model::ES, factory, proposals);
}

RunResult LiveRuntime::replay(Model model, const RunSchedule& schedule,
                              const AlgorithmFactory& factory,
                              const std::vector<Value>& proposals) {
  return execute(&schedule, model, factory, proposals);
}

RunResult LiveRuntime::execute(const RunSchedule* schedule, Model model,
                               const AlgorithmFactory& factory,
                               const std::vector<Value>& proposals) {
  if (static_cast<int>(proposals.size()) != config_.n) {
    throw std::invalid_argument("live runtime: need one proposal per process");
  }
  if (schedule && schedule->byzantine_budget() > 0) {
    throw std::invalid_argument(
        "live runtime: scripted replay does not apply Byzantine events — "
        "replay lying schedules through the kernel, or drive live lies via "
        "LiveOptions::byzantine");
  }
  ProcessSet declared_liars;
  for (const ByzantineInjection& b : options_.byzantine) {
    if (b.event.liar < 0 || b.event.liar >= config_.n) {
      throw std::invalid_argument("live runtime: Byzantine liar p" +
                                  std::to_string(b.event.liar) +
                                  " is out of range");
    }
    declared_liars.insert(b.event.liar);
  }
  const int budget = options_.byzantine_budget > 0 ? options_.byzantine_budget
                                                   : declared_liars.size();
  if (budget > 0 && 3 * budget >= config_.n) {
    throw std::invalid_argument(
        "live runtime: Byzantine budget needs 3b < n");
  }

  const std::size_t capacity = mailbox_capacity_for(options_, config_.n);
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  mailboxes.reserve(static_cast<std::size_t>(config_.n));
  for (int i = 0; i < config_.n; ++i) {
    mailboxes.push_back(std::make_unique<Mailbox>(capacity));
  }

  // One transport per mode.  Over sockets the run is group 0 on n nodes of
  // a LocalFabric (identity placement), and each driver talks to its own
  // node through a GroupPort.
  std::optional<ScriptView> script;
  std::unique_ptr<ScriptTransport> script_transport;
  std::unique_ptr<LiveRouter> router;
  std::optional<LocalFabric> fabric;
  std::vector<std::unique_ptr<GroupPort>> ports;
  if (schedule) {
    script.emplace(config_, *schedule);
    script_transport =
        std::make_unique<ScriptTransport>(config_, *schedule, mailboxes);
  } else if (socket_kind_) {
    SocketTransportOptions socket_options = socket_options_;
    if (socket_options.byzantine.empty()) {
      socket_options.byzantine = options_.byzantine;
    }
    fabric.emplace(config_.n, *socket_kind_, socket_options);
    ports = fabric->add_group(0, config_, mailboxes);
  } else {
    router = std::make_unique<LiveRouter>(config_, options_, mailboxes);
  }

  RunControl control(config_);
  PulseBoard pulses;  // the group's shared pacemaker signal (in-process)
  if (router) {
    control.on_stop = [raw = router.get()] { raw->expedite(); };
  } else if (fabric) {
    control.on_stop = [&ports] {
      for (auto& port : ports) port->expedite();
    };
  }

  const auto epoch = std::chrono::steady_clock::now();
  if (router) router->start(epoch);
  if (fabric) fabric->start(epoch);
  if (start_hook_) start_hook_(epoch);

  std::vector<DriverContext> contexts;
  contexts.reserve(static_cast<std::size_t>(config_.n));
  for (ProcessId pid = 0; pid < config_.n; ++pid) {
    DriverContext ctx;
    ctx.self = pid;
    ctx.config = config_;
    ctx.options = &options_;
    // Scripted drivers use the one transport that needs no supervision.
    ctx.supervision =
        fabric ? static_cast<SupervisedTransport*>(
                     ports[static_cast<std::size_t>(pid)].get())
               : router.get();
    ctx.transport = ctx.supervision
                        ? static_cast<Transport*>(ctx.supervision)
                        : script_transport.get();
    ctx.mailbox = mailboxes[static_cast<std::size_t>(pid)].get();
    ctx.control = &control;
    ctx.script = script ? &*script : nullptr;
    ctx.pulses = script ? nullptr : &pulses;
    ctx.factory = factory;
    ctx.proposal = proposals[static_cast<std::size_t>(pid)];
    ctx.done = done_;
    ctx.observer = observer_;
    ctx.epoch = epoch;
    contexts.push_back(std::move(ctx));
  }

  std::vector<UndeliveredCopy> undelivered;
  DriverRun run = run_drivers(std::move(contexts), [&] {
    if (router) undelivered = router->stop_and_flush();
    if (fabric) {
      undelivered = fabric->stop_and_flush();
      socket_counters_ = fabric->counters();
    }
  });
  undelivered.insert(undelivered.end(), run.stranded.begin(),
                     run.stranded.end());
  algorithms_ = std::move(run.algorithms);
  // Sockets never drop a copy: their channels are reliable.
  dropped_ = router             ? router->dropped_copies()
             : script_transport ? script_transport->dropped_copies()
                                : 0;

  LiveMergeInput merge;
  merge.config = config_;
  merge.model = model;
  merge.gst_hint = schedule ? schedule->gst() : 0;
  merge.terminated = control.completed_normally();
  merge.logs = &run.logs;
  merge.undelivered = std::move(undelivered);
  merge.byzantine = declared_liars;
  merge.byzantine_budget = budget;
  return merge_and_check(merge);
}

RunResult run_live(SystemConfig config, const LiveOptions& options,
                   const AlgorithmFactory& factory,
                   const std::vector<Value>& proposals) {
  LiveRuntime runtime(config, options);
  return runtime.run(factory, proposals);
}

RunResult replay_schedule_live(SystemConfig config, Model model,
                               const RunSchedule& schedule,
                               const AlgorithmFactory& factory,
                               const std::vector<Value>& proposals,
                               LiveOptions options) {
  LiveRuntime runtime(config, std::move(options));
  return runtime.replay(model, schedule, factory, proposals);
}

}  // namespace indulgence
