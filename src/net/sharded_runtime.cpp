#include "net/sharded_runtime.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/thread_pool.hpp"
#include "net/live_trace.hpp"
#include "net/round_driver.hpp"

namespace indulgence {

GroupId group_for_key(std::uint64_t key, int num_groups) {
  if (num_groups <= 0) {
    throw std::invalid_argument("sharded: need a positive group count");
  }
  // FNV-1a over the key's bytes, then a 64-bit avalanche (splitmix64
  // finalizer) so consecutive keys land on unrelated groups.
  std::uint64_t h = 1469598103934665603ULL;
  for (int i = 0; i < 8; ++i) {
    h ^= (key >> (8 * i)) & 0xffu;
    h *= 1099511628211ULL;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<GroupId>(h % static_cast<std::uint64_t>(num_groups));
}

int node_for(GroupId group, ProcessId pid, int num_nodes) {
  return static_cast<int>((static_cast<long>(group) + pid) %
                          static_cast<long>(num_nodes));
}

std::vector<int> group_placement(GroupId group, int n, int num_nodes) {
  std::vector<int> members(static_cast<std::size_t>(n));
  for (ProcessId pid = 0; pid < n; ++pid) {
    members[static_cast<std::size_t>(pid)] = node_for(group, pid, num_nodes);
  }
  return members;
}

bool ShardedResult::all_valid() const {
  return !groups.empty() &&
         std::all_of(groups.begin(), groups.end(), [](const auto& entry) {
           return entry.second.result.validation.ok() &&
                  entry.second.result.trace.terminated();
         });
}

LocalFabric::LocalFabric(int num_nodes, SocketAddress::Kind kind,
                         const SocketTransportOptions& socket) {
  if (kind == SocketAddress::Kind::Unix) {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "indulgence-fabric-XXXXXX")
                           .string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("local fabric: mkdtemp failed");
    }
    dir_ = tmpl;
  }
  // Every listener binds in its constructor, so the resolver hands out
  // final addresses (TCP ephemeral ports included) before any start().
  AddressResolver resolve = [this](ProcessId node)
      -> std::optional<SocketAddress> {
    return endpoints_[static_cast<std::size_t>(node)]->listen_address();
  };
  endpoints_.reserve(static_cast<std::size_t>(num_nodes));
  for (int node = 0; node < num_nodes; ++node) {
    SocketAddress listen =
        kind == SocketAddress::Kind::Unix
            ? SocketAddress::unix_path(dir_ + "/node" + std::to_string(node) +
                                       ".sock")
            : SocketAddress::tcp_loopback(0);
    SocketTransportOptions per = socket;
    per.seed = socket.seed + static_cast<std::uint64_t>(node) * 1337;
    endpoints_.push_back(std::make_unique<SocketEndpoint>(
        node, num_nodes, std::move(listen), resolve, std::move(per)));
  }
}

LocalFabric::~LocalFabric() {
  stop_and_flush();
  endpoints_.clear();  // unlink socket files before removing the directory
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
}

std::vector<std::unique_ptr<GroupPort>> LocalFabric::add_group(
    GroupId group, SystemConfig config,
    const std::vector<std::unique_ptr<Mailbox>>& inboxes) {
  const std::vector<int> members = group_placement(
      group, config.n, static_cast<int>(endpoints_.size()));
  std::vector<std::unique_ptr<GroupPort>> ports;
  for (ProcessId pid = 0; pid < config.n; ++pid) {
    SocketEndpoint* host =
        endpoints_[static_cast<std::size_t>(
                       members[static_cast<std::size_t>(pid)])]
            .get();
    host->add_group(GroupSpec{group, config, pid, members,
                              inboxes[static_cast<std::size_t>(pid)].get()});
    ports.push_back(std::make_unique<GroupPort>(host, group));
  }
  return ports;
}

void LocalFabric::start(std::chrono::steady_clock::time_point epoch) {
  for (auto& endpoint : endpoints_) endpoint->start(epoch);
}

std::vector<UndeliveredCopy> LocalFabric::stop_and_flush() {
  return stop_and_flush_all(endpoints_);
}

SocketCounters LocalFabric::counters() const {
  SocketCounters total;
  for (const auto& endpoint : endpoints_) total += endpoint->counters();
  return total;
}

SocketCounters LocalFabric::group_counters(GroupId group) const {
  SocketCounters total;  // endpoints not hosting the group add zeros
  for (const auto& endpoint : endpoints_) {
    total += endpoint->group_counters(group);
  }
  return total;
}

ShardedResult run_sharded(const ShardedOptions& options,
                          const GroupFactory& factory_for,
                          const GroupProposals& proposals_for) {
  const SystemConfig config = options.config;
  config.validate();
  const int groups = options.num_groups;
  if (options.num_nodes < config.n) {
    throw std::invalid_argument(
        "sharded: need at least n nodes for distinct placement");
  }
  if (groups < 1) {
    throw std::invalid_argument("sharded: need at least one group");
  }

  LocalFabric fabric(options.num_nodes, options.kind, options.socket);
  const std::size_t capacity = mailbox_capacity_for(options.live, config.n);

  // Register every group's replicas with their hosting endpoints and keep
  // the per-replica GroupPort views the (unchanged) drivers will use.
  std::vector<std::vector<std::unique_ptr<Mailbox>>> mailboxes(
      static_cast<std::size_t>(groups));
  std::vector<std::vector<std::unique_ptr<GroupPort>>> ports;
  ports.reserve(static_cast<std::size_t>(groups));
  for (GroupId g = 0; g < groups; ++g) {
    auto& boxes = mailboxes[static_cast<std::size_t>(g)];
    for (ProcessId pid = 0; pid < config.n; ++pid) {
      boxes.push_back(std::make_unique<Mailbox>(capacity));
    }
    ports.push_back(fabric.add_group(g, config, boxes));
  }

  std::vector<std::unique_ptr<RunControl>> controls;
  std::vector<std::unique_ptr<PulseBoard>> boards;
  controls.reserve(static_cast<std::size_t>(groups));
  boards.reserve(static_cast<std::size_t>(groups));
  for (GroupId g = 0; g < groups; ++g) {
    controls.push_back(std::make_unique<RunControl>(config));
    boards.push_back(std::make_unique<PulseBoard>());
    auto& group_ports = ports[static_cast<std::size_t>(g)];
    controls.back()->on_stop = [&group_ports] {
      for (auto& port : group_ports) port->expedite();
    };
  }

  const auto epoch = std::chrono::steady_clock::now();
  fabric.start(epoch);
  if (options.on_start) options.on_start(epoch);

  std::vector<DriverContext> contexts;
  contexts.reserve(static_cast<std::size_t>(groups) *
                   static_cast<std::size_t>(config.n));
  for (GroupId g = 0; g < groups; ++g) {
    const std::vector<Value> proposals = proposals_for(g);
    if (static_cast<int>(proposals.size()) != config.n) {
      throw std::invalid_argument("sharded: need one proposal per replica");
    }
    const AlgorithmFactory factory = factory_for(g);
    const auto gi = static_cast<std::size_t>(g);
    for (ProcessId pid = 0; pid < config.n; ++pid) {
      const auto pi = static_cast<std::size_t>(pid);
      DriverContext ctx;
      ctx.self = pid;
      ctx.config = config;
      ctx.options = &options.live;
      ctx.transport = ports[gi][pi].get();
      ctx.mailbox = mailboxes[gi][pi].get();
      ctx.control = controls[gi].get();
      ctx.supervision = ports[gi][pi].get();
      ctx.pulses = boards[gi].get();
      ctx.fixed_rounds = options.fixed_rounds;
      ctx.factory = factory;
      ctx.proposal = proposals[pi];
      ctx.done = options.done;
      ctx.epoch = epoch;
      contexts.push_back(std::move(ctx));
    }
  }

  // Every returned copy carries its owning group.
  std::vector<std::vector<UndeliveredCopy>> undelivered(
      static_cast<std::size_t>(groups));
  DriverRun run = run_drivers(std::move(contexts), [&] {
    for (UndeliveredCopy& copy : fabric.stop_and_flush()) {
      undelivered[static_cast<std::size_t>(copy.group)].push_back(copy);
    }
  });
  for (UndeliveredCopy& copy : run.stranded) {
    undelivered[static_cast<std::size_t>(copy.group)].push_back(copy);
  }

  // Driver i is replica i % n of group i / n.
  std::vector<GroupOutcome> outcomes(static_cast<std::size_t>(groups));
  std::vector<std::vector<ProcessLog>> logs(static_cast<std::size_t>(groups));
  for (std::size_t i = 0; i < run.logs.size(); ++i) {
    const std::size_t g = i / static_cast<std::size_t>(config.n);
    logs[g].push_back(std::move(run.logs[i]));
    outcomes[g].algorithms.push_back(std::move(run.algorithms[i]));
  }
  // The socket fabric applies the same plan inside every group, so every
  // group's merged trace gets the same liar stamp.
  ProcessSet liars;
  for (const ByzantineInjection& b : options.socket.byzantine) {
    liars.insert(b.event.liar);
  }
  // Groups are independent, so each merge + validation is one pool task
  // writing only its own slot: the outcomes do not depend on the job count.
  parallel_for_chunked(
      groups, 1, default_campaign().resolved_jobs(),
      [&](long index, long, long) {
        const auto g = static_cast<std::size_t>(index);
        LiveMergeInput merge;
        merge.config = config;
        merge.terminated = options.fixed_rounds > 0 ||
                           controls[g]->completed_normally();
        merge.logs = &logs[g];
        merge.undelivered = std::move(undelivered[g]);
        merge.byzantine = liars;
        merge.byzantine_budget = liars.size();
        outcomes[g].result = merge_and_check(merge);
      });

  ShardedResult result;
  for (GroupId g = 0; g < groups; ++g) {
    GroupOutcome& outcome = outcomes[static_cast<std::size_t>(g)];
    outcome.traffic = fabric.group_counters(g);
    // The group's wall: epoch to the last of its drivers exiting.
    const auto first = run.exited.begin() + g * config.n;
    outcome.wall = std::chrono::duration_cast<std::chrono::microseconds>(
        std::max(epoch, *std::max_element(first, first + config.n)) - epoch);
    result.groups.emplace(g, std::move(outcome));
  }
  result.counters = fabric.counters();
  return result;
}

// ---------------------------------------------------------------------------
// ShardedNode

ShardedNode::ShardedNode(int node, int num_nodes, SocketAddress listen,
                         AddressResolver resolver,
                         SocketTransportOptions socket, LiveOptions live)
    : live_(std::move(live)),
      endpoint_(std::make_unique<SocketEndpoint>(node, num_nodes,
                                                 std::move(listen),
                                                 std::move(resolver),
                                                 std::move(socket))) {}

void ShardedNode::host(GroupId group, SystemConfig config, ProcessId self,
                       std::vector<int> members, AlgorithmFactory factory,
                       Value proposal) {
  Hosted hosted;
  hosted.group = group;
  hosted.config = config;
  hosted.self = self;
  hosted.factory = std::move(factory);
  hosted.proposal = proposal;
  hosted.mailbox =
      std::make_unique<Mailbox>(mailbox_capacity_for(live_, config.n));
  endpoint_->add_group(
      GroupSpec{group, config, self, std::move(members), hosted.mailbox.get()});
  hosted.port = std::make_unique<GroupPort>(endpoint_.get(), group);
  hosted_.push_back(std::move(hosted));
}

std::vector<ShippedLog> ShardedNode::run(Round fixed_rounds,
                                         DonePredicate done) {
  if (fixed_rounds <= 0) {
    throw std::invalid_argument(
        "sharded node: multi-process runs need an agreed fixed round count");
  }
  const auto epoch = std::chrono::steady_clock::now();
  endpoint_->start(epoch);

  // Each hosted replica gets its own RunControl: the armed-stop protocol
  // cannot span address spaces, and fixed_rounds makes it vestigial — the
  // control only carries the crash/done accounting of a 1-driver run.
  // Pulse boards cannot span address spaces either, so ctx.pulses stays
  // null: a remote pacemaker follower runs its grace-timeout fallback,
  // which is exactly the policy's pulse-loss story.
  std::vector<std::unique_ptr<RunControl>> controls;
  std::vector<DriverContext> contexts;
  controls.reserve(hosted_.size());
  contexts.reserve(hosted_.size());
  for (Hosted& hosted : hosted_) {
    controls.push_back(std::make_unique<RunControl>(hosted.config));
    DriverContext ctx;
    ctx.self = hosted.self;
    ctx.config = hosted.config;
    ctx.options = &live_;
    ctx.transport = hosted.port.get();
    ctx.mailbox = hosted.mailbox.get();
    ctx.control = controls.back().get();
    ctx.supervision = hosted.port.get();
    ctx.fixed_rounds = fixed_rounds;
    ctx.factory = hosted.factory;
    ctx.proposal = hosted.proposal;
    ctx.done = done;
    ctx.epoch = epoch;
    contexts.push_back(std::move(ctx));
  }

  // A node hosts at most one replica per group, so a copy's group names
  // its hosted replica; a node hosting none still stops its endpoint.
  std::vector<UndeliveredCopy> unacked;
  DriverRun run = run_drivers(std::move(contexts),
                              [&] { unacked = endpoint_->stop_and_flush(); });
  unacked.insert(unacked.end(), run.stranded.begin(), run.stranded.end());

  std::vector<ShippedLog> shipped;
  shipped.reserve(hosted_.size());
  algorithms_ = std::move(run.algorithms);
  for (std::size_t i = 0; i < hosted_.size(); ++i) {
    Hosted& hosted = hosted_[i];
    ShippedLog log;
    log.group = hosted.group;
    log.self = hosted.self;
    log.config = hosted.config;
    log.log = std::move(run.logs[i]);
    for (const UndeliveredCopy& copy : unacked) {
      if (copy.group == hosted.group) log.undelivered.push_back(copy);
    }
    shipped.push_back(std::move(log));
  }
  std::sort(shipped.begin(), shipped.end(),
            [](const ShippedLog& a, const ShippedLog& b) {
              return a.group < b.group;
            });
  // Endpoint-wide counters ride on the first log only, so aggregating over
  // shipped logs does not count this node G times.
  if (!shipped.empty()) shipped.front().counters = endpoint_->counters();
  return shipped;
}

}  // namespace indulgence
