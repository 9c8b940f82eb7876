#include "net/socket_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <utility>

namespace indulgence {

namespace {

using Clock = std::chrono::steady_clock;

/// How many frames one coalesced flush gathers per syscall.  Well under
/// IOV_MAX everywhere.
constexpr std::size_t kFlushBatchFrames = 256;
/// The longest one loop pass sleeps when no timer is due sooner.
constexpr std::chrono::milliseconds kIdleWait{20};
/// A draining link's redial pace (it skips the backoff, not the pause),
/// and the listener's rest after accept() ran out of fds.
constexpr std::chrono::microseconds kDrainRedial{200};
constexpr std::chrono::milliseconds kAcceptRest{5};

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

void configure_stream(int fd, SocketAddress::Kind kind) {
  set_cloexec(fd);
  set_nonblocking(fd);
  if (kind == SocketAddress::Kind::Tcp) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
}

bool fill_sockaddr(const SocketAddress& addr, sockaddr_storage& storage,
                   socklen_t& len) {
  std::memset(&storage, 0, sizeof(storage));
  if (addr.kind == SocketAddress::Kind::Unix) {
    auto* un = reinterpret_cast<sockaddr_un*>(&storage);
    if (addr.path.size() + 1 > sizeof(un->sun_path)) return false;
    un->sun_family = AF_UNIX;
    std::memcpy(un->sun_path, addr.path.c_str(), addr.path.size() + 1);
    len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                 addr.path.size() + 1);
  } else {
    auto* in = reinterpret_cast<sockaddr_in*>(&storage);
    in->sin_family = AF_INET;
    in->sin_port = htons(addr.port);
    in->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    len = sizeof(sockaddr_in);
  }
  return true;
}

int open_listener(SocketAddress& addr) {
  const int domain =
      addr.kind == SocketAddress::Kind::Unix ? AF_UNIX : AF_INET;
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket transport: socket(): ") +
                             std::strerror(errno));
  }
  set_cloexec(fd);
  set_nonblocking(fd);
  if (addr.kind == SocketAddress::Kind::Unix) {
    ::unlink(addr.path.c_str());  // stale socket file from a previous run
  } else {
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  sockaddr_storage storage;
  socklen_t len = 0;
  if (!fill_sockaddr(addr, storage, len)) {
    ::close(fd);
    throw std::runtime_error("socket transport: listen path too long: " +
                             addr.path);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&storage), len) != 0 ||
      ::listen(fd, 64) != 0) {
    const std::string what = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("socket transport: bind/listen " +
                             addr.to_string() + ": " + what);
  }
  if (addr.kind == SocketAddress::Kind::Tcp && addr.port == 0) {
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len);
    addr.port = ntohs(bound.sin_port);
  }
  return fd;
}

}  // namespace

std::string SocketAddress::to_string() const {
  return kind == Kind::Unix ? "unix:" + path
                            : "tcp:127.0.0.1:" + std::to_string(port);
}

std::chrono::microseconds next_backoff(const BackoffPolicy& policy,
                                       std::chrono::microseconds prev,
                                       Rng& rng) {
  const std::int64_t base = policy.base.count();
  const std::int64_t cap = policy.cap.count();
  // Decorrelated jitter: uniform in [base, 3 * prev], clamped to the cap;
  // from a cold start (prev == 0) the first delay is exactly `base`.
  const std::int64_t hi = std::max(base, std::min(cap, 3 * prev.count()));
  const std::uint64_t span = static_cast<std::uint64_t>(hi - base) + 1;
  const std::int64_t draw =
      base + static_cast<std::int64_t>(rng.next_below(span));
  return std::chrono::microseconds{std::min(draw, cap)};
}

void GatherWrite::begin(std::chrono::microseconds timeout, bool dribble) {
  iov_.clear();  // keeps the capacity
  next_ = written_ = 0;
  syscalls_ = 0;
  started_ = {};
  timeout_ = timeout;
  dribble_ = dribble;
}

GatherWrite::Status GatherWrite::step(int fd, Clock::time_point now) {
  if (started_ == Clock::time_point{}) started_ = now;
  if (next_ == iov_.size()) return Status::Done;
  msghdr msg{};
  iovec one{iov_[next_].iov_base, 1};
  msg.msg_iov = dribble_ ? &one : iov_.data() + next_;
  // UIO_MAXIOV guard; flush batches stay below it.
  msg.msg_iovlen =
      dribble_ ? 1 : std::min<std::size_t>(iov_.size() - next_, 1024);
  ssize_t n;
  do {
    n = ::sendmsg(fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    ++syscalls_;
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    return errno == EAGAIN || errno == EWOULDBLOCK ? Status::Pending
                                                   : Status::Failed;
  }
  written_ += static_cast<std::size_t>(n);
  std::size_t left = static_cast<std::size_t>(n);
  while (next_ < iov_.size() && left >= iov_[next_].iov_len) {
    left -= iov_[next_].iov_len;
    ++next_;
  }
  if (left > 0) {
    iov_[next_].iov_base =
        static_cast<std::uint8_t*>(iov_[next_].iov_base) + left;
    iov_[next_].iov_len -= left;
  }
  return next_ == iov_.size() ? Status::Done : Status::Pending;
}

// ---------------------------------------------------------------------------
// SocketEndpoint internals

/// One queued-but-unacknowledged copy on a link, held as its ENCODED wire
/// frame: dispatch encodes once into a pooled buffer and the loop stamps
/// the link seq, so a flush (and every resend after a reconnect) is a
/// gather over these bytes with no re-encoding and no per-frame
/// allocation.  The ack pop releases the buffer back to the pool.
struct HoldItem {
  std::uint64_t seq = 0;
  GroupId group = 0;
  ProcessId sender = -1;    ///< group-local
  ProcessId receiver = -1;  ///< group-local
  Round send_round = 0;
  std::vector<std::uint8_t> frame;  ///< encoded ENVELOPE2, seq stamped
  bool ever_sent = false;
};

/// One outbound peer-node link.  Dispatchers append to `inbox` under
/// `mutex`; the loop swaps the inbox out and owns everything else, so it
/// holds that lock for a swap only.  `counters` is guarded by the
/// endpoint's counters_mutex_.
struct SocketEndpoint::Link {
  enum class State { Disconnected, Connecting, Connected, Done };
  Link(int peer, const SocketTransportOptions& options,
       std::uint64_t chaos_stream)
      : peer(peer),
        schedule(options.backoff, options.seed ^ (0x5eedUL + chaos_stream)),
        chaos_rng(Rng::for_stream(options.chaos.seed, chaos_stream)) {}

  int peer;  ///< peer node id
  std::mutex mutex;
  std::condition_variable cv;  ///< dispatchers wait here for queue room
  std::vector<HoldItem> inbox;  ///< queued copies the loop has not taken
  std::atomic<std::size_t> held{0};  ///< inbox plus hold, for back-pressure
  SocketCounters counters;  ///< link-owned; guarded by counters_mutex_

  // Loop-thread-only state.
  std::deque<HoldItem> hold;  ///< seqs (acked, next_seq), ascending
  std::uint64_t next_seq = 1;
  std::vector<HoldItem> taken;  ///< swap partner of `inbox`
  State state = State::Disconnected;  ///< Connecting: HELLO2 in flight
  int fd = -1;
  Clock::time_point not_before{};  ///< an injected stall or a redial pace
  std::uint64_t acked = 0;        ///< cumulative ack from the peer
  std::uint64_t sent_up_to = 0;   ///< highest seq written on the current fd
  bool connected_once = false;
  ReconnectSchedule schedule;
  Rng chaos_rng;
  FrameParser ack_parser;
  Clock::time_point last_rx{};
  Clock::time_point last_tx{};
  bool fin_sent = false;   ///< FIN written on the current connection
  bool fin_echoed = false; ///< the peer echoed it: the link is done
  GatherWrite write;
  bool writable = false;   ///< the socket may take more of `write`
  Carrying carrying{};  ///< meaningful while `write` is active
  /// A Frames write's hold items, in order; the first `batch_done`
  /// (`batch_bytes` bytes) are fully written and accounted.
  std::vector<HoldItem*> batch;
  std::size_t batch_done = 0;
  std::size_t batch_bytes = 0;
  /// HELLO2, heartbeat and FIN bytes; capacity persists across frames.
  WireWriter control;
};

/// One accepted inbound connection and its ack / FIN-echo write.
struct SocketEndpoint::Inbound {
  explicit Inbound(int fd) : fd(fd) {}
  void close() { ::close(std::exchange(fd, -1)); }
  int fd;
  int peer = -1;  ///< peer node, learned from the connection's HELLO2
  FrameParser parser;
  bool ack_owed = false;
  bool fin_owed = false;
  bool fin_in_write = false;  ///< the write in flight carries the FIN echo
  bool writable = true;
  GatherWrite write;
  WireWriter out;  ///< bytes of `write`; capacity persists
};

/// One hosted consensus group: its spec (immutable after add_group), the
/// demux-side liveness flag, per-group counters, and the stop-time
/// partition of undelivered copies.
struct SocketEndpoint::GroupState {
  GroupSpec spec;
  std::atomic<bool> dead{false};
  bool expedited = false;  ///< guarded by expedite_mutex_
  SocketCounters counters;  ///< group-owned; guarded by counters_mutex_
  std::vector<UndeliveredCopy> stash;  ///< filled by stop_and_flush_group
};

SocketEndpoint::SocketEndpoint(int node, std::vector<SocketAddress> nodes,
                               SocketTransportOptions options)
    : node_(node),
      num_nodes_(static_cast<int>(nodes.size())),
      options_(std::move(options)),
      listen_address_(nodes.at(static_cast<std::size_t>(node))) {
  auto table =
      std::make_shared<std::vector<SocketAddress>>(std::move(nodes));
  resolver_ = [table](ProcessId pid) -> std::optional<SocketAddress> {
    return table->at(static_cast<std::size_t>(pid));
  };
  init_listener_and_links();
}

SocketEndpoint::SocketEndpoint(int node, int num_nodes, SocketAddress listen,
                               AddressResolver resolver,
                               SocketTransportOptions options)
    : node_(node),
      num_nodes_(num_nodes),
      options_(std::move(options)),
      resolver_(std::move(resolver)),
      listen_address_(std::move(listen)) {
  init_listener_and_links();
}

void SocketEndpoint::init_listener_and_links() {
  if (node_ < 0 || node_ >= num_nodes_ || num_nodes_ < 2) {
    throw std::invalid_argument("socket endpoint: bad node id / node count");
  }
  byz_ = ByzantinePlanner(options_.byzantine);
  listen_fd_ = open_listener(listen_address_);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    ::close(listen_fd_);
    throw std::runtime_error(std::string("socket transport: eventfd(): ") +
                             std::strerror(errno));
  }
  accept_rng_ = Rng::for_stream(
      options_.chaos.seed, (static_cast<std::uint64_t>(node_) << 8) | 0xffu);
  fin_from_.assign(static_cast<std::size_t>(num_nodes_), 0);
  delivered_seq_.assign(static_cast<std::size_t>(num_nodes_), 0);
  links_.reserve(static_cast<std::size_t>(num_nodes_) - 1);
  for (int peer = 0; peer < num_nodes_; ++peer) {
    if (peer == node_) continue;
    links_.push_back(std::make_unique<Link>(
        peer, options_,
        (static_cast<std::uint64_t>(node_) << 8) |
            static_cast<std::uint64_t>(peer)));
  }
}

void SocketEndpoint::add_group(GroupSpec spec) {
  if (running_.load(std::memory_order_acquire)) {
    throw std::logic_error("socket endpoint: add_group after start");
  }
  spec.config.validate();
  if (spec.inbox == nullptr) {
    throw std::invalid_argument("socket endpoint: group needs an inbox");
  }
  if (static_cast<int>(spec.members.size()) != spec.config.n) {
    throw std::invalid_argument(
        "socket endpoint: group placement needs one node per member");
  }
  if (spec.self < 0 || spec.self >= spec.config.n ||
      spec.members[static_cast<std::size_t>(spec.self)] != node_) {
    throw std::invalid_argument(
        "socket endpoint: spec.self must be the replica hosted on this node");
  }
  std::vector<char> used(static_cast<std::size_t>(num_nodes_), 0);
  for (int member_node : spec.members) {
    if (member_node < 0 || member_node >= num_nodes_) {
      throw std::invalid_argument("socket endpoint: member node out of range");
    }
    if (used[static_cast<std::size_t>(member_node)]) {
      throw std::invalid_argument(
          "socket endpoint: replicas of one group must live on distinct "
          "nodes");
    }
    used[static_cast<std::size_t>(member_node)] = 1;
  }
  if (groups_.count(spec.group) != 0) {
    throw std::invalid_argument("socket endpoint: duplicate group " +
                                std::to_string(spec.group));
  }
  const GroupId id = spec.group;
  auto state = std::make_unique<GroupState>();
  state->spec = std::move(spec);
  groups_.emplace(id, std::move(state));
  hosted_group_ids_.clear();
  for (const auto& [group, unused] : groups_) hosted_group_ids_.push_back(group);
}

SocketEndpoint::GroupState* SocketEndpoint::find_group(GroupId group) const {
  const auto it = groups_.find(group);
  return it == groups_.end() ? nullptr : it->second.get();
}

SocketEndpoint::Link* SocketEndpoint::link_for_node(int node) const {
  if (node < 0 || node >= num_nodes_ || node == node_) return nullptr;
  return links_[static_cast<std::size_t>(node < node_ ? node : node - 1)]
      .get();
}

SocketEndpoint::~SocketEndpoint() {
  stop_and_flush();
  ::close(wake_fd_);
  if (listen_address_.kind == SocketAddress::Kind::Unix) {
    ::unlink(listen_address_.path.c_str());
  }
}

bool SocketEndpoint::chaos_active(Clock::time_point now) const {
  return options_.chaos.any() &&
         !expedited_.load(std::memory_order_acquire) &&
         now - epoch_ < options_.chaos.until;
}

bool SocketEndpoint::chaos_scoped(const Link& link) const {
  return options_.chaos.only_node < 0 || link.peer == options_.chaos.only_node;
}

void SocketEndpoint::start(Clock::time_point epoch) {
  // An endpoint with no hosted groups is legal: a fabric node whose slice
  // of the placement is currently empty still listens (peers may connect;
  // anything they send routes nowhere and counts as demux_drops).
  epoch_ = epoch;
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { loop(); });
}

void SocketEndpoint::wake() {
  // One write per loop pass: the loop disarms before it rescans the links.
  if (wake_armed_.exchange(true)) return;
  const std::uint64_t one = 1;
  if (::write(wake_fd_, &one, sizeof(one)) < 0) wake_armed_.store(false);
}

void SocketEndpoint::dispatch_group(GroupId group, ProcessId sender,
                                    Round round, MessagePtr payload) {
  GroupState* state = find_group(group);
  if (state == nullptr) {
    throw std::logic_error("socket endpoint: dispatch for unhosted group " +
                           std::to_string(group));
  }
  if (sender != state->spec.self) {
    throw std::logic_error("socket endpoint: dispatch for foreign sender p" +
                           std::to_string(sender));
  }
  // Queues one already-encoded copy onto the receiver's link, stamping its
  // per-link sequence in place.
  auto push_frame = [&](ProcessId claimed, ProcessId receiver,
                        std::vector<std::uint8_t> frame) {
    Link* link =
        link_for_node(state->spec.members[static_cast<std::size_t>(receiver)]);
    std::unique_lock<std::mutex> lock(link->mutex);
    link->cv.wait(lock, [&] {
      return link->held < options_.hold_queue_capacity ||
             stopping_.load(std::memory_order_acquire);
    });
    if (link->held >= options_.hold_queue_capacity) {
      // Stop raced a full queue; the copy never even entered the fabric.
      lock.unlock();
      pool_.release(std::move(frame));
      std::lock_guard<std::mutex> overflow_lock(overflow_mutex_);
      overflow_.push_back(UndeliveredCopy{claimed, receiver, round, 0, group});
      return;
    }
    link->inbox.push_back(
        HoldItem{0, group, claimed, receiver, round, std::move(frame), false});
    ++link->held;
    lock.unlock();
    wake();
  };

  if (byz_.active()) {
    // Byzantine dispatch: copies may differ per receiver (mutations,
    // forgeries, silence), so each one is encoded individually.  The lock
    // serializes the planner's replay history across hosted groups.
    std::lock_guard<std::mutex> byz_lock(byz_mutex_);
    byz_.note_send(sender, round, payload);
    for (ProcessId receiver = 0; receiver < state->spec.config.n;
         ++receiver) {
      if (receiver == sender) continue;
      for (ByzantinePlanner::Copy& copy :
           byz_.copies_for(sender, round, receiver, payload)) {
        const NetEnvelope env{.sender = copy.sender,
                              .send_round = round,
                              .group = group,
                              .payload = std::move(copy.payload),
                              .origin = copy.origin};
        WireWriter encoded(pool_.acquire());
        encode_envelope_frame2_into(0, env, encoded);
        push_frame(copy.sender, receiver, encoded.take());
      }
    }
    return;
  }

  // Encode the envelope ONCE per dispatch (the wire bytes do not mention
  // the receiver): every per-link copy is a memcpy of these bytes into a
  // pooled buffer with its own seq stamped in place — no re-encode per
  // receiver and, once the pool is warm, no allocation on this path.
  const NetEnvelope env{.sender = sender,
                        .send_round = round,
                        .group = group,
                        .payload = std::move(payload)};
  WireWriter encoded(pool_.acquire());
  encode_envelope_frame2_into(0, env, encoded);
  for (ProcessId receiver = 0; receiver < state->spec.config.n; ++receiver) {
    if (receiver == sender) continue;
    std::vector<std::uint8_t> frame = pool_.acquire();
    frame.assign(encoded.bytes().begin(), encoded.bytes().end());
    push_frame(sender, receiver, std::move(frame));
  }
  pool_.release(encoded.take());
}

void SocketEndpoint::mark_dead_group(GroupId group, ProcessId pid) {
  // A remote pid's death is deliberately ignored: indulgence means a
  // suspected peer is retried forever, never dropped.
  GroupState* state = find_group(group);
  if (state != nullptr && state->spec.self == pid) {
    state->dead.store(true, std::memory_order_release);
  }
}

void SocketEndpoint::expedite() {
  expedited_.store(true, std::memory_order_release);
  wake();
}

void SocketEndpoint::expedite_group(GroupId group) {
  {
    std::lock_guard<std::mutex> lock(expedite_mutex_);
    GroupState* state = find_group(group);
    if (state == nullptr || state->expedited) return;
    state->expedited = true;
    if (++expedited_groups_ < static_cast<int>(groups_.size())) return;
  }
  expedite();
}

// ---------------------------------------------------------------------------
// The event loop: one thread per endpoint steps every link and inbound
// connection, then sleeps in one ppoll() until a socket is ready, the
// eventfd is written (dispatch, expedite, stop) or a timer is due.

void SocketEndpoint::loop() {
  using State = Link::State;
  constexpr short kWritable = POLLOUT | POLLERR | POLLHUP;
  constexpr short kReadable = POLLIN | POLLERR | POLLHUP;
  std::vector<pollfd> fds;
  for (;;) {
    const Clock::time_point now = Clock::now();
    const bool stopping = stopping_.load(std::memory_order_acquire);
    Clock::time_point wake_at = now + kIdleWait;
    const auto due = [&](Clock::time_point at) {
      wake_at = std::min(wake_at, at);
    };
    if (stopping) due(halt_deadline_);
    const bool resting = now < accept_paused_until_;
    if (resting) due(accept_paused_until_);
    fds.assign({pollfd{wake_fd_, POLLIN, 0},
                pollfd{resting ? -1 : listen_fd_, POLLIN, 0}});
    // A blocked write waits for POLLOUT up to its deadline.
    const auto await_write = [&](const GatherWrite& write, bool writable,
                                 pollfd& p) {
      if (!write.active()) return;
      if (writable) return due(now);
      p.events |= POLLOUT;
      due(write.deadline());
    };

    bool links_done = true;
    for (auto& owned : links_) {
      Link& link = *owned;
      if (step_link(link, now)) due(now);
      links_done = links_done && link.state == State::Done;
      pollfd p{link.fd, 0, 0};
      if (link.state == State::Connected) p.events = POLLIN;
      if (now < link.not_before && link.state != State::Done) {
        due(link.not_before);  // a stalled write or a draining redial
      } else if (link.state == State::Disconnected) {
        due(redial_at(link, stopping));
      } else if (link.write.active()) {
        await_write(link.write, link.writable, p);
      } else if (link.state == State::Connected && !link.fin_sent) {
        // Strict keep-alive inequalities: due one tick past each bound.
        due(link.last_tx + options_.heartbeat_every + Clock::duration{1});
        due(link.last_rx + options_.peer_silence + Clock::duration{1});
      }
      fds.push_back(p);
    }
    if (stopping && links_done &&
        (fins_ == num_nodes_ - 1 || now >= halt_deadline_)) {
      break;
    }
    for (auto& conn : inbound_) {
      flush_inbound(*conn, now);
      fds.push_back(pollfd{conn->fd, POLLIN, 0});
      await_write(conn->write, conn->writable, fds.back());
    }

    const std::chrono::nanoseconds wait =
        std::max(wake_at - now, Clock::duration::zero());
    const timespec ts{static_cast<time_t>(wait.count() / 1'000'000'000),
                      static_cast<long>(wait.count() % 1'000'000'000)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0) continue;
    const Clock::time_point ready = Clock::now();

    if (fds[0].revents != 0) {
      std::uint64_t count = 0;
      if (::read(wake_fd_, &count, sizeof(count)) < 0) count = 0;
      wake_armed_.store(false);
    }
    for (std::size_t i = 0; i < links_.size(); ++i) {
      Link& link = *links_[i];
      if (fds[2 + i].revents & kWritable) link.writable = true;
      if (fds[2 + i].revents & kReadable) pump_acks(link, ready);
    }
    const std::size_t first = 2 + links_.size();
    for (std::size_t i = first; i < fds.size(); ++i) {
      if (fds[i].revents & kWritable) inbound_[i - first]->writable = true;
      if (fds[i].revents & kReadable) read_inbound(*inbound_[i - first]);
    }
    if (fds[1].revents != 0) accept_ready(ready);
    // A connection is released as soon as it ends (EOF, error, timeout).
    std::erase_if(inbound_, [](const auto& conn) { return conn->fd < 0; });
  }
  for (auto& conn : inbound_) ::close(conn->fd);
  inbound_.clear();
}

Clock::time_point SocketEndpoint::redial_at(const Link& link,
                                            bool stopping) const {
  // A draining or expedited link skips the backoff.
  return stopping || expedited_.load(std::memory_order_acquire)
             ? link.not_before
             : std::max(link.not_before, link.schedule.next_attempt());
}

/// Advances one link as far as it can without waiting: the dial, the write
/// in flight, then — at a frame boundary — at most one new write.  Returns
/// true when a write completed, so the loop passes again at once.
bool SocketEndpoint::step_link(Link& link, Clock::time_point now) {
  using State = Link::State;
  if (link.state == State::Done) return false;
  const bool stopping = stopping_.load(std::memory_order_acquire);
  // A stopping link is done once the peer echoed its FIN; the linger
  // deadline only bounds a peer that never answers (a crashed one).
  if (stopping && (link.fin_echoed || now >= halt_deadline_)) {
    drop_connection(link);
    link.state = State::Done;
    return false;
  }
  if (link.state == State::Disconnected) {
    if (now < redial_at(link, stopping)) return false;
    begin_connect(link, now);
  }
  bool completed = false;
  if (link.write.active()) {
    if (now < link.not_before) return false;  // an injected stall
    if (!link.writable && !link.write.expired(now)) return false;
    if (!step_write(link, now)) return false;
    completed = true;
  }
  if (link.state != State::Connected) return completed;

  // Frame boundary: a redial if the peer went silent, else new frames,
  // else FIN once drained, else a due heartbeat.  After FIN only the echo
  // is awaited: a redial could drop an echo already in flight, and a
  // silent peer is bounded by the linger deadline.
  pump_acks(link, now);  // what arrived since the last poll counts too
  if (link.state != State::Connected) return completed;
  const KeepaliveAction keepalive =
      link.fin_sent
          ? KeepaliveAction::None
          : keepalive_action(now, link.last_rx, link.last_tx, options_);
  if (keepalive == KeepaliveAction::Redial) {
    {
      std::lock_guard<std::mutex> lock(counters_mutex_);
      ++link.counters.peer_timeouts;
    }
    drop_connection(link);
    return completed;
  }
  if (link.held > link.hold.size()) {
    // Take the dispatchers' copies: seqs are stamped in queue order, so
    // hold seqs stay a contiguous ascending run.
    {
      std::lock_guard<std::mutex> lock(link.mutex);
      link.taken.swap(link.inbox);
    }
    for (HoldItem& item : link.taken) {
      item.seq = link.next_seq++;
      patch_envelope_seq(item.frame, item.seq);
      link.hold.push_back(std::move(item));
    }
    link.taken.clear();
  }
  if (!link.hold.empty() && link.hold.back().seq > link.sent_up_to) {
    begin_frames(link, now);
  } else if (stopping && !link.fin_sent && link.hold.empty()) {
    begin_write(link, Carrying::Fin, false);
  } else if (keepalive == KeepaliveAction::Heartbeat) {
    begin_write(link, Carrying::Heartbeat, false);
  }
  if (link.write.active() && now >= link.not_before) {
    completed = step_write(link, now) || completed;
  }
  return completed;
}

/// Dials the peer without waiting and starts the HELLO2 write at once: a
/// connect still in progress makes that write wait for POLLOUT, so the
/// dial and its HELLO2 together are bounded by connect_timeout.
void SocketEndpoint::begin_connect(Link& link, Clock::time_point now) {
  {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++link.counters.connect_attempts;
  }
  if (chaos_active(now) && chaos_scoped(link) &&
      link.chaos_rng.next_double() < options_.chaos.connect_fail_prob) {
    return connect_failed(link, now, true);
  }
  const std::optional<SocketAddress> addr = resolver_(link.peer);
  sockaddr_storage storage;
  socklen_t len = 0;
  if (!addr || !fill_sockaddr(*addr, storage, len)) {
    return connect_failed(link, now, false);
  }
  link.fd = ::socket(
      addr->kind == SocketAddress::Kind::Unix ? AF_UNIX : AF_INET,
      SOCK_STREAM, 0);
  if (link.fd < 0) return connect_failed(link, now, false);
  configure_stream(link.fd, addr->kind);
  if (::connect(link.fd, reinterpret_cast<sockaddr*>(&storage), len) != 0 &&
      errno != EINPROGRESS) {
    return connect_failed(link, now, false);
  }
  link.state = Link::State::Connecting;
  link.writable = true;
  begin_write(link, Carrying::Hello, false);
}

void SocketEndpoint::connect_failed(Link& link, Clock::time_point now,
                                    bool injected) {
  drop_connection(link);
  {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++link.counters.connect_failures;
    if (injected) ++link.counters.injected_connect_failures;
  }
  link.schedule.on_failure(now);
  link.not_before = now + kDrainRedial;  // binds when the backoff does not
}

/// Starts the link's next write; control frames are encoded here.
void SocketEndpoint::begin_write(Link& link, Carrying carrying,
                                 bool dribble) {
  link.write.begin(carrying == Carrying::Hello ? options_.connect_timeout
                                               : options_.send_timeout,
                   dribble);
  link.carrying = carrying;
  link.control.clear();
  if (carrying == Carrying::Hello) {
    encode_hello2_into(node_, hosted_group_ids_, link.control);
  } else if (carrying == Carrying::Heartbeat) {
    encode_heartbeat_into(link.control);
  } else if (carrying == Carrying::Fin) {
    encode_fin_into(link.acked, link.control);
  }
  if (link.control.size() > 0) {
    link.write.add(link.control.data(), link.control.size());
  }
}

/// Starts the next batch queued beyond sent_up_to.  Deque elements are
/// reference-stable under push_back, and retire_acked never pops a frame
/// of the write in flight, so the write's iovec views stay valid.
///
/// Chaos inactive (the steady state): up to kFlushBatchFrames frames go
/// out in one gathered write.  Chaos active and scoped to this link: the
/// batch is ONE frame, preceded by its reset -> stall -> short-write
/// draws in that order, so every frame is an injection opportunity and
/// seeded chaos runs keep their RNG draw order.  A stall holds the write
/// back (`not_before`) without holding up the loop.
void SocketEndpoint::begin_frames(Link& link, Clock::time_point now) {
  const bool chaos = chaos_active(now) && chaos_scoped(link);
  bool dribble = false;
  if (chaos) {
    const WireChaosOptions& opts = options_.chaos;
    const bool reset = link.chaos_rng.next_double() < opts.reset_prob;
    const bool stall = !reset && link.chaos_rng.next_double() < opts.stall_prob;
    dribble = !reset && link.chaos_rng.next_double() < opts.short_write_prob;
    {
      std::lock_guard<std::mutex> lock(counters_mutex_);
      link.counters.injected_resets += reset ? 1 : 0;
      link.counters.injected_stalls += stall ? 1 : 0;
      link.counters.injected_short_writes += dribble ? 1 : 0;
    }
    if (reset) return drop_connection(link);
    if (stall) link.not_before = now + opts.stall;
  }
  begin_write(link, Carrying::Frames, dribble);
  link.batch.clear();
  link.batch_done = 0;
  link.batch_bytes = 0;
  const std::size_t cap = chaos ? 1 : kFlushBatchFrames;
  const std::size_t start = flush_resume_index(
      link.hold.front().seq, link.hold.size(), link.sent_up_to);
  for (std::size_t i = start; i < link.hold.size() && link.batch.size() < cap;
       ++i) {
    HoldItem& item = link.hold[i];
    link.write.add(item.frame.data(), item.frame.size());
    link.batch.push_back(&item);
  }
}

/// One send attempt of the link's write.  Returns true when it completed;
/// a broken or expired write drops the connection.
bool SocketEndpoint::step_write(Link& link, Clock::time_point now) {
  const long before = link.write.syscalls();
  const GatherWrite::Status status = link.write.step(link.fd, now);
  if (link.carrying == Carrying::Frames) {
    account_frames(link, now, link.write.syscalls() - before);
  }
  if (status == GatherWrite::Status::Failed ||
      (status == GatherWrite::Status::Pending && link.write.expired(now))) {
    link.state == Link::State::Connecting ? connect_failed(link, now, false)
                                          : drop_connection(link);
    return false;
  }
  link.writable = status == GatherWrite::Status::Done;
  if (!link.writable) return false;
  if (link.carrying != Carrying::Frames) link.last_tx = now;
  if (link.carrying == Carrying::Fin) link.fin_sent = true;
  if (link.carrying == Carrying::Hello) {
    link.state = Link::State::Connected;
    link.sent_up_to = link.acked;  // redeliver every unacknowledged copy
    link.ack_parser = FrameParser{};
    link.fin_sent = false;  // a new connection carries the goodbye again
    link.last_rx = now;
    link.schedule.on_success();
    std::lock_guard<std::mutex> lock(counters_mutex_);
    link.counters.reconnects += link.connected_once ? 1 : 0;
    link.connected_once = true;
  } else if (link.carrying == Carrying::Heartbeat) {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++link.counters.heartbeats_sent;
  }
  retire_acked(link);
  return true;
}

/// Charges a Frames write's progress as it happens.  Only COMPLETELY
/// shipped frames advance sent_up_to: a frame cut by a broken write is
/// redelivered (and recounted) after the reconnect.
void SocketEndpoint::account_frames(Link& link, Clock::time_point now,
                                    long syscalls) {
  const std::size_t from = link.batch_done;
  while (link.batch_done < link.batch.size() &&
         link.batch_bytes + link.batch[link.batch_done]->frame.size() <=
             link.write.written()) {
    link.batch_bytes += link.batch[link.batch_done++]->frame.size();
  }
  // A frame whose first write died with its connection never left, so its
  // eventual write is the group's first send; a resend is a link event.
  std::lock_guard<std::mutex> lock(counters_mutex_);
  link.counters.flush_syscalls += syscalls;
  for (std::size_t i = from; i < link.batch_done; ++i) {
    HoldItem& item = *link.batch[i];
    if (item.ever_sent) {
      ++link.counters.envelopes_resent;
    } else {
      ++find_group(item.group)->counters.envelopes_sent;
    }
    item.ever_sent = true;
    link.sent_up_to = item.seq;
    link.last_tx = now;
  }
}

/// Pops every acknowledged frame — except those of a write in flight
/// beyond sent_up_to, whose bytes the kernel may still be reading; they go
/// once the write ends.
void SocketEndpoint::retire_acked(Link& link) {
  const std::uint64_t upto =
      link.write.active() && link.carrying == Carrying::Frames
          ? std::min(link.acked, link.sent_up_to)
          : link.acked;
  std::size_t popped = 0;
  for (; !link.hold.empty() && link.hold.front().seq <= upto; ++popped) {
    // The ack retires the frame: its buffer goes back to the pool so the
    // next dispatch reuses the capacity instead of allocating.
    pool_.release(std::move(link.hold.front().frame));
    link.hold.pop_front();
  }
  // A dispatcher waits for room under the lock: wake it under the lock.
  if (popped > 0 &&
      link.held.fetch_sub(popped) >= options_.hold_queue_capacity) {
    std::lock_guard<std::mutex> lock(link.mutex);
    link.cv.notify_all();
  }
}

void SocketEndpoint::drop_connection(Link& link) {
  if (link.fd >= 0) ::close(link.fd);
  link.fd = -1;
  link.state = Link::State::Disconnected;
  link.write.begin(options_.send_timeout);
  link.batch.clear();
  retire_acked(link);
}

/// Drains acknowledgements and the FIN echo from a connected link.  What
/// arrived before a close still counts, so an echo the peer wrote just
/// before closing is not lost.
void SocketEndpoint::pump_acks(Link& link, Clock::time_point now) {
  if (link.state != Link::State::Connected) return;
  std::uint8_t buf[4096];
  ssize_t n;
  while ((n = ::recv(link.fd, buf, sizeof(buf), MSG_DONTWAIT)) > 0 ||
         (n < 0 && errno == EINTR)) {
    if (n > 0) link.ack_parser.feed(buf, static_cast<std::size_t>(n));
  }
  // n == 0: the peer closed; any error but EAGAIN: the connection failed.
  const bool broken = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
  bool any = false;
  while (std::optional<Frame> frame = link.ack_parser.next()) {
    const bool ack = frame->type == FrameType::Ack;
    if (ack) link.acked = std::max(link.acked, frame->seq);
    if (frame->type == FrameType::Fin) link.fin_echoed = true;
    any = any || ack || frame->type == FrameType::Fin;
  }
  if (any) {
    link.last_rx = now;
    retire_acked(link);
  }
  if (broken || link.ack_parser.poisoned()) drop_connection(link);
}

/// Takes one connection per pass: a redial storm waits in the backlog, not
/// in the fd table, while the loop reads the EOFs of the ones it ended.
void SocketEndpoint::accept_ready(Clock::time_point now) {
  int fd;
  do {
    fd = ::accept(listen_fd_, nullptr, nullptr);
  } while (fd < 0 && (errno == EINTR || errno == ECONNABORTED));
  if (fd < 0) {
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      accept_paused_until_ = now + kAcceptRest;  // EMFILE and friends
    }
    return;
  }
  configure_stream(fd, listen_address_.kind);
  if (chaos_active(now) &&
      accept_rng_.next_double() < options_.chaos.accept_close_prob) {
    ::close(fd);
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++misc_.injected_accept_closes;
    return;
  }
  inbound_.push_back(std::make_unique<Inbound>(fd));
}

/// One read from an inbound connection: deliver its envelopes, and owe
/// one cumulative ack for the whole chunk (and a FIN echo if the peer said
/// goodbye).  Acking per frame wasted syscalls; one ack per chunk covers
/// every envelope in it.
void SocketEndpoint::read_inbound(Inbound& conn) {
  std::array<std::uint8_t, 1 << 12> buf;  // bounds the work per ack
  const ssize_t n = ::recv(conn.fd, buf.data(), buf.size(), 0);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
    return;
  }
  if (n <= 0) return conn.close();  // EOF or error: release it now
  conn.parser.feed(buf.data(), static_cast<std::size_t>(n));
  while (std::optional<Frame> frame = conn.parser.next()) {
    switch (frame->type) {
      case FrameType::Hello2:
        if (frame->hello_sender >= 0 && frame->hello_sender < num_nodes_ &&
            frame->hello_sender != node_) {
          conn.peer = frame->hello_sender;
        }
        break;
      case FrameType::Envelope2: {
        if (conn.peer < 0) break;  // envelope before HELLO2: protocol error
        NetEnvelope env = std::move(frame->envelope);
        auto& last = delivered_seq_[static_cast<std::size_t>(conn.peer)];
        const bool fresh = frame->seq > last;
        if (fresh) last = frame->seq;
        // Demux: the copy belongs to a hosted group, names a plausible
        // group-local sender, and arrived on the link its EMITTER's node
        // owns (spoof guard).  The emitter is `origin` when set, else the
        // sender: `sender` is the claim carried in the payload — a
        // budgeted liar may forge it — while the link itself vouches for
        // who physically sent the bytes.  A forged claim is deliverable
        // precisely because it stays attributable to the liar's link.
        GroupState* group = find_group(env.group);
        const ProcessId wire_emitter =
            env.origin >= 0 ? env.origin : env.sender;
        const bool routable =
            group != nullptr && env.sender >= 0 &&
            env.sender < group->spec.config.n &&
            env.sender != group->spec.self && wire_emitter >= 0 &&
            wire_emitter < group->spec.config.n &&
            group->spec.members[static_cast<std::size_t>(wire_emitter)] ==
                conn.peer;
        if (fresh && routable &&
            !group->dead.load(std::memory_order_acquire)) {
          group->spec.inbox->push(std::move(env));
        }
        {
          std::lock_guard<std::mutex> lock(counters_mutex_);
          SocketCounters& owner = routable ? group->counters : misc_;
          if (!fresh) {
            ++owner.duplicates_dropped;
          } else if (routable) {
            ++owner.envelopes_delivered;
          } else {
            ++owner.demux_drops;
          }
        }
        // Ack only after the mailbox push: an acked copy is a delivered
        // copy (or a deliberate drop to a dead replica / unroutable
        // group).
        conn.ack_owed = true;
        break;
      }
      case FrameType::Heartbeat:
        conn.ack_owed = true;
        break;
      case FrameType::Fin:
        conn.fin_owed = conn.fin_owed || conn.peer >= 0;
        break;
      case FrameType::Ack:
        break;  // acks only flow on outbound connections
    }
  }
  if (conn.parser.poisoned()) conn.close();
}

/// Starts or continues the connection's ack / FIN-echo write.  A peer's
/// FIN counts only once its echo is fully written: the loop ends as soon
/// as every peer's FIN is counted, and the echo must be out first.
void SocketEndpoint::flush_inbound(Inbound& conn, Clock::time_point now) {
  if (conn.fd < 0) return;
  if (!conn.write.active()) {
    if (!conn.ack_owed && !conn.fin_owed) return;
    const std::uint64_t cumulative =
        conn.peer < 0 ? 0
                      : delivered_seq_[static_cast<std::size_t>(conn.peer)];
    conn.out.clear();
    if (conn.ack_owed) encode_ack_into(cumulative, conn.out);
    if (conn.fin_owed) encode_fin_into(cumulative, conn.out);
    conn.fin_in_write = conn.fin_owed;
    conn.ack_owed = conn.fin_owed = false;
    conn.write.begin(options_.send_timeout);
    conn.write.add(conn.out.data(), conn.out.size());
  } else if (!conn.writable && !conn.write.expired(now)) {
    return;
  }
  const GatherWrite::Status status = conn.write.step(conn.fd, now);
  if (status == GatherWrite::Status::Failed ||
      (status == GatherWrite::Status::Pending && conn.write.expired(now))) {
    return conn.close();
  }
  conn.writable = status == GatherWrite::Status::Done;
  if (!conn.writable || !conn.fin_in_write) return;
  conn.fin_in_write = false;
  char& seen = fin_from_[static_cast<std::size_t>(conn.peer)];
  fins_ += seen ? 0 : 1;
  seen = 1;
}

void SocketEndpoint::begin_stop() {
  if (stopping_.load(std::memory_order_acquire)) return;
  halt_deadline_ = Clock::now() + options_.linger;
  stopping_.store(true, std::memory_order_release);
  for (auto& link : links_) link->cv.notify_all();
  wake();
}

std::vector<UndeliveredCopy> SocketEndpoint::stop_and_flush() {
  if (flushed_) return {};
  flushed_ = true;
  begin_stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  std::vector<UndeliveredCopy> undelivered;
  {
    std::lock_guard<std::mutex> lock(overflow_mutex_);
    undelivered = std::move(overflow_);
  }
  const auto strand = [&](const HoldItem& item) {
    undelivered.push_back(UndeliveredCopy{item.sender, item.receiver,
                                          item.send_round, 0, item.group});
  };
  for (auto& link : links_) {
    std::lock_guard<std::mutex> lock(link->mutex);
    std::for_each(link->hold.begin(), link->hold.end(), strand);
    std::for_each(link->inbox.begin(), link->inbox.end(), strand);
    link->hold.clear();
    link->inbox.clear();
  }
  return undelivered;
}

std::vector<UndeliveredCopy> SocketEndpoint::stop_and_flush_group(
    GroupId group) {
  GroupState* state = find_group(group);
  if (state == nullptr) return {};
  if (!group_flushed_) {
    group_flushed_ = true;
    for (UndeliveredCopy& copy : stop_and_flush()) {
      if (GroupState* owner = find_group(copy.group)) {
        owner->stash.push_back(copy);
      }
    }
  }
  return std::move(state->stash);
}

SocketCounters SocketEndpoint::counters() const {
  std::lock_guard<std::mutex> lock(counters_mutex_);
  SocketCounters total = misc_;
  for (const auto& link : links_) total += link->counters;
  for (const auto& [group, state] : groups_) total += state->counters;
  return total;
}

SocketCounters SocketEndpoint::link_counters(int node) const {
  std::lock_guard<std::mutex> lock(counters_mutex_);
  const Link* link = link_for_node(node);
  return link != nullptr ? link->counters : SocketCounters{};
}

SocketCounters SocketEndpoint::group_counters(GroupId group) const {
  std::lock_guard<std::mutex> lock(counters_mutex_);
  const GroupState* state = find_group(group);
  return state != nullptr ? state->counters : SocketCounters{};
}

std::vector<UndeliveredCopy> stop_and_flush_all(
    const std::vector<std::unique_ptr<SocketEndpoint>>& endpoints) {
  for (const auto& endpoint : endpoints) endpoint->begin_stop();
  std::vector<UndeliveredCopy> undelivered;
  for (const auto& endpoint : endpoints) {
    std::vector<UndeliveredCopy> part = endpoint->stop_and_flush();
    undelivered.insert(undelivered.end(), part.begin(), part.end());
  }
  return undelivered;
}

}  // namespace indulgence
