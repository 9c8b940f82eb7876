// A supervised socket transport: the live runtime's Transport over real
// TCP (localhost) or Unix-domain stream sockets.
//
// The transport is split into two layers:
//
//   * The LINK layer is per peer *node* (OS process), not per consensus
//     group.  Every node owns a SocketEndpoint — one listening socket plus
//     one outbound link per peer node — and ONE event-loop thread that
//     polls all of its sockets and steps each link's state machine:
//
//       DISCONNECTED --dial--> CONNECTING --HELLO2 out--> CONNECTED
//            ^   (backoff)        |  connect_timeout         |  io error,
//            |                    v                          |  send_timeout,
//            +------------ DISCONNECTED <--------------------+  silence, reset
//
//     Reconnect/backoff, heartbeats, and the reliable seq/ack machinery
//     all live here, once per link: envelopes of every group hosted on the
//     node share one sequence space per link and one hold queue.  A
//     reconnect storm on one peer link is one link's problem, however many
//     groups ride on it.
//
//   * The DEMUX layer is per consensus group.  A node registers the groups
//     it hosts (add_group) before start(); each decoded ENVELOPE2 carries
//     its owning GroupId and is routed — after per-link dedup — to the
//     owning replica's mailbox.  The routing table is immutable after
//     start(), so the loop demultiplexes without taking a lock, and mailbox
//     pushes go to per-group channels sized for the whole run.
//
// Reconnects use exponential backoff with decorrelated jitter (the pure
// next_backoff below).  Indulgence is the design rule the paper prices: a
// suspected peer is *never* dropped.  A dead peer just means the link
// retries forever while the hold queue keeps every unacknowledged copy,
// and redelivers all of them — in sequence order — after any reconnect.
//
// Reliable channels over a fallible wire: every envelope carries a
// per-link sequence number; the receiver acknowledges cumulatively *after*
// the copy reaches the mailbox, and deduplicates replays by the per-peer
// last-delivered sequence (which survives reconnects — TCP/UDS FIFO plus
// in-order full resend makes the delivered set a prefix of the sequence
// space, so "seq <= last" is exactly "already delivered").  Heartbeats
// elicit acks on idle links, so a peer whose process is gone is detected
// by silence (peer_silence) and the link falls back to redialing.
//
// The loop never waits on one fd.  Every byte it puts on a socket is a
// GatherWrite: non-blocking gathered sendmsg calls that ship what the
// socket takes now, charged against one send_timeout from the write's
// first attempt.  A link mid-write keeps its place and waits for POLLOUT;
// control frames start only at a frame boundary.  A link's flush gathers
// up to a batch of queued frames into one write; while chaos is active on
// the link, each frame is its own write, preceded by its fault draws.
//
// The wire-chaos layer fuzzes all of this from inside: seeded injected
// connection resets, pre-write stalls (a per-link "not before" time, so a
// stalled link never stalls the loop), byte-at-a-time short writes,
// connect failures, and accept-then-close, all confined to a wall-clock
// window (`until`, the chaos analogue of the router's pre-GST era) and
// switched off by expedite().  The oracle stays the unchanged Validator:
// whatever the chaos does, each group's merged trace must still satisfy
// eventual synchrony from some derived GST round on.
//
// Teardown is a FIN exchange: a stopping endpoint says FIN on each link
// once its hold queue is fully acknowledged and ends the link on the
// peer's echo, while it keeps acking inbound connections until every
// peer's FIN has arrived; then its loop returns.  `linger` only bounds a
// peer that never says goodbye.

#pragma once

#include <sys/uio.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/byzantine_planner.hpp"
#include "net/options.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"

namespace indulgence {

/// Where a process listens: a Unix-domain socket path or a TCP port on
/// 127.0.0.1.  `port` 0 asks the kernel for an ephemeral port; the bound
/// address is readable via SocketEndpoint::listen_address().
struct SocketAddress {
  enum class Kind { Unix, Tcp };
  Kind kind = Kind::Unix;
  std::string path;        ///< Unix
  std::uint16_t port = 0;  ///< Tcp (loopback only)

  static SocketAddress unix_path(std::string p) {
    return SocketAddress{Kind::Unix, std::move(p), 0};
  }
  static SocketAddress tcp_loopback(std::uint16_t port) {
    return SocketAddress{Kind::Tcp, {}, port};
  }

  std::string to_string() const;
};

/// Exponential backoff with decorrelated jitter: the next delay is drawn
/// uniformly from [base, 3 * prev], clamped to [base, cap].  Decorrelation
/// (AWS architecture-blog style) avoids the synchronized retry herds plain
/// exponential backoff produces when n links lose the same peer at once.
struct BackoffPolicy {
  std::chrono::microseconds base{500};
  std::chrono::microseconds cap{50'000};
};

/// Pure draw — callers own both the rng and the clock, so tests can walk
/// an entire reconnect schedule synthetically.
std::chrono::microseconds next_backoff(const BackoffPolicy& policy,
                                       std::chrono::microseconds prev,
                                       Rng& rng);

/// The transport's only socket write: one gathered write in flight on a
/// non-blocking socket.  begin() it, add() the byte ranges, then step()
/// whenever the socket may take more: each step is ONE sendmsg
/// (MSG_NOSIGNAL, MSG_DONTWAIT) that ships what the kernel accepts now —
/// a single byte when dribbling — and never waits.  The whole write has
/// one deadline, `timeout` after its first step, however many steps and
/// partial writes it takes.  `written()` counts the bytes shipped even
/// when the write breaks, so the caller can tell which frames made it out.
class GatherWrite {
 public:
  using Clock = std::chrono::steady_clock;
  enum class Status { Done, Pending, Failed };  ///< Pending: await POLLOUT

  void begin(std::chrono::microseconds timeout, bool dribble = false);
  void add(const std::uint8_t* data, std::size_t size) {
    iov_.push_back(iovec{const_cast<std::uint8_t*>(data), size});
  }
  Status step(int fd, Clock::time_point now);

  bool active() const { return next_ < iov_.size(); }
  /// max() until the first step.
  Clock::time_point deadline() const {
    return started_ == Clock::time_point{} ? Clock::time_point::max()
                                           : started_ + timeout_;
  }
  bool expired(Clock::time_point now) const { return now >= deadline(); }
  std::size_t written() const { return written_; }
  long syscalls() const { return syscalls_; }  ///< send attempts so far

 private:
  std::vector<iovec> iov_;
  std::size_t next_ = 0;  ///< first iovec not yet fully written
  std::size_t written_ = 0;
  long syscalls_ = 0;
  Clock::time_point started_{};
  std::chrono::microseconds timeout_{0};
  bool dribble_ = false;
};

/// First unflushed position in a link's hold queue.  The queue's seqs are
/// always the contiguous ascending run [front_seq, front_seq + size):
/// dispatch appends next_seq++ and only the cumulative ack pops the front,
/// so the resume point is arithmetic, not a scan — O(1) where the old
/// per-frame std::find_if from begin() made a backlog flush O(n^2).
inline std::size_t flush_resume_index(std::uint64_t front_seq,
                                      std::size_t size,
                                      std::uint64_t sent_up_to) {
  if (size == 0 || sent_up_to < front_seq) return 0;
  const std::uint64_t skip = sent_up_to - front_seq + 1;
  return skip >= size ? size : static_cast<std::size_t>(skip);
}

/// The per-link reconnect state machine, clock-agnostic: time flows in
/// through the `now` arguments only.
class ReconnectSchedule {
 public:
  ReconnectSchedule(BackoffPolicy policy, std::uint64_t seed)
      : policy_(policy), rng_(Rng::for_stream(seed, 0xb0ff)) {}

  using TimePoint = std::chrono::steady_clock::time_point;

  /// True when a connect attempt is allowed at `now`.
  bool due(TimePoint now) const { return now >= next_attempt_; }

  /// Records a failed attempt at `now`; returns when the next is allowed.
  TimePoint on_failure(TimePoint now) {
    ++failures_;
    delay_ = next_backoff(policy_, delay_, rng_);
    next_attempt_ = now + delay_;
    return next_attempt_;
  }

  /// A successful connect resets the schedule to the base delay.
  void on_success() {
    delay_ = std::chrono::microseconds{0};
    next_attempt_ = TimePoint{};
  }

  /// Expedited shutdown: retry immediately, forever.
  void expedite() { next_attempt_ = TimePoint{}; }

  TimePoint next_attempt() const { return next_attempt_; }

  std::chrono::microseconds current_delay() const { return delay_; }
  long failures() const { return failures_; }

 private:
  BackoffPolicy policy_;
  Rng rng_;
  std::chrono::microseconds delay_{0};
  TimePoint next_attempt_{};
  long failures_ = 0;
};

/// Seeded wire-level fault injection, active only while the run clock is
/// before `until` (and never after expedite()) — the chaos analogue of the
/// router's pre-GST era.  All probabilities are per opportunity.
struct WireChaosOptions {
  std::uint64_t seed = 1;
  std::chrono::microseconds until{0};  ///< chaos window from the run epoch
  double connect_fail_prob = 0.0;  ///< outbound connect aborted before dial
  double accept_close_prob = 0.0;  ///< accepted connection closed instantly
  double reset_prob = 0.0;         ///< connection closed instead of a write
  double stall_prob = 0.0;         ///< hold a write back for `stall`
  std::chrono::microseconds stall{1'000};
  double short_write_prob = 0.0;   ///< dribble a frame byte-at-a-time
  /// >= 0: confine link-side chaos (connect failures, resets, stalls,
  /// short writes) to the link towards this peer node — the counter
  /// attribution tests' scalpel.  Accept-side chaos is unscoped (the
  /// dialer is unknown when the close is injected).
  int only_node = -1;

  bool any() const {
    return connect_fail_prob > 0 || accept_close_prob > 0 || reset_prob > 0 ||
           stall_prob > 0 || short_write_prob > 0;
  }
};

struct SocketTransportOptions {
  /// Bounds a dial together with its HELLO2; send_timeout bounds every
  /// other write from its first send attempt.
  std::chrono::microseconds connect_timeout{200'000};
  std::chrono::microseconds send_timeout{200'000};
  /// Idle links send a heartbeat this often; silence for `peer_silence`
  /// (acks included) marks the connection suspect and redials it.
  std::chrono::microseconds heartbeat_every{25'000};
  std::chrono::microseconds peer_silence{150'000};
  /// Upper bound on stop_and_flush's FIN exchange (links drain and say
  /// FIN, inbound connections are acked until every peer's FIN came in).
  /// Peers that stop together finish well inside it; it runs out only on
  /// a peer that never says goodbye, such as a crashed process.
  std::chrono::microseconds linger{250'000};
  BackoffPolicy backoff;
  WireChaosOptions chaos;
  /// Unacknowledged copies held per link; a full queue back-pressures the
  /// sender (blocks) rather than dropping — ES channels are reliable.
  std::size_t hold_queue_capacity = 1 << 15;
  std::uint64_t seed = 1;
  /// Round-indexed Byzantine actions (sim/byzantine.hpp) applied to the
  /// liars' outgoing copies at dispatch time, before encoding — the socket
  /// analogue of LiveOptions::byzantine (LiveRuntime copies its plan here
  /// when this one is empty).  Mutated and forged copies are encoded
  /// per-receiver; honest traffic keeps the encode-once fast path.
  std::vector<ByzantineInjection> byzantine;
};

/// What a connected link owes its peer at a frame boundary, judged at the
/// loop pass's single timestamp `now`: nothing, a keep-alive heartbeat (tx
/// idle), or a redial (the peer has been silent past peer_silence — acks
/// included).  Pure so the boundaries are unit-testable without sockets.
enum class KeepaliveAction { None, Heartbeat, Redial };

inline KeepaliveAction keepalive_action(
    std::chrono::steady_clock::time_point now,
    std::chrono::steady_clock::time_point last_rx,
    std::chrono::steady_clock::time_point last_tx,
    const SocketTransportOptions& options) {
  // Silence outranks keep-alive: a heartbeat onto a dead peer only delays
  // the redial that would revive the link.
  if (now - last_rx > options.peer_silence) return KeepaliveAction::Redial;
  if (now - last_tx > options.heartbeat_every) return KeepaliveAction::Heartbeat;
  return KeepaliveAction::None;
}

/// Socket-fabric observability, one type at every scope.  Each event is
/// charged where it happens, so a reconnect storm on one peer link cannot
/// be misattributed to a healthy group that never uses that link:
///   * a peer LINK owns connection trouble and flush work (connect
///     attempts/failures, reconnects, resends, heartbeats, peer timeouts,
///     the four link-side injections, flush syscalls);
///   * a hosted GROUP owns its traffic (sent, delivered, duplicates of
///     routable copies);
///   * the endpoint itself owns what no link or group does (accept-side
///     injections, demux drops, duplicates of unroutable copies).
/// Fields a scope does not own stay zero there, and the endpoint-wide
/// counters() is the plain sum of all three.  The X5/X6 benches and the
/// multi-process demos report these, and the shipped log format persists
/// them.
struct SocketCounters {
  long connect_attempts = 0;
  long connect_failures = 0;   ///< includes injected ones
  long reconnects = 0;         ///< successful connects after the first
  long envelopes_sent = 0;
  long envelopes_resent = 0;   ///< link-caused redeliveries after reconnect
  long envelopes_delivered = 0;
  long duplicates_dropped = 0;
  long heartbeats_sent = 0;
  long peer_timeouts = 0;      ///< connections dropped for silence
  long injected_resets = 0;
  long injected_stalls = 0;
  long injected_short_writes = 0;
  long injected_connect_failures = 0;
  long injected_accept_closes = 0;
  /// Well-formed envelopes no hosted group owned (unknown group, spoofed
  /// or misplaced sender).  Acked at the link layer, dropped by the demux.
  long demux_drops = 0;
  /// Envelope-flush syscalls: every send attempt of a flush, stall retries
  /// and dribbled bytes included.  The coalesced flush ships many frames
  /// per syscall, so (sent + resent) / flush_syscalls is the batching
  /// factor the E10 transport microbench tracks.
  long flush_syscalls = 0;

  /// Every field, in declaration order: the one list that summing and the
  /// shipped log format (net/trace_ship) walk.
  static constexpr std::array<long SocketCounters::*, 16> fields() {
    using S = SocketCounters;
    return {&S::connect_attempts,   &S::connect_failures,
            &S::reconnects,         &S::envelopes_sent,
            &S::envelopes_resent,   &S::envelopes_delivered,
            &S::duplicates_dropped, &S::heartbeats_sent,
            &S::peer_timeouts,      &S::injected_resets,
            &S::injected_stalls,    &S::injected_short_writes,
            &S::injected_connect_failures,
            &S::injected_accept_closes,
            &S::demux_drops,        &S::flush_syscalls};
  }

  SocketCounters& operator+=(const SocketCounters& o) {
    for (long SocketCounters::*f : fields()) this->*f += o.*f;
    return *this;
  }

  /// Every fault the wire-chaos layer injected, whatever its kind.
  long injected_faults() const {
    return injected_resets + injected_stalls + injected_short_writes +
           injected_connect_failures + injected_accept_closes;
  }
};

/// Resolves a peer's address at connect time.  Multi-process TCP runs use
/// this to read port files that only exist once the peer has bound;
/// returning nullopt counts as a failed attempt (backoff applies).
using AddressResolver =
    std::function<std::optional<SocketAddress>(ProcessId)>;

/// One consensus group as hosted on one node: which group-local replica
/// lives here, where every other member lives, and the channel decoded
/// envelopes are demultiplexed into.
struct GroupSpec {
  GroupId group = 0;
  SystemConfig config{};
  ProcessId self = -1;       ///< the group-local replica hosted on this node
  /// members[pid] = hosting node for every group-local pid.  Replicas of
  /// one group must live on pairwise-distinct nodes.
  std::vector<int> members;
  Mailbox* inbox = nullptr;  ///< the hosted replica's mailbox
};

/// One node's side of the socket fabric: a listener plus one supervised
/// outbound link per peer node, multiplexing every group registered with
/// add_group(), all driven by one event-loop thread.  Drivers reach it
/// through a per-group GroupPort.  The listener binds in the constructor
/// (before any start()), so a set of endpoints created first and started
/// later can always reach each other.
class SocketEndpoint {
 public:
  using Clock = std::chrono::steady_clock;

  /// `node` is this process' slot in the fabric's node address table
  /// `nodes`; the self entry may carry port 0 (the bound address is then
  /// listen_address()).  Register hosted groups with add_group() before
  /// start().
  SocketEndpoint(int node, std::vector<SocketAddress> nodes,
                 SocketTransportOptions options);

  /// Resolver flavour (multi-process fabrics): only the self listen
  /// address is known up front; peers are resolved per connect attempt.
  SocketEndpoint(int node, int num_nodes, SocketAddress listen,
                 AddressResolver resolver, SocketTransportOptions options);

  ~SocketEndpoint();

  /// Registers a hosted group (before start() only).  Throws
  /// std::invalid_argument on malformed placement: wrong member count,
  /// nodes out of range, spec.self not hosted here, a duplicate GroupId,
  /// or two replicas of the group sharing a node.
  void add_group(GroupSpec spec);

  /// The address the listener actually bound (TCP port resolved).
  const SocketAddress& listen_address() const { return listen_address_; }

  int node() const { return node_; }

  // --- endpoint lifecycle ---------------------------------------------------

  /// Starts the endpoint's one event-loop thread; `epoch` is the run's
  /// t=0 for the wire-chaos window.
  void start(Clock::time_point epoch);
  /// Chaos off, drain fast: what expedite_group() fires once every hosted
  /// group asked.
  void expedite();
  /// Stops the endpoint (the FIN exchange) and returns every copy that
  /// never reached a peer's mailbox.  Idempotent.
  std::vector<UndeliveredCopy> stop_and_flush();

  // --- demux layer (per-group entry points) ---------------------------------

  /// Broadcasts `payload` as group-local `sender`'s round-`round` message
  /// to the group's other members, over the shared per-node links.
  /// Thread-safe.  `sender` must be the replica hosted on this node.
  void dispatch_group(GroupId group, ProcessId sender, Round round,
                      MessagePtr payload);

  /// Marks group-local `pid` dead *within one group*: if that replica is
  /// hosted here, its copies are dropped at delivery (the kernel does the
  /// same, and the validator never asks for deliveries to the dead).
  void mark_dead_group(GroupId group, ProcessId pid);

  /// Per-group expedite: the endpoint-wide expedite (chaos off, drain
  /// fast) fires once the *last* hosted group asks — one early-finishing
  /// group cannot switch the adversary off for the others.
  void expedite_group(GroupId group);

  /// Stops the whole endpoint on first call (the caller must have joined
  /// every hosted group's drivers first) and returns `group`'s partition
  /// of the undelivered copies.  Call once per group, from one controlling
  /// thread.
  std::vector<UndeliveredCopy> stop_and_flush_group(GroupId group);

  // --- observability --------------------------------------------------------

  /// Endpoint-wide: the endpoint's own events plus every link and group.
  SocketCounters counters() const;
  /// What the link to peer `node` owns; zeros for an unknown node.
  SocketCounters link_counters(int node) const;
  /// What hosted group `group` owns; zeros for a group not hosted here.
  SocketCounters group_counters(GroupId group) const;

 private:
  struct Link;
  struct Inbound;
  struct GroupState;

  friend std::vector<UndeliveredCopy> stop_and_flush_all(
      const std::vector<std::unique_ptr<SocketEndpoint>>& endpoints);

  /// What a link's write in flight carries.
  enum class Carrying { Hello, Frames, Heartbeat, Fin };

  void init_listener_and_links();
  GroupState* find_group(GroupId group) const;
  Link* link_for_node(int node) const;
  bool chaos_active(Clock::time_point now) const;
  bool chaos_scoped(const Link& link) const;
  void wake();
  void begin_stop();
  void loop();
  Clock::time_point redial_at(const Link& link, bool stopping) const;
  bool step_link(Link& link, Clock::time_point now);
  void begin_connect(Link& link, Clock::time_point now);
  void connect_failed(Link& link, Clock::time_point now, bool injected);
  void begin_write(Link& link, Carrying carrying, bool dribble);
  void begin_frames(Link& link, Clock::time_point now);
  bool step_write(Link& link, Clock::time_point now);
  void account_frames(Link& link, Clock::time_point now, long syscalls);
  void retire_acked(Link& link);
  void drop_connection(Link& link);
  void pump_acks(Link& link, Clock::time_point now);
  void accept_ready(Clock::time_point now);
  void read_inbound(Inbound& conn);
  void flush_inbound(Inbound& conn, Clock::time_point now);

  int node_ = -1;
  int num_nodes_ = 0;
  SocketTransportOptions options_;
  /// Byzantine output mutation (net/byzantine_planner.hpp); the mutex
  /// serializes its replay history across concurrently dispatching hosted
  /// groups and is only ever taken when the plan is non-empty.
  ByzantinePlanner byz_;
  std::mutex byz_mutex_;
  AddressResolver resolver_;
  SocketAddress listen_address_;
  int listen_fd_ = -1;
  /// eventfd the dispatchers and expedite()/stop write to wake the loop;
  /// `wake_armed_` keeps it to one write per loop pass.
  int wake_fd_ = -1;
  std::atomic<bool> wake_armed_{false};

  /// Immutable after start(): the loop demuxes without locks.
  std::map<GroupId, std::unique_ptr<GroupState>> groups_;
  std::vector<GroupId> hosted_group_ids_;  ///< ascending, = HELLO2 payload

  Clock::time_point epoch_{};
  /// Written (before the `stopping_` release-store) by the stop; the loop
  /// reads it only after an acquire-load of `stopping_`.
  Clock::time_point halt_deadline_{};
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> expedited_{false};
  bool flushed_ = false;
  bool group_flushed_ = false;

  std::mutex expedite_mutex_;
  int expedited_groups_ = 0;

  std::vector<std::unique_ptr<Link>> links_;  ///< peer nodes, ascending
  std::thread loop_thread_;

  // Loop-thread-only state.
  std::vector<std::unique_ptr<Inbound>> inbound_;  ///< live connections
  Rng accept_rng_;
  Clock::time_point accept_paused_until_{};  ///< after EMFILE and friends
  /// Peers whose FIN arrived and was echoed on an inbound connection.
  std::vector<char> fin_from_;
  int fins_ = 0;
  /// Highest sequence delivered per peer node; survives reconnects
  /// (dedup).  Per link, shared by every group riding on it.
  std::vector<std::uint64_t> delivered_seq_;

  mutable std::mutex counters_mutex_;
  /// Events with no owning link or group (see SocketCounters); counters()
  /// adds the per-link and per-group tallies on top.
  SocketCounters misc_;

  /// Copies that could not even be queued because stop arrived while the
  /// hold queue was full.
  std::mutex overflow_mutex_;
  std::vector<UndeliveredCopy> overflow_;

  /// Recycles encoded-frame buffers: dispatch acquires, the cumulative-ack
  /// pop releases.  Endpoint-wide so every link shares the warm set.
  FrameBufferPool pool_;
};

/// A per-group SupervisedTransport view over a shared multi-group
/// endpoint: the demux layer's send-side facade, and the only
/// SupervisedTransport over sockets.  The round drivers of group g hold a
/// GroupPort and never learn the endpoint is shared — DriverContext,
/// RoundDriver, and the validator stay single-group.
class GroupPort final : public SupervisedTransport {
 public:
  GroupPort(SocketEndpoint* endpoint, GroupId group)
      : endpoint_(endpoint), group_(group) {}

  /// The node owner starts the shared endpoint exactly once; per-group
  /// starts are no-ops.
  void start(Clock::time_point) override {}
  void dispatch(ProcessId sender, Round round, MessagePtr payload) override {
    endpoint_->dispatch_group(group_, sender, round, std::move(payload));
  }
  void mark_dead(ProcessId pid) override {
    endpoint_->mark_dead_group(group_, pid);
  }
  void expedite() override { endpoint_->expedite_group(group_); }
  std::vector<UndeliveredCopy> stop_and_flush() override {
    return endpoint_->stop_and_flush_group(group_);
  }
  long dropped_copies() const override { return 0; }

  GroupId group() const { return group_; }

 private:
  SocketEndpoint* endpoint_;
  GroupId group_;
};

/// Stops every endpoint together and returns their undelivered copies,
/// endpoint by endpoint: first tells every loop to begin the FIN exchange,
/// then waits for each, starting no thread.  Stopping together is what
/// lets the exchange end early: an endpoint keeps acking until every peer
/// said FIN.
std::vector<UndeliveredCopy> stop_and_flush_all(
    const std::vector<std::unique_ptr<SocketEndpoint>>& endpoints);

}  // namespace indulgence
