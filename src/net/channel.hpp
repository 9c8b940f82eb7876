// A bounded multi-producer single-consumer channel — the wire of the live
// runtime.
//
// Every edge of the live runtime is one of these: drivers push outbound
// broadcasts into the router's inbound channel, and the router pushes
// fated envelopes into each process' mailbox.  The channel is bounded so a
// stalled consumer exerts backpressure instead of letting queues grow
// without limit, and closable so teardown can drain in-flight items into
// the trace's pending records instead of losing them.
//
// The implementation is a mutex + condvar ring; at the live runtime's scale
// (n <= 13 processes, thousands of envelopes per second) contention is
// negligible and the simple form is trivially ThreadSanitizer-clean.

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace indulgence {

template <typename T>
class Channel {
 public:
  explicit Channel(std::size_t capacity) : capacity_(capacity ? capacity : 1) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Blocks while the channel is full.  Returns false (dropping the item)
  /// once the channel is closed.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock,
                   [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking pop; nullopt when empty.
  std::optional<T> try_pop() {
    std::lock_guard<std::mutex> lock(mutex_);
    return pop_locked();
  }

  /// Blocks up to `timeout` for an item; nullopt on timeout or when the
  /// channel is closed and drained.  A zero (or negative) timeout is an
  /// exact synonym for try_pop: one locked check, no condvar wait — pollers
  /// spinning with pop_for(0us) must not pay a futex round trip, and a
  /// negative duration must not be handed to wait_for (whose behaviour on
  /// negative timeouts varies by implementation).
  std::optional<T> pop_for(std::chrono::microseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (timeout > std::chrono::microseconds::zero()) {
      not_empty_.wait_for(lock, timeout,
                          [this] { return closed_ || !items_.empty(); });
    }
    return pop_locked();
  }

  /// Blocks until an item arrives, the channel closes, wake() is called or
  /// `deadline` passes (time_point::max() = no deadline); nullopt unless an
  /// item arrived.  A consumer that waits for events other than items gets
  /// them through wake(), which is sticky: a wake() that lands before the
  /// wait starts ends the next wait at once, so none is lost.
  std::optional<T> pop_until(std::chrono::steady_clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto ready = [this] { return closed_ || woken_ || !items_.empty(); };
    if (deadline == std::chrono::steady_clock::time_point::max()) {
      not_empty_.wait(lock, ready);
    } else {
      not_empty_.wait_until(lock, deadline, ready);
    }
    woken_ = false;
    return pop_locked();
  }

  /// Ends the consumer's current (or next) pop_until wait without an item.
  void wake() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      woken_ = true;
    }
    not_empty_.notify_all();
  }

  /// Closes the channel: pending items stay poppable, pushes start failing,
  /// blocked producers and consumers wake.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  /// Pops everything currently queued (used at teardown to turn undelivered
  /// envelopes into the trace's pending records).
  std::vector<T> drain() {
    std::vector<T> out;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      out.assign(std::make_move_iterator(items_.begin()),
                 std::make_move_iterator(items_.end()));
      items_.clear();
    }
    not_full_.notify_all();
    return out;
  }

 private:
  std::optional<T> pop_locked() {
    if (items_.empty()) return std::nullopt;
    std::optional<T> out(std::move(items_.front()));
    items_.pop_front();
    not_full_.notify_one();
    return out;
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
  bool woken_ = false;
};

}  // namespace indulgence
