#pragma once
// Bounded multi-producer / multi-consumer blocking channel.
//
// The general-purpose inter-node link of the skeleton runtime. The queue is
// a mutex-guarded deque with RAII locks only, and the lock discipline is
// machine-checked: the mutex is a support::Mutex capability and every
// guarded member carries BSK_GUARDED_BY, so the clang CI job
// (-Werror=thread-safety) rejects any access outside a critical section.
// Close semantics let a producer signal end-of-stream: after close(), pops
// drain remaining items then report Closed.
//
// Blocking never happens under the mutex. An operation that finds the
// queue empty (or full) drops the lock and waits on one of two wait words
// through the support::wait ladder (support/wait.hpp): a consumer spins,
// polls while its stream is sparse (items 50 µs to 1 ms apart), then parks
// on a private futex; a consumer of a dense stream parks right after the
// spin so the producer batches, and a producer facing a full queue parks
// at once. The other side wakes a word
// with one atomic add and makes a syscall only when a waiter is parked, so
// a hop between two busy threads costs no wake-up at all. Every rung sees
// close(), reopen() and the caller's deadline.
//
// The dataplane hot path uses the batched operations: push_n/pop_n move a
// whole batch under a single lock acquisition and a single wake
// (bench/micro_runtime BM_ChannelBatchTransfer vs BM_ChannelPushPop).
// size() reads an atomic mirror of the queue depth maintained inside the
// critical sections, so schedulers and sensors polling queue lengths never
// contend on the channel mutex; the waits poll the same mirror.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "support/clock.hpp"
#include "support/thread_annotations.hpp"
#include "support/wait.hpp"

namespace bsk::support {

/// Result of a channel pop.
enum class ChannelStatus {
  Ok,       ///< item delivered
  Closed,   ///< channel closed and drained
  TimedOut  ///< timed pop expired
};

/// Bounded blocking MPMC FIFO channel.
///
/// Capacity 0 is normalized to 1. All operations are thread-safe.
template <typename T>
class Channel {
 public:
  explicit Channel(std::size_t capacity = 64)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Block until space is available, then enqueue. Returns false if the
  /// channel was closed (item is dropped).
  bool push(T item) {
    return push_until(item, Deadline()) == ChannelStatus::Ok;
  }

  /// Non-blocking enqueue. Returns false when full or closed.
  bool try_push(T item) {
    {
      MutexLock lk(mu_);
      if (closed_.load(std::memory_order_relaxed) || q_.size() >= capacity_)
        return false;
      enqueue_locked(std::move(item));
    }
    wake(not_empty_.ref(), 1);
    return true;
  }

  /// Timed enqueue waiting for space. Moves from `item` only on Ok; on
  /// TimedOut/Closed the caller still owns it and can retry elsewhere (the
  /// farm's on-demand scheduler relies on this to wait for space without
  /// holding any scheduler lock). d <= 0 is a pure try.
  ChannelStatus push_for(T& item, SimDuration d) {
    return push_until(item, Deadline(d));
  }

  /// Batched blocking enqueue: move every element of `items` into the
  /// channel under as few lock acquisitions as capacity allows. Blocks for
  /// space chunk by chunk; returns the number of items accepted (short only
  /// when the channel closes mid-push). Elements up to the returned count
  /// are moved-from; the rest are untouched.
  std::size_t push_n(std::vector<T>& items) {
    std::size_t pushed = 0;
    while (pushed < items.size()) {
      std::size_t take = 0;
      {
        MutexLock lk(mu_);
        if (closed_.load(std::memory_order_relaxed)) break;
        take = std::min(capacity_ - q_.size(), items.size() - pushed);
        for (std::size_t i = 0; i < take; ++i)
          q_.push_back(std::move(items[pushed++]));
        size_.store(q_.size(), std::memory_order_release);
      }
      // Wake while looping: consumers must drain to make room for the
      // rest of the batch.
      if (take > 0) wake(not_empty_.ref(), take > 1 ? INT_MAX : 1);
      if (pushed < items.size() &&
          await_space(kNoDeadline) == WaitStatus::Stopped)
        break;
    }
    return pushed;
  }

  /// Block until an item is available or the channel is closed and drained.
  ChannelStatus pop(T& out) { return pop_until(out, Deadline()); }

  /// Pop with a simulated-time timeout.
  ChannelStatus pop_for(T& out, SimDuration d) {
    return pop_until(out, Deadline(d));
  }

  /// Batched blocking pop: wait until at least one item is available, then
  /// append up to `max` items to `out` under one lock acquisition.
  ChannelStatus pop_n(std::vector<T>& out, std::size_t max) {
    return pop_n_until(out, max, Deadline());
  }

  /// Batched pop with a simulated-time timeout.
  ChannelStatus pop_n_for(std::vector<T>& out, std::size_t max,
                          SimDuration d) {
    return pop_n_until(out, max, Deadline(d));
  }

  /// As pop_n(), calling `on_take(k)` under the lock once the k items taken
  /// sit at the back of `out`, before size() stops counting them: a reader
  /// that adds size() to a count kept by `on_take` (size() first) never
  /// misses a batch on its way to the consumer.
  template <class OnTake>
  ChannelStatus pop_n(std::vector<T>& out, std::size_t max, OnTake on_take) {
    return pop_n_until(out, max, Deadline(), on_take);
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::optional<T> out;
    {
      MutexLock lk(mu_);
      if (q_.empty()) return std::nullopt;
      out.emplace(std::move(q_.front()));
      q_.pop_front();
      size_.store(q_.size(), std::memory_order_release);
    }
    wake(not_full_.ref(), 1);
    return out;
  }

  /// Close the channel: producers fail fast, consumers drain then see Closed.
  void close() { set_closed(true); }

  /// Reopen a closed channel (used when re-wiring a reconfigured skeleton).
  /// Wakes every blocked producer and consumer so they re-evaluate their
  /// conditions against the reopened state.
  void reopen() { set_closed(false); }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Lock-free queue depth (an atomic mirror updated inside every critical
  /// section — exact whenever the channel is quiescent, and never more than
  /// one operation stale under contention).
  std::size_t size() const { return size_.load(std::memory_order_acquire); }

  std::size_t capacity() const { return capacity_; }

  bool empty() const { return size() == 0; }

  /// Remove up to `n` items from the back of the queue (most recently
  /// enqueued first). Used by the farm load-balancer to redistribute queued
  /// tasks away from a backlogged worker.
  std::deque<T> steal_back(std::size_t n) {
    return steal_back_while(n, [](const T&) { return true; });
  }

  /// As steal_back(), but stops at the first item (counting from the back)
  /// that `movable` rejects: that item and everything ahead of it stay
  /// queued, in order.
  template <class Pred>
  std::deque<T> steal_back_while(std::size_t n, Pred movable) {
    std::deque<T> out;
    {
      MutexLock lk(mu_);
      while (n-- > 0 && !q_.empty() && movable(q_.back())) {
        out.push_front(std::move(q_.back()));
        q_.pop_back();
      }
      size_.store(q_.size(), std::memory_order_release);
    }
    wake(not_full_.ref());
    return out;
  }

 private:
  /// Wall deadline of a blocking operation (none when `d` is empty), read
  /// from the clock only once the first locked attempt has failed.
  /// d <= 0 means "do not wait".
  class Deadline {
   public:
    Deadline() = default;
    explicit Deadline(SimDuration d) : d_(d) {}
    WaitClock::time_point get() {
      if (!resolved_) {
        at_ = !d_                  ? kNoDeadline
              : d_->count() <= 0.0 ? WaitClock::time_point::min()
                                   : WaitClock::now() + Clock::to_wall(*d_);
        resolved_ = true;
      }
      return at_;
    }

   private:
    std::optional<SimDuration> d_;
    WaitClock::time_point at_{};
    bool resolved_ = false;
  };

  ChannelStatus push_until(T& item, Deadline dl) {
    for (;;) {
      {
        MutexLock lk(mu_);
        if (closed_.load(std::memory_order_relaxed))
          return ChannelStatus::Closed;
        if (q_.size() < capacity_) {
          enqueue_locked(std::move(item));
          break;
        }
      }
      const WaitStatus st = await_space(dl.get());
      if (st == WaitStatus::TimedOut) return ChannelStatus::TimedOut;
    }
    wake(not_empty_.ref(), 1);
    return ChannelStatus::Ok;
  }

  ChannelStatus pop_until(T& out, Deadline dl) {
    for (;;) {
      {
        MutexLock lk(mu_);
        if (!q_.empty()) {
          out = std::move(q_.front());
          q_.pop_front();
          size_.store(q_.size(), std::memory_order_release);
          break;
        }
        if (closed_.load(std::memory_order_relaxed))
          return ChannelStatus::Closed;
      }
      if (await_item(dl.get()) == WaitStatus::TimedOut)
        return ChannelStatus::TimedOut;
    }
    wake(not_full_.ref(), 1);
    return ChannelStatus::Ok;
  }

  struct NoTake {
    void operator()(std::size_t) const {}
  };

  template <class OnTake = NoTake>
  ChannelStatus pop_n_until(std::vector<T>& out, std::size_t max,
                            Deadline dl, OnTake on_take = {}) {
    std::size_t take = 0;
    for (;;) {
      {
        MutexLock lk(mu_);
        if (!q_.empty()) {
          take = std::min(max == 0 ? 1 : max, q_.size());
          for (std::size_t i = 0; i < take; ++i) {
            out.push_back(std::move(q_.front()));
            q_.pop_front();
          }
          on_take(take);
          size_.store(q_.size(), std::memory_order_release);
          break;
        }
        if (closed_.load(std::memory_order_relaxed))
          return ChannelStatus::Closed;
      }
      if (await_item(dl.get()) == WaitStatus::TimedOut)
        return ChannelStatus::TimedOut;
    }
    wake(not_full_.ref(), take > 1 ? INT_MAX : 1);
    return ChannelStatus::Ok;
  }

  void enqueue_locked(T item) BSK_REQUIRES(mu_) {
    q_.push_back(std::move(item));
    size_.store(q_.size(), std::memory_order_release);
  }

  void set_closed(bool closed) {
    {
      MutexLock lk(mu_);
      closed_.store(closed, std::memory_order_release);
    }
    wake(not_empty_.ref());
    wake(not_full_.ref());
  }

  // The predicates read the lock-free mirrors; a Ready wait only means
  // "worth retrying under the lock".
  WaitStatus await_item(WaitClock::time_point deadline) {
    if (deadline == WaitClock::time_point::min()) return WaitStatus::TimedOut;
    return wait_item(
        not_empty_,
        [this] { return size_.load(std::memory_order_acquire) != 0; },
        [this] { return closed_.load(std::memory_order_acquire); }, deadline);
  }

  WaitStatus await_space(WaitClock::time_point deadline) {
    return wait_space(
        not_full_.ref(),
        [this] { return size_.load(std::memory_order_acquire) < capacity_; },
        [this] { return closed_.load(std::memory_order_acquire); }, deadline);
  }

  const std::size_t capacity_;
  mutable Mutex mu_{"Channel"};
  std::deque<T> q_ BSK_GUARDED_BY(mu_);
  std::atomic<std::size_t> size_{0};
  std::atomic<bool> closed_{false};  ///< written under mu_, read lock-free
  WaitWord not_empty_;
  WaitWord not_full_;
};

}  // namespace bsk::support
