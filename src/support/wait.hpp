#pragma once
// One wait ladder for every blocking hop.
//
// support::Channel and the net::ShmTransport rings both wait here. A
// waiter climbs three rungs:
//
//   1. spin   — up to kSpinRounds `pause`s: the peer is mid-write on
//               another core. No clock read on this rung.
//   2. poll   — sched_yield between condition checks, bounded by wall
//               time, only when the caller's deadline leaves the whole
//               window. It ends early once a yield comes back after more
//               than kPollPreempted: another thread held this core, and a
//               parked waiter gets a core back on its wake, where a polling
//               one waits for its turn.
//   3. park   — futex wait on the `seq` word in slices of kFutexSlice,
//               re-checking the condition after counting itself in
//               `waiters`.
//
// Two kinds of data wait use rung 2 differently:
//
//   - wait_item (Channel consumers) polls for up to kPollWindow, and only
//     after a sparse wait: the previous wait on the same word ended ready
//     after more than kSparseAfter and within kPollWindow. After a dense
//     wait it parks, so the producer batches while the consumer sleeps
//     instead of handing items over one at a time under the channel mutex;
//     after a slow or timed-out wait (a slow stream, an idle poller) it
//     parks, so an idle farm burns no CPU.
//   - wait_frame (shm ring readers) polls for up to kRingPollWindow after
//     every spin: the reader takes no lock, and a round trip in flight must
//     not park. The window stays short because each bskd session has a
//     serve thread reading its ring.
//
// Every rung re-checks the caller's stop condition (a closed channel or
// ring) and its deadline. Space waits (a full queue or ring: the consumer
// is a whole buffer behind) skip rungs 1 and 2 and park at once.
//
// The waker bumps `seq` and pays for FUTEX_WAKE only when `waiters` is
// non-zero. Lost-wakeup argument: a waiter reads `seq` before its last
// condition check and the kernel parks it only if `seq` still holds that
// value. The waker's seq_cst bump and `waiters` load against the waiter's
// seq_cst increment and the kernel's barriered `seq` read form a
// store-buffering pair, so either the kernel sees the bump or the waker
// sees the count. The waker subtracts the waiters FUTEX_WAKE reports woken
// (the kernel returns 0 from FUTEX_WAIT exactly for those), so pushes that
// follow before they run skip the syscall; a waiter whose FUTEX_WAIT
// returns anything else leaves the count itself. bsk-verify --wake
// (analysis/mc/wake_model.hpp) explores this protocol step by step, with
// seeded defects it must catch. A park slice that times out and then finds
// its condition true is counted
// (bsk_support_wait_slice_timeouts_with_data_total once obs is linked): it is
// a wake-up that was due and never came.
//
// The `seq`/`waiters` pair may live in a shared mapping (the shm RingCtl
// words, WaitScope::Shared, non-private futex ops); the poll hint of a
// Channel word is process-private.

#include <linux/futex.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdint>
#include <ctime>

namespace bsk::support {

using WaitClock = std::chrono::steady_clock;
inline constexpr WaitClock::time_point kNoDeadline =
    WaitClock::time_point::max();

enum class WaitStatus {
  Ready,    ///< the condition held
  Stopped,  ///< the stop predicate (or park hook) fired first
  TimedOut  ///< the deadline passed first
};

/// Futex addressing: Private for words in this process's memory, Shared for
/// words in a MAP_SHARED segment that another process wakes.
enum class WaitScope { Private, Shared };

/// Rung 1: busy `pause`s before the first clock read. 64 pauses take ~1 µs
/// (4-core Xeon VM) — long enough to catch a peer that is mid-publish.
inline constexpr int kSpinRounds = 64;

/// Rung 2 for Channel items: the hop it saves is a cold futex wake of an
/// idle vCPU, which a light stream (2k tasks/s, items 0.5–1 ms apart per
/// hop) pays on every hop (EXPERIMENTS.md E16b gives the latency and the
/// CPU it trades). A wait longer than the window does not enable the next
/// poll: without that rule the adapt workload (300–750 tasks/s) burned
/// 40–47 CPU seconds per run instead of 2–3, at the same latency.
inline constexpr std::chrono::microseconds kPollWindow{1000};

/// A Channel wait that ended within this is dense, and the next one parks
/// after the spin: polling there cost BM_FarmSteadyStateThroughput
/// 22 / 30 / 16 % at 1 / 4 / 8 workers (median of 3 runs, 4-core VM).
inline constexpr std::chrono::microseconds kSparseAfter{50};

/// Rung 2 for shm ring frames, about what the ring's earlier 256 yields
/// took. With kPollWindow here, bskd's serve threads (one per session)
/// outlived their sessions by milliseconds under session churn, and
/// BskdSoak.ShmSessionChurnReturnsToBaseline failed 3 runs in 25 on the
/// address space the overlapping threads left behind; at 150 µs, 0 in 25.
inline constexpr std::chrono::microseconds kRingPollWindow{150};

/// A yield that comes back later than this ran another thread's slice
/// (between waiting threads a yield takes ~0.5 µs). With one busy thread
/// per core, a 100 µs timed pop that polled returned after 2.9 ms at the
/// median, one that parked after 0.16 ms (4-core VM).
inline constexpr std::chrono::microseconds kPollPreempted{100};

/// Rung 3: longest single futex sleep. Short enough that a missed wake or a
/// peer that died without closing is noticed by the stop re-check.
inline constexpr std::chrono::milliseconds kFutexSlice{50};

/// The futex protocol words of one condition: `seq`, bumped by every wake,
/// and `waiters`, the number of threads parked (or about to park) on it.
struct WaitRef {
  std::atomic<std::uint32_t>& seq;
  std::atomic<std::uint32_t>& waiters;
  WaitScope scope;
};

/// A process-private wait word on its own cache line, with the hint that
/// the next wait on it runs the poll rung.
struct alignas(64) WaitWord {
  std::atomic<std::uint32_t> seq{0};
  std::atomic<std::uint32_t> waiters{0};
  std::atomic<bool> poll_next{false};

  WaitRef ref() { return {seq, waiters, WaitScope::Private}; }
};

namespace wait_detail {

static_assert(std::atomic<std::uint32_t>::is_always_lock_free &&
              sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t));

inline std::atomic<void (*)()> g_slice_timeout_sink{nullptr};

inline long futex(std::atomic<std::uint32_t>& word, int op,
                  std::uint32_t val, const timespec* ts) {
  return ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word), op,
                   val, ts, nullptr, 0);
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

struct NoHook {
  bool operator()() const { return false; }
};

/// Rung 1. TimedOut means "not yet": the spin ran out.
template <class Ready, class Stop>
WaitStatus spin(Ready& ready, Stop& stop) {
  for (int i = 0; i < kSpinRounds; ++i) {
    if (ready()) return WaitStatus::Ready;
    if (stop()) return WaitStatus::Stopped;
    cpu_relax();
  }
  return WaitStatus::TimedOut;
}

/// Rung 2 from `start` (now) for `window`, if `deadline` leaves all of it.
/// TimedOut means "not yet": park next.
template <class Ready, class Stop>
WaitStatus poll(Ready& ready, Stop& stop, WaitClock::time_point start,
                WaitClock::duration window, WaitClock::time_point deadline) {
  if (start + window > deadline) return WaitStatus::TimedOut;
  const auto until = start + window;
  for (auto now = start, last = start;; last = now) {
    if (ready()) return WaitStatus::Ready;
    if (stop()) return WaitStatus::Stopped;
    if (now >= until || now - last > kPollPreempted)
      return WaitStatus::TimedOut;
    ::sched_yield();
    now = WaitClock::now();
  }
}

/// Rung 3. Returns when ready, stopped (by `stop` or the park hook) or past
/// the deadline; `before_park` runs once per slice.
template <class Ready, class Stop, class BeforePark>
WaitStatus park(WaitRef w, Ready& ready, Stop& stop, BeforePark& before_park,
                WaitClock::time_point deadline) {
  const int op = w.scope == WaitScope::Private ? FUTEX_WAIT_PRIVATE
                                               : FUTEX_WAIT;
  for (;;) {
    const std::uint32_t seq = w.seq.load(std::memory_order_acquire);
    if (ready()) return WaitStatus::Ready;
    if (stop()) return WaitStatus::Stopped;
    const auto now = WaitClock::now();
    if (now >= deadline) return WaitStatus::TimedOut;
    if (before_park()) return WaitStatus::Stopped;
    const bool full_slice = now + kFutexSlice <= deadline;
    const auto slice = std::chrono::duration_cast<std::chrono::nanoseconds>(
        full_slice ? kFutexSlice : deadline - now);
    const timespec ts{static_cast<std::time_t>(slice.count() / 1'000'000'000),
                      static_cast<long>(slice.count() % 1'000'000'000)};
    w.waiters.fetch_add(1);
    if (ready()) {
      w.waiters.fetch_sub(1);
      continue;
    }
    // 0: a waker dequeued us and took us off the count; otherwise (seq
    // moved, timeout, signal) we leave it ourselves.
    if (futex(w.seq, op, seq, &ts) == 0) continue;
    const bool timed_out = errno == ETIMEDOUT;
    w.waiters.fetch_sub(1);
    // Only a full slice counts: one cut short by the caller's deadline may
    // simply have lost a race with a wake that was on its way.
    if (timed_out && full_slice && ready())
      if (auto* sink = g_slice_timeout_sink.load(std::memory_order_acquire))
        sink();
  }
}

}  // namespace wait_detail

/// Route the count of park slices that timed out with their condition
/// already true to `sink` (obs installs its counter here).
inline void set_slice_timeout_sink(void (*sink)()) noexcept {
  wait_detail::g_slice_timeout_sink.store(sink, std::memory_order_release);
}

/// Wait for the next Channel item on the full ladder. `ready` and `stop`
/// are cheap lock-free predicates checked on every rung; the word's
/// poll_next hint is updated from the wait observed here.
template <class Ready, class Stop>
WaitStatus wait_item(WaitWord& w, Ready ready, Stop stop,
                     WaitClock::time_point deadline) {
  WaitStatus st = wait_detail::spin(ready, stop);
  if (st != WaitStatus::TimedOut) {
    if (st == WaitStatus::Ready && w.poll_next.load(std::memory_order_relaxed))
      w.poll_next.store(false, std::memory_order_relaxed);  // dense
    return st;
  }
  const auto start = WaitClock::now();
  if (w.poll_next.load(std::memory_order_relaxed))
    st = wait_detail::poll(ready, stop, start, kPollWindow, deadline);
  if (st == WaitStatus::TimedOut) {
    wait_detail::NoHook no_hook;
    st = wait_detail::park(w.ref(), ready, stop, no_hook, deadline);
  }
  if (st != WaitStatus::Stopped) {
    const auto waited = WaitClock::now() - start;
    w.poll_next.store(st == WaitStatus::Ready && waited > kSparseAfter &&
                          waited <= kPollWindow,
                      std::memory_order_relaxed);
  }
  return st;
}

/// Wait for the next shm ring frame: spin, poll kRingPollWindow, park.
/// `before_park` (may stop the wait) runs once before each park slice, for
/// checks too costly to run while polling.
template <class Ready, class Stop, class BeforePark>
WaitStatus wait_frame(WaitRef w, Ready ready, Stop stop,
                      WaitClock::time_point deadline,
                      BeforePark before_park) {
  WaitStatus st = wait_detail::spin(ready, stop);
  if (st == WaitStatus::TimedOut)
    st = wait_detail::poll(ready, stop, WaitClock::now(), kRingPollWindow,
                           deadline);
  if (st == WaitStatus::TimedOut)
    st = wait_detail::park(w, ready, stop, before_park, deadline);
  return st;
}

/// Wait for a space condition (room in a full queue or ring): park at once.
template <class Ready, class Stop, class BeforePark = wait_detail::NoHook>
WaitStatus wait_space(WaitRef w, Ready ready, Stop stop,
                      WaitClock::time_point deadline,
                      BeforePark before_park = {}) {
  return wait_detail::park(w, ready, stop, before_park, deadline);
}

/// Publish a change to the condition `w` guards (after the change itself
/// is visible): bump `seq`, and wake up to `n` parked waiters if any are
/// counted.
inline void wake(WaitRef w, int n = INT_MAX) {
  w.seq.fetch_add(1);
  if (w.waiters.load() == 0) return;
  const long woken = wait_detail::futex(
      w.seq,
      w.scope == WaitScope::Private ? FUTEX_WAKE_PRIVATE : FUTEX_WAKE,
      static_cast<std::uint32_t>(n), nullptr);
  if (woken > 0) w.waiters.fetch_sub(static_cast<std::uint32_t>(woken));
}

}  // namespace bsk::support
