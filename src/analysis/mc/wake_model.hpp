#pragma once
// wake_model: the wait ladder's park/wake protocol (support/wait.hpp) under
// the explorer.
//
// A step-for-step model of wait_detail::park() and wake() around a
// Channel-style queue: consumers pop under the channel lock and park on
// the item word when it is empty; producers push one item each and wake
// one parked waiter; an optional closer sets the closed flag and wakes
// them all. Every shared access of the shipped code is one action —
//
//   consumer  lock (pop or see closed) -> load seq -> check ready/stop
//             -> waiters += 1 -> re-check ready (-> waiters -= 1)
//             -> FUTEX_WAIT(seq == loaded) -> parked | waiters -= 1
//   waker     lock (push or close) -> seq += 1 -> load waiters
//             -> FUTEX_WAKE(n) -> waiters -= woken
//
// — and the kernel's FUTEX_WAIT compare-and-enqueue and FUTEX_WAKE dequeue
// are atomic, as the kernel makes them. All the protocol's atomics are
// seq_cst, so interleaving them is the whole memory model. The slice is
// infinite: a park ends only on a wake, so a lost wake-up is a waiter
// parked forever, not a 50 ms stall.
//
// Properties:
//   1. no lost wake-up — in every final state no waiter is parked while
//      its channel holds an item or is closed
//   2. a parked waiter is always counted — `waiters` never drops below
//      the number of parked waiters (a waker reading 0 skips FUTEX_WAKE)
//   3. no count leak — in every final state `waiters` equals the number
//      of parked waiters (wakers subtract exactly the waiters they woke)
//
// The re-check after the increment is not needed for 1–3: the seq compare
// inside FUTEX_WAIT already catches a wake that lands after the check; the
// re-check only saves that syscall (the model passes without it). The
// seeded defects break what the protocol does depend on.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/mc/explorer.hpp"

namespace bsk::analysis::mc {

enum class WakeDefect : std::uint8_t {
  None,
  /// The waiter loads `seq` after its condition checks, just before the
  /// FUTEX_WAIT: a wake between the check and the park is lost.
  LateSeq,
  /// A woken waiter also leaves the count itself, on top of its waker's
  /// subtraction: the count drifts below the parked waiters.
  DoubleLeave,
};

struct WakeOptions {
  std::size_t consumers = 2;  ///< threads popping one item each
  std::size_t pushes = 2;     ///< producer threads pushing one item each
  bool close = true;          ///< a closer thread closes the channel
  WakeDefect defect = WakeDefect::None;
  std::size_t depth = 256;    ///< far above the longest run: exhaustive
};

class WakeModel {
 public:
  struct Consumer {
    enum Pc : std::uint8_t {
      Lock,     ///< pop under the channel lock, or see it closed
      LoadSeq,  ///< park loop top: seq = w.seq.load()
      Check,    ///< ready() / stop()
      Inc,      ///< waiters += 1
      Recheck,  ///< ready() again after counting itself
      Dec,      ///< waiters -= 1 (re-check saw an item)
      Futex,    ///< FUTEX_WAIT(seq, loaded)
      Parked,   ///< in the futex queue; only a wake moves it
      Leave,    ///< waiters -= 1 (FUTEX_WAIT returned EAGAIN)
      Done,
    } pc = Lock;
    std::uint8_t loaded_seq = 0;
  };

  struct Waker {
    enum Pc : std::uint8_t { Lock, Bump, LoadWaiters, Wake, Sub, Done } pc =
        Lock;
    bool closer = false;     ///< closes (wakes all) instead of pushing one
    std::uint8_t woken = 0;  ///< FUTEX_WAKE's return, until subtracted
  };

  struct State {
    int items = 0;
    bool closed = false;
    std::uint8_t seq = 0;
    int waiters = 0;
    std::vector<std::uint8_t> futex_queue;  ///< parked consumer ids
    std::vector<Consumer> consumers;
    std::vector<Waker> wakers;
    int popped = 0;  ///< ghost: items taken by consumers
    int pushed = 0;  ///< ghost: items pushed
  };

  struct Action {
    std::uint8_t thread = 0;  ///< consumers first, then wakers
    /// Wake actions with n = 1: which parked consumer the kernel picks
    /// (any of them, so the model does not lean on FIFO order).
    std::uint8_t pick = 0;
    std::uint8_t pc = 0;  ///< the thread's step when enabled (traces only)
  };

  explicit WakeModel(WakeOptions opt) : opt_(opt) {}

  State initial() const;
  std::vector<Action> enabled(const State& s) const;
  std::optional<Violation> apply(State& s, const Action& a) const;
  std::optional<Violation> check(const State& s) const;
  std::string fingerprint(const State& s) const;
  std::uint64_t action_key(const Action& a) const;
  bool independent(const Action& x, const Action& y) const;
  std::string describe(const Action& a) const;

 private:
  void step_consumer(State& s, std::size_t i) const;
  void step_waker(State& s, std::size_t i, std::uint8_t pick) const;

  WakeOptions opt_;
};

ExploreResult run_wake_explore(const WakeOptions& opt);

}  // namespace bsk::analysis::mc
