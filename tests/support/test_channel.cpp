// Bounded MPMC channel: FIFO order, capacity, close semantics, concurrency.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "support/channel.hpp"
#include "support/clock.hpp"

namespace bsk::support {
namespace {

TEST(Channel, FifoOrder) {
  Channel<int> ch(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ch.push(i));
  for (int i = 0; i < 5; ++i) {
    int v = -1;
    EXPECT_EQ(ch.pop(v), ChannelStatus::Ok);
    EXPECT_EQ(v, i);
  }
}

TEST(Channel, ZeroCapacityNormalizedToOne) {
  Channel<int> ch(0);
  EXPECT_EQ(ch.capacity(), 1u);
  EXPECT_TRUE(ch.try_push(1));
  EXPECT_FALSE(ch.try_push(2));
}

TEST(Channel, TryPushFailsWhenFull) {
  Channel<int> ch(2);
  EXPECT_TRUE(ch.try_push(1));
  EXPECT_TRUE(ch.try_push(2));
  EXPECT_FALSE(ch.try_push(3));
  EXPECT_EQ(ch.size(), 2u);
}

TEST(Channel, TryPopEmptyReturnsNullopt) {
  Channel<int> ch(2);
  EXPECT_FALSE(ch.try_pop().has_value());
  ch.push(7);
  const auto v = ch.try_pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
}

TEST(Channel, CloseDrainsThenReportsClosed) {
  Channel<int> ch(4);
  ch.push(1);
  ch.push(2);
  ch.close();
  int v = 0;
  EXPECT_EQ(ch.pop(v), ChannelStatus::Ok);
  EXPECT_EQ(v, 1);
  EXPECT_EQ(ch.pop(v), ChannelStatus::Ok);
  EXPECT_EQ(v, 2);
  EXPECT_EQ(ch.pop(v), ChannelStatus::Closed);
}

TEST(Channel, PushAfterCloseFails) {
  Channel<int> ch(4);
  ch.close();
  EXPECT_FALSE(ch.push(1));
  EXPECT_FALSE(ch.try_push(1));
  EXPECT_TRUE(ch.closed());
}

TEST(Channel, ReopenAllowsPushAgain) {
  Channel<int> ch(4);
  ch.close();
  ch.reopen();
  EXPECT_TRUE(ch.push(9));
  EXPECT_EQ(ch.size(), 1u);
}

TEST(Channel, CloseUnblocksWaitingConsumer) {
  Channel<int> ch(4);
  std::jthread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.close();
  });
  int v = 0;
  EXPECT_EQ(ch.pop(v), ChannelStatus::Closed);
}

TEST(Channel, CloseUnblocksWaitingProducer) {
  Channel<int> ch(1);
  ch.push(1);
  std::jthread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.close();
  });
  EXPECT_FALSE(ch.push(2));  // was blocked on full, then closed
}

TEST(Channel, PopForTimesOut) {
  ScopedClockScale guard(100.0);
  Channel<int> ch(4);
  int v = 0;
  EXPECT_EQ(ch.pop_for(v, SimDuration(0.5)), ChannelStatus::TimedOut);
}

TEST(Channel, PopForDeliversWhenAvailable) {
  ScopedClockScale guard(100.0);
  Channel<int> ch(4);
  ch.push(42);
  int v = 0;
  EXPECT_EQ(ch.pop_for(v, SimDuration(0.5)), ChannelStatus::Ok);
  EXPECT_EQ(v, 42);
}

TEST(Channel, StealBackTakesMostRecent) {
  Channel<int> ch(8);
  for (int i = 0; i < 6; ++i) ch.push(i);
  const auto stolen = ch.steal_back(2);
  ASSERT_EQ(stolen.size(), 2u);
  EXPECT_EQ(stolen[0], 4);  // preserved order among stolen items
  EXPECT_EQ(stolen[1], 5);
  EXPECT_EQ(ch.size(), 4u);
  int v = 0;
  ch.pop(v);
  EXPECT_EQ(v, 0);  // front untouched
}

TEST(Channel, StealBackMoreThanSizeTakesAll) {
  Channel<int> ch(8);
  ch.push(1);
  const auto stolen = ch.steal_back(10);
  EXPECT_EQ(stolen.size(), 1u);
  EXPECT_TRUE(ch.empty());
}

TEST(Channel, StealBackWhileStopsAtFirstRejected) {
  Channel<int> ch(8);
  for (int v : {1, 2, -1, 3, 4}) ch.push(v);
  const auto stolen = ch.steal_back_while(10, [](int v) { return v > 0; });
  ASSERT_EQ(stolen.size(), 2u);
  EXPECT_EQ(stolen[0], 3);
  EXPECT_EQ(stolen[1], 4);
  ASSERT_EQ(ch.size(), 3u);
  // The rejected item is now the back and is not taken on a second call.
  EXPECT_TRUE(ch.steal_back_while(10, [](int v) { return v > 0; }).empty());
  int v = 0;
  for (int want : {1, 2, -1}) {
    ch.pop(v);
    EXPECT_EQ(v, want);
  }
}

TEST(Channel, MpmcAllItemsDeliveredExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 500;
  Channel<int> ch(16);
  std::mutex mu;
  std::multiset<int> seen;

  std::vector<std::jthread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      int v = 0;
      while (ch.pop(v) == ChannelStatus::Ok) {
        std::scoped_lock lk(mu);
        seen.insert(v);
      }
    });
  }
  {
    std::vector<std::jthread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < kPerProducer; ++i)
          ASSERT_TRUE(ch.push(p * kPerProducer + i));
      });
    }
  }  // join producers
  ch.close();
  consumers.clear();  // join consumers

  EXPECT_EQ(seen.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  for (int x = 0; x < kProducers * kPerProducer; ++x)
    EXPECT_EQ(seen.count(x), 1u) << "item " << x;
}

// --------------------------------------------------- shutdown/close races

TEST(Channel, CloseRacingBlockedProducersReleasesAllOfThem) {
  // Producers blocked on a full channel must all return (not deadlock)
  // when the channel closes under them, and nothing may be delivered
  // twice: items the push reported true for are in the queue, the rest
  // are dropped.
  Channel<int> ch(2);
  std::atomic<int> accepted{0};
  {
    std::vector<std::jthread> producers;
    for (int p = 0; p < 6; ++p)
      producers.emplace_back([&ch, &accepted, p] {
        for (int i = 0; i < 10; ++i)
          if (ch.push(p * 10 + i)) accepted.fetch_add(1);
      });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.close();
  }  // all producers must join

  std::set<int> seen;
  int v = 0;
  while (ch.pop(v) == ChannelStatus::Ok) EXPECT_TRUE(seen.insert(v).second);
  EXPECT_EQ(static_cast<int>(seen.size()), accepted.load());
}

TEST(Channel, CloseRacingBlockedConsumersReleasesAllOfThem) {
  Channel<int> ch(4);
  std::atomic<int> closed_seen{0};
  {
    std::vector<std::jthread> consumers;
    for (int c = 0; c < 6; ++c)
      consumers.emplace_back([&ch, &closed_seen] {
        int v = 0;
        while (ch.pop(v) == ChannelStatus::Ok) {
        }
        closed_seen.fetch_add(1);
      });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.close();
  }
  EXPECT_EQ(closed_seen.load(), 6);
}

TEST(Channel, ConcurrentPushPopCloseDeliversAcceptedItemsExactlyOnce) {
  // Full-contention shutdown: producers, consumers, and a closer all race.
  // Invariant: every item whose push returned true is popped exactly once;
  // afterwards every consumer observes Closed.
  Channel<int> ch(8);
  std::atomic<int> accepted{0};
  std::atomic<int> popped{0};
  std::mutex seen_mu;
  std::set<int> seen;
  {
    std::vector<std::jthread> threads;
    for (int p = 0; p < 4; ++p)
      threads.emplace_back([&, p] {
        for (int i = 0; i < 500; ++i)
          if (ch.push(p * 500 + i)) accepted.fetch_add(1);
      });
    for (int c = 0; c < 4; ++c)
      threads.emplace_back([&] {
        int v = 0;
        while (ch.pop(v) == ChannelStatus::Ok) {
          popped.fetch_add(1);
          std::scoped_lock lk(seen_mu);
          EXPECT_TRUE(seen.insert(v).second) << "duplicate " << v;
        }
      });
    threads.emplace_back([&ch] {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      ch.close();
    });
  }
  EXPECT_EQ(popped.load(), accepted.load());
  EXPECT_EQ(static_cast<int>(seen.size()), accepted.load());
}

TEST(Channel, PopForRacingCloseNeverHangsAndEndsClosed) {
  Channel<int> ch(4);
  ch.push(1);
  std::jthread closer([&ch] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ch.close();
  });
  // Outcomes may interleave any way, but the sequence must terminate with
  // Closed (never TimedOut once closed-and-drained) and never block past
  // its timeout.
  int v = 0;
  for (;;) {
    const ChannelStatus st = ch.pop_for(v, SimDuration(0.05));
    if (st == ChannelStatus::Closed) break;
    if (st == ChannelStatus::Ok) EXPECT_EQ(v, 1);
  }
  EXPECT_EQ(ch.pop_for(v, SimDuration(0.01)), ChannelStatus::Closed);
}

TEST(Channel, StealBackRacingCloseLosesNothing) {
  Channel<int> ch(64);
  for (int i = 0; i < 32; ++i) ch.push(i);
  std::deque<int> stolen;
  {
    std::jthread stealer([&] { stolen = ch.steal_back(16); });
    std::jthread closer([&ch] { ch.close(); });
  }
  std::set<int> seen(stolen.begin(), stolen.end());
  int v = 0;
  while (ch.pop(v) == ChannelStatus::Ok)
    EXPECT_TRUE(seen.insert(v).second) << "duplicate " << v;
  EXPECT_EQ(seen.size(), 32u);
}

// ------------------------------------------------------------- batched ops

TEST(Channel, PushNDeliversWholeBatchInOrder) {
  Channel<int> ch(16);
  std::vector<int> batch{1, 2, 3, 4, 5};
  EXPECT_EQ(ch.push_n(batch), 5u);
  EXPECT_EQ(ch.size(), 5u);
  for (int want = 1; want <= 5; ++want) {
    int v = 0;
    EXPECT_EQ(ch.pop(v), ChannelStatus::Ok);
    EXPECT_EQ(v, want);
  }
}

TEST(Channel, PushNLargerThanCapacityBlocksInChunks) {
  // A batch bigger than the whole channel must still go through — the
  // producer waits for space chunk by chunk while a consumer drains.
  Channel<int> ch(4);
  std::vector<int> batch(64);
  std::iota(batch.begin(), batch.end(), 0);
  std::jthread consumer([&ch] {
    int expect = 0;
    int v = 0;
    while (ch.pop(v) == ChannelStatus::Ok) EXPECT_EQ(v, expect++);
    EXPECT_EQ(expect, 64);
  });
  EXPECT_EQ(ch.push_n(batch), 64u);
  ch.close();
}

TEST(Channel, PushNOnClosedChannelAcceptsNothing) {
  Channel<int> ch(8);
  ch.close();
  std::vector<int> batch{1, 2, 3};
  EXPECT_EQ(ch.push_n(batch), 0u);
}

TEST(Channel, PopNDrainsUpToMaxUnderOneCall) {
  Channel<int> ch(16);
  for (int i = 0; i < 10; ++i) ch.push(i);
  std::vector<int> out;
  EXPECT_EQ(ch.pop_n(out, 4), ChannelStatus::Ok);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.front(), 0);
  EXPECT_EQ(out.back(), 3);
  EXPECT_EQ(ch.size(), 6u);
  // Appends — does not clear what the caller already holds.
  EXPECT_EQ(ch.pop_n(out, 100), ChannelStatus::Ok);
  EXPECT_EQ(out.size(), 10u);
  EXPECT_EQ(out.back(), 9);
}

TEST(Channel, PopNOnClosedDrainedChannelReportsClosed) {
  Channel<int> ch(8);
  ch.push(1);
  ch.close();
  std::vector<int> out;
  EXPECT_EQ(ch.pop_n(out, 8), ChannelStatus::Ok);  // drains the survivor
  EXPECT_EQ(ch.pop_n(out, 8), ChannelStatus::Closed);
}

TEST(Channel, PopNForTimesOutOnEmpty) {
  ScopedClockScale guard(100.0);
  Channel<int> ch(8);
  std::vector<int> out;
  EXPECT_EQ(ch.pop_n_for(out, 8, SimDuration(0.5)), ChannelStatus::TimedOut);
  EXPECT_TRUE(out.empty());
}

TEST(Channel, PushForTimesOutOnFullWithoutConsumingItem) {
  ScopedClockScale guard(100.0);
  Channel<int> ch(1);
  ch.push(1);
  int item = 42;
  EXPECT_EQ(ch.push_for(item, SimDuration(0.2)), ChannelStatus::TimedOut);
  EXPECT_EQ(item, 42);  // still owned by the caller, free to retry elsewhere
  int v = 0;
  ch.pop(v);
  EXPECT_EQ(ch.push_for(item, SimDuration(0.2)), ChannelStatus::Ok);
  EXPECT_EQ(ch.pop(v), ChannelStatus::Ok);
  EXPECT_EQ(v, 42);
}

TEST(Channel, PushForZeroDurationIsPureTry) {
  Channel<int> ch(1);
  int a = 1;
  EXPECT_EQ(ch.push_for(a, SimDuration(0.0)), ChannelStatus::Ok);
  int b = 2;
  EXPECT_EQ(ch.push_for(b, SimDuration(0.0)), ChannelStatus::TimedOut);
  EXPECT_EQ(b, 2);
}

TEST(Channel, ReopenWakesBlockedProducersAndConsumers) {
  // Satellite regression: reopen() must notify waiters, not just clear the
  // flag — a producer parked on the not-full CV after close() consumed the
  // notification would otherwise sleep forever.
  Channel<int> ch(1);
  ch.push(1);  // full
  std::atomic<bool> produced{false};
  std::jthread producer([&] {
    int v = 2;
    // Waits on not-full; close() fails it fast, reopen() must wake it to
    // see the (reopened, still-full) state rather than hang.
    while (ch.push_for(v, SimDuration(60.0)) != ChannelStatus::Ok) {
      if (produced.load()) return;
    }
    produced.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ch.close();    // releases the producer with Closed
  ch.reopen();   // must notify so a re-entered wait re-evaluates
  int v = 0;
  EXPECT_EQ(ch.pop(v), ChannelStatus::Ok);  // frees a slot
  EXPECT_EQ(v, 1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!produced.load() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(produced.load());
}

TEST(Channel, MpmcBatchedStressDeliversEverythingExactlyOnce) {
  // Batched producers and consumers race steal_back and a late close; every
  // accepted item must surface exactly once (popped or stolen).
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 400;
  constexpr int kBatch = 16;
  Channel<int> ch(32);
  std::atomic<int> accepted{0};
  std::mutex mu;
  std::multiset<int> seen;
  auto record = [&](int v) {
    std::scoped_lock lk(mu);
    seen.insert(v);
  };

  {
    std::vector<std::jthread> threads;
    for (int p = 0; p < kProducers; ++p)
      threads.emplace_back([&, p] {
        std::vector<int> batch;
        for (int base = 0; base < kPerProducer; base += kBatch) {
          batch.clear();
          for (int i = 0; i < kBatch; ++i)
            batch.push_back(p * kPerProducer + base + i);
          accepted.fetch_add(static_cast<int>(ch.push_n(batch)));
        }
      });
    for (int c = 0; c < kConsumers; ++c)
      threads.emplace_back([&] {
        std::vector<int> got;
        while (ch.pop_n(got, 8) == ChannelStatus::Ok) {
          for (int v : got) record(v);
          got.clear();
        }
      });
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        for (int v : ch.steal_back(4)) record(v);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      ch.close();
    });
  }  // join everything; consumers drain then see Closed

  // Items accepted after close() raced in are still in the queue: drain.
  std::vector<int> rest;
  while (ch.pop_n(rest, 64) == ChannelStatus::Ok) {
    for (int v : rest) record(v);
    rest.clear();
  }

  EXPECT_EQ(seen.size(), static_cast<std::size_t>(accepted.load()));
  for (const int v : seen) EXPECT_EQ(seen.count(v), 1u) << "duplicate " << v;
}

// ---------------------------------------------------------------- wait ladder
//
// The channel waits through support/wait.hpp: spin, a wall-bounded poll
// rung while the stream is sparse, then a futex park. A lost wake-up costs
// a 50 ms park slice, so every bound below is well under it.

using WallClock = std::chrono::steady_clock;

double ms_between(WallClock::time_point t0, WallClock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double ms_since(WallClock::time_point t0) {
  return ms_between(t0, WallClock::now());
}

/// Make the channel's consumer word sparse: a pop that waits longer than
/// the sparse threshold (but not past the poll window) for its item sends
/// the next wait to the poll rung.
void make_sparse(Channel<int>& ch) {
  std::jthread late([&ch] {
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    ch.push(0);
  });
  int v = -1;
  ASSERT_EQ(ch.pop(v), ChannelStatus::Ok);
}

TEST(Channel, CloseWakesAPollingAndAParkedConsumerWithin10ms) {
  // Poll rung: the word is sparse, so the pop polls for up to 1 ms;
  // close() lands 200 µs in. Park rung: a fresh word parks right after the
  // spin, and close() lands 20 ms later.
  for (const bool polling : {true, false}) {
    Channel<int> ch(4);
    if (polling) make_sparse(ch);
    std::atomic<bool> entered{false};
    std::atomic<ChannelStatus> st{ChannelStatus::Ok};
    WallClock::time_point returned{};
    std::jthread consumer([&] {
      int v = 0;
      entered.store(true);
      st.store(ch.pop(v));
      returned = WallClock::now();
    });
    while (!entered.load()) std::this_thread::yield();
    std::this_thread::sleep_for(polling ? std::chrono::microseconds(200)
                                         : std::chrono::microseconds(20000));
    const auto t0 = WallClock::now();
    ch.close();
    consumer.join();
    EXPECT_EQ(st.load(), ChannelStatus::Closed) << "polling=" << polling;
    EXPECT_LT(ms_between(t0, returned), 10.0) << "polling=" << polling;
  }
}

TEST(Channel, ReopenLeavesBlockedProducersAndConsumersWakeable) {
  // A consumer parked on an empty channel and a producer parked on a full
  // one both see close()+reopen() and wait again; the next push / pop must
  // still reach them promptly.
  Channel<int> in(4);
  Channel<int> full(1);
  ASSERT_TRUE(full.push(0));
  std::atomic<bool> got{false}, put{false};
  std::jthread consumer([&] {
    int v = 0;
    while (in.pop(v) != ChannelStatus::Ok) {
    }
    got.store(true);
  });
  std::jthread producer([&] {
    int v = 1;
    while (full.push_for(v, SimDuration(60.0)) != ChannelStatus::Ok) {
    }
    put.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  in.close();
  full.close();
  in.reopen();
  full.reopen();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const auto t0 = WallClock::now();
  ASSERT_TRUE(in.push(7));
  int v = -1;
  ASSERT_EQ(full.pop(v), ChannelStatus::Ok);
  consumer.join();
  producer.join();
  EXPECT_TRUE(got.load());
  EXPECT_TRUE(put.load());
  EXPECT_LT(ms_since(t0), 25.0);
}

TEST(Channel, StealBackWakesAProducerBlockedOnAFullChannel) {
  Channel<int> ch(2);
  ASSERT_TRUE(ch.push(1));
  ASSERT_TRUE(ch.push(2));
  WallClock::time_point pushed{};
  std::jthread producer([&] {
    EXPECT_TRUE(ch.push(3));
    pushed = WallClock::now();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto t0 = WallClock::now();
  EXPECT_EQ(ch.steal_back(1).size(), 1u);
  producer.join();
  EXPECT_LT(ms_between(t0, pushed), 25.0);
  EXPECT_EQ(ch.size(), 2u);
}

TEST(Channel, TimedOpsShorterThanThePollWindowReturnOnTime) {
  // 100 µs deadlines on an empty channel whose stream is sparse (a longer
  // wait would poll) or on a full one: TimedOut within the deadline plus
  // 2 ms. A deadline shorter than the poll window parks on a timed futex
  // at once: a poller that loses its core gets it back only on its turn.
  // The best of three tries must meet the bound: the host can stall any
  // one timed wake-up by a few ms, but an overrun built into the ladder
  // (a full poll window, a park slice) shows in every try.
  constexpr double kLimitMs = 0.1 + 2.0;
  const SimDuration d(100e-6);
  Channel<int> ch(1);
  double pop_ms = 1e9, pop_n_ms = 1e9, push_ms = 1e9;
  for (int i = 0; i < 3; ++i) {
    make_sparse(ch);
    int v = 0;
    auto t0 = WallClock::now();
    EXPECT_EQ(ch.pop_for(v, d), ChannelStatus::TimedOut);
    pop_ms = std::min(pop_ms, ms_since(t0));

    make_sparse(ch);
    std::vector<int> out;
    t0 = WallClock::now();
    EXPECT_EQ(ch.pop_n_for(out, 8, d), ChannelStatus::TimedOut);
    pop_n_ms = std::min(pop_n_ms, ms_since(t0));
    EXPECT_TRUE(out.empty());

    ASSERT_TRUE(ch.push(1));  // full
    int item = 2;
    t0 = WallClock::now();
    EXPECT_EQ(ch.push_for(item, d), ChannelStatus::TimedOut);
    push_ms = std::min(push_ms, ms_since(t0));
    EXPECT_EQ(item, 2);
    ASSERT_EQ(ch.pop(v), ChannelStatus::Ok);  // empty again
  }
  EXPECT_LT(pop_ms, kLimitMs);
  EXPECT_LT(pop_n_ms, kLimitMs);
  EXPECT_LT(push_ms, kLimitMs);
}

}  // namespace
}  // namespace bsk::support
