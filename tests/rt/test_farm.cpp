// Farm: correctness under every policy/collection mode, ordering, reduce.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <numeric>
#include <set>
#include <thread>
#include <type_traits>

#include "rt/farm.hpp"
#include "support/clock.hpp"

namespace bsk::rt {
namespace {

using support::ScopedClockScale;

NodeFactory identity_workers() {
  return [] {
    return std::make_unique<LambdaNode>(
        [](Task t) { return std::optional<Task>{std::move(t)}; });
  };
}

/// Push n data tasks into the farm and close the stream.
void feed(Farm& f, std::size_t n, double work_s = 0.0) {
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_TRUE(f.input()->push(Task::data(i, work_s)));
  f.input()->close();
}

/// Drain the farm output, returning ids in arrival order.
std::vector<std::uint64_t> drain_ids(Farm& f) {
  std::vector<std::uint64_t> ids;
  Task t;
  while (f.output()->pop(t) == support::ChannelStatus::Ok) ids.push_back(t.id);
  return ids;
}

TEST(Farm, ProcessesAllTasksRoundRobin) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 4;
  Farm f("f", cfg, identity_workers());
  f.start();
  feed(f, 100);
  f.wait();
  const auto ids = drain_ids(f);
  EXPECT_EQ(ids.size(), 100u);
  EXPECT_EQ(std::set<std::uint64_t>(ids.begin(), ids.end()).size(), 100u);
}

/// CPU seconds (user + system) this process has used so far.
double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

TEST(Farm, IdleFarmWithOpenInputBurnsNoCpu) {
  // A sparse trickle first, so every wait word is primed for the poll
  // rung; then the input stays open and empty. Once the poll window has
  // passed every waiter must be parked, and a timed pop that keeps timing
  // out (the collector's) must go straight back to the park rung.
  FarmConfig cfg;
  cfg.initial_workers = 4;
  Farm f("idle", cfg, identity_workers());
  f.start();
  for (std::uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(f.input()->push(Task::data(i, 0.0)));
    Task t;
    ASSERT_EQ(f.output()->pop(t), support::ChannelStatus::Ok);
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const double cpu0 = process_cpu_s();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const double burnt_ms = 1e3 * (process_cpu_s() - cpu0);
  f.input()->close();
  f.wait();
  EXPECT_LT(burnt_ms, 30.0);
}

TEST(Farm, ProcessesAllTasksOnDemand) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 3;
  cfg.policy = SchedPolicy::OnDemand;
  Farm f("f", cfg, identity_workers());
  f.start();
  feed(f, 60, 0.001);
  f.wait();
  EXPECT_EQ(drain_ids(f).size(), 60u);
}

TEST(Farm, BroadcastDeliversToEveryWorker) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 3;
  cfg.policy = SchedPolicy::Broadcast;
  Farm f("f", cfg, identity_workers());
  f.start();
  feed(f, 10);
  f.wait();
  EXPECT_EQ(drain_ids(f).size(), 30u);  // every task × every worker
}

TEST(Farm, OrderedGatherPreservesEmissionOrder) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 4;
  cfg.ordered = true;
  // Random per-task delays would reorder an unordered farm.
  Farm f("f", cfg, [] {
    return std::make_unique<LambdaNode>([](Task t) {
      support::Clock::sleep_for(
          support::SimDuration((t.id % 3) * 0.01));
      return std::optional<Task>{std::move(t)};
    });
  });
  f.start();
  feed(f, 50);
  f.wait();
  const auto ids = drain_ids(f);
  ASSERT_EQ(ids.size(), 50u);
  for (std::size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i);
}

TEST(Farm, ReduceFoldsResults) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 4;
  cfg.collect = CollectMode::Reduce;
  cfg.reducer = [](Task a, Task b) {
    a.work_s += b.work_s;
    return a;
  };
  Farm f("f", cfg, identity_workers());
  f.start();
  for (int i = 1; i <= 10; ++i)
    ASSERT_TRUE(f.input()->push(Task::data(i, static_cast<double>(i))));
  f.input()->close();
  f.wait();
  Task t;
  ASSERT_EQ(f.output()->pop(t), support::ChannelStatus::Ok);
  EXPECT_DOUBLE_EQ(t.work_s, 55.0);
  EXPECT_EQ(f.output()->pop(t), support::ChannelStatus::Closed);
}

TEST(Farm, FilteringWorkersShrinkStream) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 2;
  Farm f("f", cfg, [] {
    return std::make_unique<LambdaNode>([](Task t) -> std::optional<Task> {
      if (t.id % 2 == 0) return std::nullopt;
      return t;
    });
  });
  f.start();
  feed(f, 20);
  f.wait();
  EXPECT_EQ(drain_ids(f).size(), 10u);
}

TEST(Farm, WorkerCountTracksConfig) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 5;
  Farm f("f", cfg, identity_workers());
  f.start();
  EXPECT_EQ(f.worker_count(), 5u);
  EXPECT_EQ(f.running_workers(), 5u);
  feed(f, 1);
  f.wait();
  EXPECT_EQ(f.running_workers(), 0u);
}

TEST(Farm, StatefulWorkersGetIndependentState) {
  ScopedClockScale fast(500.0);
  // Each worker counts its own tasks; with one shared node this would race.
  class Counter : public Node {
   public:
    void on_start() override { count_ = 0; }
    std::optional<Task> process(Task t) override {
      ++count_;
      t.work_s = static_cast<double>(count_);
      return t;
    }

   private:
    int count_ = 0;
  };
  FarmConfig cfg;
  cfg.initial_workers = 4;
  Farm f("f", cfg, [] { return std::make_unique<Counter>(); });
  f.start();
  feed(f, 40);
  f.wait();
  Task t;
  double max_count = 0.0;
  while (f.output()->pop(t) == support::ChannelStatus::Ok)
    max_count = std::max(max_count, t.work_s);
  // Round-robin over 4 workers: each sees exactly 10 tasks.
  EXPECT_DOUBLE_EQ(max_count, 10.0);
}

TEST(Farm, MetricsCountThroughput) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 2;
  Farm f("f", cfg, identity_workers());
  f.start();
  feed(f, 30);
  f.wait();
  EXPECT_EQ(f.metrics().total_arrivals(), 30u);
  EXPECT_EQ(f.metrics().total_departures(), 30u);
}

TEST(Farm, EmptyStreamTerminatesCleanly) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 2;
  Farm f("f", cfg, identity_workers());
  f.start();
  f.input()->close();
  f.wait();
  EXPECT_TRUE(drain_ids(f).empty());
}

TEST(Farm, DestructorWithoutWaitIsSafe) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 2;
  auto f = std::make_unique<Farm>("f", cfg, identity_workers());
  f->start();
  f->input()->push(Task::data(0, 0.0));
  f.reset();  // closes input, drains, joins
}

// Parameterized sweep: every policy×ordering combination processes the
// whole stream.
// gtest names a parameter without a PrintTo by its raw bytes; the padding
// is spelled out and zeroed so the test names stay the same run to run.
struct FarmCase {
  FarmCase(SchedPolicy p, bool o, std::size_t w)
      : policy(p), ordered(o), workers(w) {}
  SchedPolicy policy;
  bool ordered;
  std::uint8_t pad[3] = {};
  std::size_t workers;
};
static_assert(std::has_unique_object_representations_v<FarmCase>,
              "FarmCase must have no implicit padding");

class FarmSweep : public ::testing::TestWithParam<FarmCase> {};

TEST_P(FarmSweep, AllTasksDelivered) {
  ScopedClockScale fast(500.0);
  const auto& pc = GetParam();
  FarmConfig cfg;
  cfg.initial_workers = pc.workers;
  cfg.policy = pc.policy;
  cfg.ordered = pc.ordered;
  Farm f("f", cfg, identity_workers());
  f.start();
  feed(f, 40);
  f.wait();
  const std::size_t expect =
      pc.policy == SchedPolicy::Broadcast ? 40 * pc.workers : 40;
  EXPECT_EQ(drain_ids(f).size(), expect);
}

INSTANTIATE_TEST_SUITE_P(
    PolicyMatrix, FarmSweep,
    ::testing::Values(FarmCase{SchedPolicy::RoundRobin, false, 1},
                      FarmCase{SchedPolicy::RoundRobin, false, 4},
                      FarmCase{SchedPolicy::RoundRobin, true, 4},
                      FarmCase{SchedPolicy::OnDemand, false, 4},
                      FarmCase{SchedPolicy::OnDemand, true, 3},
                      FarmCase{SchedPolicy::Broadcast, false, 2},
                      FarmCase{SchedPolicy::Broadcast, false, 5}));

}  // namespace
}  // namespace bsk::rt
