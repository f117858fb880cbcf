// Two-process farms: rt::Farm in this process, workers in a forked bskd,
// tasks over TCP loopback.
//
// The headline guarantees under test:
//   * a 200-task stream through remote workers completes exactly once;
//   * SIGKILLing the bskd mid-stream surfaces WorkerFailureBean facts and
//     the autonomic manager replaces the dead workers (local fallback,
//     since no daemon remains) — and the stream STILL completes exactly
//     once;
//   * filtered tasks (worker returns nothing) travel as WorkerDone replies
//     without wedging the farm;
//   * Link::secure() maps onto upgrading the remote node's wire channel;
//   * a pipelined result is delivered as soon as the worker's input goes
//     idle, not held until later tasks fill the credit window;
//   * a daemon that dies while its worker waits on that idle drain has its
//     in-flight task re-offered at once, not at end of stream.
//
// The bskd binary path is injected by CMake as BSK_BSKD_PATH.

#include <gtest/gtest.h>

#include <signal.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>
#include <thread>

#include "am/builtin_rules.hpp"
#include "bs/remote_bs.hpp"
#include "net/worker_pool.hpp"
#include "support/clock.hpp"

#ifndef BSK_BSKD_PATH
#define BSK_BSKD_PATH "bskd"
#endif

namespace bsk::net {
namespace {

WorkerPoolOptions fast_pool_opts(const std::string& kind) {
  WorkerPoolOptions o;
  o.node_kind = kind;
  o.heartbeat_wall_s = 0.05;
  o.node.liveness_timeout_wall_s = 0.5;
  o.node.result_poll_wall_s = 0.05;
  o.tcp.connect_retries = 3;
  return o;
}

/// Reaps a daemon however the test exits, so a failed ASSERT cannot leave
/// it running (and holding the test's output pipe open).
struct ReapOnExit {
  BskdProcess& p;
  ~ReapOnExit() { stop_bskd(p, SIGKILL); }
};

/// Pop one result from the farm's output within `wall_s` wall seconds.
std::optional<rt::Task> pop_within(rt::Farm& farm, double wall_s) {
  rt::Task t;
  if (farm.output()->pop_for(
          t, support::SimDuration(wall_s * support::Clock::scale())) !=
      support::ChannelStatus::Ok)
    return std::nullopt;
  return t;
}

TEST(RemoteFarm, TwoRemoteWorkers200TasksExactlyOnce) {
  support::ScopedClockScale fast(100.0);
  BskdProcess daemon = spawn_bskd(BSK_BSKD_PATH);
  ReapOnExit reap{daemon};
  ASSERT_TRUE(daemon.valid()) << "could not spawn " << BSK_BSKD_PATH;

  WorkerPool pool({{"127.0.0.1", daemon.port}}, fast_pool_opts("echo"));
  rt::FarmConfig fc;
  fc.initial_workers = 2;
  rt::Farm farm("netfarm", fc, pool.factory());
  farm.start();

  std::jthread feeder([&farm] {
    for (int i = 0; i < 200; ++i)
      farm.input()->push(rt::Task::data(i, 0.0, std::int64_t{i}));
    farm.input()->close();
  });

  std::multiset<std::uint64_t> ids;
  std::jthread drainer([&farm, &ids] {
    rt::Task t;
    while (farm.output()->pop(t) == support::ChannelStatus::Ok) {
      ids.insert(t.id);
      // The payload made the round trip through the other process.
      EXPECT_EQ(std::any_cast<std::int64_t>(t.payload),
                static_cast<std::int64_t>(t.id));
    }
  });

  feeder.join();
  farm.wait();
  drainer.join();

  EXPECT_EQ(pool.remote_nodes_created(), 2u);
  EXPECT_EQ(pool.fallback_nodes_created(), 0u);
  EXPECT_EQ(farm.failures(), 0u);
  ASSERT_EQ(ids.size(), 200u);
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(ids.count(static_cast<std::uint64_t>(i)), 1u) << "id " << i;

  stop_bskd(daemon, SIGKILL);
}

TEST(RemoteFarm, KillingBskdMidStreamAmReplacesAndStreamCompletes) {
  support::ScopedClockScale fast(100.0);
  BskdProcess daemon = spawn_bskd(BSK_BSKD_PATH);
  ReapOnExit reap{daemon};
  ASSERT_TRUE(daemon.valid()) << "could not spawn " << BSK_BSKD_PATH;

  WorkerPool pool({{"127.0.0.1", daemon.port}}, fast_pool_opts("sim"));
  support::EventLog log;
  rt::FarmConfig fc;
  fc.initial_workers = 2;
  am::ManagerConfig mc;
  mc.period = support::SimDuration(1.0);
  mc.warmup_s = 0.0;  // fault tolerance must react immediately
  auto farm_bs = bs::make_remote_farm_bs("netfarm", fc, pool, mc, nullptr,
                                         {}, {}, &log,
                                         /*watch_period_wall_s=*/0.05);
  auto& farm = dynamic_cast<rt::Farm&>(farm_bs->runnable());
  farm.start();
  farm_bs->start_managers();
  farm_bs->manager().set_contract(am::Contract::bestEffort());

  std::jthread feeder([&farm, &daemon] {
    for (int i = 0; i < 200; ++i) {
      farm.input()->push(rt::Task::data(i, 0.05));
      if (i == 50) ::kill(daemon.pid, SIGKILL);  // catastrophe mid-stream
      support::Clock::sleep_for(support::SimDuration(0.02));
    }
    farm.input()->close();
  });

  std::multiset<std::uint64_t> ids;
  std::jthread drainer([&farm, &ids] {
    rt::Task t;
    while (farm.output()->pop(t) == support::ChannelStatus::Ok)
      ids.insert(t.id);
  });

  feeder.join();
  farm.wait();
  drainer.join();
  farm_bs->stop_managers();
  pool.stop_watch();

  // Both workers lived in the killed process.
  EXPECT_EQ(farm.failures(), 2u);
  EXPECT_GE(pool.crashes_detected(), 2u);
  // The failure became a WorkerFailureBean the manager observed, and the
  // fault-tolerance rules replaced the dead executor.
  EXPECT_GE(log.count("AM_netfarm", "workerFail"), 1u);
  EXPECT_GE(log.count("AM_netfarm", "addWorker"), 1u);
  EXPECT_TRUE(log.happens_before("AM_netfarm", "workerFail", "AM_netfarm",
                                 "addWorker"));
  // Replacements are local fallbacks: the only daemon is gone.
  EXPECT_GE(pool.fallback_nodes_created(), 1u);

  // Exactly-once delivery across the process crash.
  ASSERT_EQ(ids.size(), 200u);
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(ids.count(static_cast<std::uint64_t>(i)), 1u) << "id " << i;

  stop_bskd(daemon, SIGKILL);
}

TEST(RemoteFarm, FilteredTasksTravelAsWorkerDoneReplies) {
  support::ScopedClockScale fast(100.0);
  BskdProcess daemon = spawn_bskd(BSK_BSKD_PATH);
  ReapOnExit reap{daemon};
  ASSERT_TRUE(daemon.valid());

  WorkerPool pool({{"127.0.0.1", daemon.port}}, fast_pool_opts("filter_odd"));
  rt::FarmConfig fc;
  fc.initial_workers = 2;
  rt::Farm farm("filterfarm", fc, pool.factory());
  farm.start();

  std::jthread feeder([&farm] {
    for (int i = 0; i < 20; ++i) farm.input()->push(rt::Task::data(i, 0.0));
    farm.input()->close();
  });
  std::set<std::uint64_t> ids;
  std::jthread drainer([&farm, &ids] {
    rt::Task t;
    while (farm.output()->pop(t) == support::ChannelStatus::Ok)
      ids.insert(t.id);
  });

  feeder.join();
  farm.wait();
  drainer.join();

  EXPECT_EQ(ids.size(), 10u);  // odd ids filtered in the other process
  for (const auto id : ids) EXPECT_EQ(id % 2, 0u);

  stop_bskd(daemon, SIGKILL);
}

TEST(RemoteFarm, SecureAllLinksUpgradesRemoteWireChannels) {
  support::ScopedClockScale fast(100.0);
  BskdProcess daemon = spawn_bskd(BSK_BSKD_PATH);
  ReapOnExit reap{daemon};
  ASSERT_TRUE(daemon.valid());

  WorkerPool pool({{"127.0.0.1", daemon.port}}, fast_pool_opts("echo"));
  rt::FarmConfig fc;
  fc.initial_workers = 1;
  rt::Farm farm("securefarm", fc, pool.factory());
  farm.start();

  // First sweep secures the worker's in/out links AND its private wire
  // channel (Node::secure_channels); a second sweep finds nothing left.
  const std::size_t first = farm.secure_all_links();
  EXPECT_GE(first, 1u);
  EXPECT_EQ(farm.secure_all_links(), 0u);

  // A pre-secured worker (the two-phase commit path) arrives secured too:
  // add_worker(secure_links=true) must not leave a second sweep anything.
  ASSERT_TRUE(farm.add_worker({}, std::nullopt, /*secure_links=*/true));
  EXPECT_EQ(farm.secure_all_links(), 0u);

  farm.input()->close();
  farm.wait();
  stop_bskd(daemon, SIGKILL);
}

TEST(RemoteFarm, LoneTaskReturnsWithoutFollowers) {
  support::ScopedClockScale fast(100.0);
  BskdProcess daemon = spawn_bskd(BSK_BSKD_PATH);
  ReapOnExit reap{daemon};
  ASSERT_TRUE(daemon.valid());

  WorkerPool pool({{"127.0.0.1", daemon.port}}, fast_pool_opts("echo"));
  ASSERT_EQ(fast_pool_opts("echo").node.credit_window, 4u);
  rt::FarmConfig fc;
  fc.initial_workers = 1;
  rt::Farm farm("lonefarm", fc, pool.factory());
  farm.start();

  // One task, input left open: nothing will ever push it out of the
  // credit window, so its result must come back on its own.
  farm.input()->push(rt::Task::data(0, 0.0));
  auto r = pop_within(farm, 1.0);
  ASSERT_TRUE(r.has_value()) << "lone task held in the credit window";
  EXPECT_EQ(r->id, 0u);

  // Sparse follow-ups: each returns before the next one is sent.
  for (std::uint64_t i = 1; i <= 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    farm.input()->push(rt::Task::data(i, 0.0));
    r = pop_within(farm, 1.0);
    ASSERT_TRUE(r.has_value()) << "task " << i << " held";
    EXPECT_EQ(r->id, i);
  }

  farm.input()->close();
  farm.wait();
  EXPECT_FALSE(pop_within(farm, 0.0).has_value());
  EXPECT_EQ(pool.remote_nodes_created(), 1u);
}

TEST(RemoteFarm, DaemonDyingUnderAnIdleWorkerIsRecoveredBeforeEndOfStream) {
  support::ScopedClockScale fast(100.0);
  BskdProcess a = spawn_bskd(BSK_BSKD_PATH);
  BskdProcess b = spawn_bskd(BSK_BSKD_PATH);
  ReapOnExit reap_a{a}, reap_b{b};
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());

  WorkerPoolOptions po = fast_pool_opts("sim");
  po.node.reconnect_grace_wall_s = 0.5;
  // No start_watch(): the worker thread itself must notice the death.
  WorkerPool pool({{"127.0.0.1", a.port}, {"127.0.0.1", b.port}}, po);
  rt::FarmConfig fc;
  fc.initial_workers = 2;  // round-robin endpoints: one worker per daemon
  fc.policy = rt::SchedPolicy::RoundRobin;
  rt::Farm farm("idlecrash", fc, pool.factory());
  farm.start();
  ASSERT_EQ(pool.remote_nodes_created(), 2u);

  // One long task per worker (200 ms of wall time), input left open.
  const double work = 0.2 * support::Clock::scale();
  std::vector<rt::Task> two{rt::Task::data(0, work), rt::Task::data(1, work)};
  farm.input()->push_n(two);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ::kill(a.pid, SIGKILL);  // its worker sits in the idle drain

  std::multiset<std::uint64_t> ids;
  const double deadline = wall_now() + po.node.reconnect_grace_wall_s + 2.0;
  while (ids.size() < 2) {
    auto r = pop_within(farm, std::max(0.0, deadline - wall_now()));
    if (!r) break;
    ids.insert(r->id);
  }
  EXPECT_EQ(ids.count(0), 1u);
  EXPECT_EQ(ids.count(1), 1u);

  farm.input()->close();
  farm.wait();
  rt::Task extra;
  while (farm.output()->pop(extra) == support::ChannelStatus::Ok)
    ids.insert(extra.id);
  EXPECT_EQ(ids.size(), 2u) << "a result was delivered twice";
}

}  // namespace
}  // namespace bsk::net
