// Concrete ABCs: farm sensors/actuators with lease bookkeeping, commit
// gates, sequential stages, pipeline aggregation, core accounting.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "am/abc.hpp"
#include "rt/builders.hpp"
#include "support/clock.hpp"

namespace bsk::am {
namespace {

using support::ScopedClockScale;

rt::NodeFactory identity_workers() {
  return [] {
    return std::make_unique<rt::LambdaNode>(
        [](rt::Task t) { return std::optional<rt::Task>{std::move(t)}; });
  };
}

TEST(FarmAbc, SenseReflectsFarmState) {
  ScopedClockScale fast(500.0);
  rt::FarmConfig cfg;
  cfg.initial_workers = 3;
  rt::Farm f("f", cfg, identity_workers());
  FarmAbc abc(f);
  f.start();
  const Sensors s = abc.sense();
  EXPECT_TRUE(s.valid);
  EXPECT_EQ(s.nworkers, 3u);
  EXPECT_FALSE(s.unsecured_untrusted);
  f.input()->close();
  f.wait();
}

TEST(FarmAbc, AddWorkerRecruitsLease) {
  ScopedClockScale fast(500.0);
  sim::Platform p = sim::Platform::testbed_smp8();
  sim::ResourceManager rm(p);
  rt::FarmConfig cfg;
  cfg.initial_workers = 1;
  rt::Farm f("f", cfg, identity_workers(), rt::Placement{&p, 0});
  FarmAbc abc(f, &rm);
  f.start();
  EXPECT_TRUE(abc.add_worker());
  EXPECT_EQ(rm.leased(), 1u);
  EXPECT_EQ(f.worker_count(), 2u);
  EXPECT_TRUE(abc.remove_worker());
  EXPECT_EQ(rm.leased(), 0u);  // lease released on removal
  f.input()->close();
  f.wait();
}

TEST(FarmAbc, AddWorkerFailsWhenResourcesExhausted) {
  ScopedClockScale fast(500.0);
  sim::Platform p;
  p.add_machine("tiny", "local", 1);
  sim::ResourceManager rm(p);
  rt::FarmConfig cfg;
  cfg.initial_workers = 1;
  rt::Farm f("f", cfg, identity_workers(), rt::Placement{&p, 0});
  FarmAbc abc(f, &rm);
  f.start();
  EXPECT_TRUE(abc.add_worker());   // takes the only core
  EXPECT_FALSE(abc.add_worker());  // exhausted
  EXPECT_EQ(f.worker_count(), 2u);
  f.input()->close();
  f.wait();
}

TEST(FarmAbc, GateVetoReleasesLease) {
  ScopedClockScale fast(500.0);
  sim::Platform p = sim::Platform::testbed_smp8();
  sim::ResourceManager rm(p);
  rt::FarmConfig cfg;
  cfg.initial_workers = 1;
  rt::Farm f("f", cfg, identity_workers(), rt::Placement{&p, 0});
  FarmAbc abc(f, &rm);
  abc.set_commit_gate([](Intent&) { return false; });
  f.start();
  EXPECT_FALSE(abc.add_worker());
  EXPECT_EQ(rm.leased(), 0u);  // no lease leaked
  EXPECT_EQ(f.worker_count(), 1u);
  f.input()->close();
  f.wait();
}

TEST(FarmAbc, GateSecureRequirementPreSecuresWorker) {
  ScopedClockScale fast(200.0);
  // Home on the trusted cluster; recruitment constrained to the untrusted
  // domain so the new worker's links cross a non-private segment.
  sim::Platform p = sim::Platform::mixed_grid(1, 1, 4);
  sim::ResourceManager rm(p);
  rt::FarmConfig cfg;
  cfg.initial_workers = 1;
  rt::Farm f("f", cfg, identity_workers(), rt::Placement{&p, 0});
  sim::RecruitConstraints rc;
  rc.domain = "untrusted_ip_domain_A";
  FarmAbc abc(f, &rm, rc);
  bool saw_untrusted = false;
  abc.set_commit_gate([&](Intent& i) {
    saw_untrusted = i.target_untrusted;
    i.require_secure = true;
    return true;
  });
  f.start();
  EXPECT_TRUE(abc.add_worker());
  EXPECT_TRUE(saw_untrusted);
  EXPECT_FALSE(f.has_unsecured_untrusted_links());
  for (int i = 0; i < 10; ++i) f.input()->push(rt::Task::data(i, 0.0));
  f.input()->close();
  f.wait();
  EXPECT_EQ(f.insecure_messages(), 0u);  // the two-phase guarantee
}

TEST(FarmAbc, SecureLinksActuator) {
  ScopedClockScale fast(200.0);
  sim::Platform p = sim::Platform::mixed_grid(1, 1, 4);
  sim::ResourceManager rm(p);
  rt::FarmConfig cfg;
  cfg.initial_workers = 1;
  rt::Farm f("f", cfg, identity_workers(), rt::Placement{&p, 0});
  sim::RecruitConstraints rc;
  rc.domain = "untrusted_ip_domain_A";
  FarmAbc abc(f, &rm, rc);
  f.start();
  abc.add_worker();  // unsecured untrusted worker
  EXPECT_TRUE(abc.sense().unsecured_untrusted);
  EXPECT_GT(abc.secure_links(), 0u);
  EXPECT_FALSE(abc.sense().unsecured_untrusted);
  f.input()->close();
  f.wait();
}

TEST(FarmAbc, SenseInvalidDuringReconfig) {
  // Scale 10: the 1 s blackout lasts 100 ms of wall time and the probe lands
  // 30 ms in, so a slow start of the adder thread cannot push the blackout
  // past the probe.
  ScopedClockScale fast(10.0);
  rt::FarmConfig cfg;
  cfg.initial_workers = 1;
  cfg.reconfig_delay_s = 1.0;
  rt::Farm f("f", cfg, identity_workers());
  FarmAbc abc(f);
  f.start();
  std::jthread adder([&f] { f.add_worker(); });
  support::Clock::sleep_for(support::SimDuration(0.3));
  EXPECT_FALSE(abc.sense().valid);  // blackout
  adder.join();
  EXPECT_TRUE(abc.sense().valid);
  f.input()->close();
  f.wait();
}

TEST(SeqAbc, SenseAndRate) {
  ScopedClockScale fast(500.0);
  auto stage = rt::seq("src", std::make_unique<rt::StreamSource>(5, 10.0, 0.0));
  SeqAbc abc(*stage);
  EXPECT_TRUE(abc.set_rate(20.0));
  EXPECT_DOUBLE_EQ(stage->node_as<rt::StreamSource>()->rate(), 20.0);
  auto out = std::make_shared<rt::Conduit>(64);
  stage->set_output(out);
  stage->start();
  stage->wait();
  const Sensors s = abc.sense();
  EXPECT_EQ(s.nworkers, 1u);
  EXPECT_TRUE(s.stream_ended);
}

TEST(SeqAbc, SetRateFailsOnNonSource) {
  auto stage = rt::seq("sink", std::make_unique<rt::StreamSink>());
  SeqAbc abc(*stage);
  EXPECT_FALSE(abc.set_rate(1.0));
}

TEST(SeqAbc, BaseActuatorsDecline) {
  auto stage = rt::seq("sink", std::make_unique<rt::StreamSink>());
  SeqAbc abc(*stage);
  EXPECT_FALSE(abc.add_worker());
  EXPECT_FALSE(abc.remove_worker());
  EXPECT_EQ(abc.rebalance(), 0u);
  EXPECT_EQ(abc.secure_links(), 0u);
}

TEST(PipelineAbc, AggregatesEndpoints) {
  ScopedClockScale fast(500.0);
  rt::FarmConfig cfg;
  cfg.initial_workers = 2;
  auto p = rt::pipe(
      "p", rt::seq("src", std::make_unique<rt::StreamSource>(30, 100.0, 0.0)),
      rt::farm("f", cfg, identity_workers()),
      rt::seq("sink", std::make_unique<rt::StreamSink>()));
  PipelineAbc abc(*p);
  p->start();
  p->wait();
  const Sensors s = abc.sense();
  EXPECT_TRUE(s.stream_ended);
  EXPECT_GE(s.nworkers, 2u);  // producer + farm coordination + consumer
}

TEST(CoresInUse, CountsPatternShapes) {
  ScopedClockScale fast(500.0);
  rt::FarmConfig cfg;
  cfg.initial_workers = 2;
  auto p = rt::pipe(
      "p",
      rt::seq("src", std::make_unique<rt::StreamSource>(5000, 100.0, 0.0)),
      rt::farm("f", cfg, identity_workers()),
      rt::seq("sink", std::make_unique<rt::StreamSink>()));
  p->start();
  // producer(1) + farm(2 workers + 1) + consumer(1) = 5, the paper's count.
  // The count reflects *running* worker threads, so poll briefly rather
  // than sampling the instant after start() (a short stream could even
  // drain before a single sample).
  std::size_t cores = 0;
  for (int i = 0; i < 2000 && cores != 5; ++i) {
    cores = cores_in_use(*p);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(cores, 5u);
  p->wait();
}

}  // namespace
}  // namespace bsk::am
