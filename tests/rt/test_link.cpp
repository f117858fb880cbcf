// Links and conduits: comm-cost charging, SSL securing, insecure counting.

#include <gtest/gtest.h>

#include "rt/conduit.hpp"
#include "support/clock.hpp"

namespace bsk::rt {
namespace {

using support::ScopedClockScale;

class LinkFixture : public ::testing::Test {
 protected:
  LinkFixture() : platform_(sim::Platform::mixed_grid(1, 1, 2)) {}

  Placement trusted() { return {&platform_, 0}; }
  Placement untrusted() { return {&platform_, 1}; }

  sim::Platform platform_;
};

TEST_F(LinkFixture, TrustedLinkNeverInsecure) {
  Link l;
  l.set_endpoints(trusted(), trusted());
  EXPECT_FALSE(l.untrusted());
  l.charge(Task::data(1, 0.0));
  EXPECT_EQ(l.insecure_messages(), 0u);
  EXPECT_EQ(l.messages(), 1u);
}

TEST_F(LinkFixture, UntrustedUnsecuredCountsExposures) {
  ScopedClockScale fast(500.0);
  Link l;
  l.set_endpoints(trusted(), untrusted());
  EXPECT_TRUE(l.untrusted());
  for (int i = 0; i < 5; ++i) l.charge(Task::data(i, 0.0));
  EXPECT_EQ(l.insecure_messages(), 5u);
}

TEST_F(LinkFixture, SecuringStopsExposureCounting) {
  ScopedClockScale fast(500.0);
  Link l;
  l.set_endpoints(trusted(), untrusted());
  l.charge(Task::data(0, 0.0));
  l.secure();
  EXPECT_TRUE(l.secured());
  for (int i = 0; i < 5; ++i) l.charge(Task::data(i, 0.0));
  EXPECT_EQ(l.insecure_messages(), 1u);  // only the pre-secure one
  EXPECT_EQ(l.messages(), 6u);
}

TEST_F(LinkFixture, SecureIsIdempotent) {
  ScopedClockScale fast(500.0);
  Link l;
  l.set_endpoints(trusted(), untrusted());
  l.secure();
  l.secure();
  EXPECT_TRUE(l.secured());
}

TEST_F(LinkFixture, SecureHandshakeTakesSimTime) {
  ScopedClockScale fast(100.0);
  Link l;
  l.set_endpoints(trusted(), untrusted());
  const auto t0 = support::Clock::now();
  l.secure();
  EXPECT_GE(support::Clock::now() - t0, 0.04);  // handshake ~0.05s
}

TEST_F(LinkFixture, ControlTasksTravelFree) {
  Link l;
  l.set_endpoints(trusted(), untrusted());
  l.charge(Task::poison());
  l.charge(Task::worker_done());
  EXPECT_EQ(l.messages(), 0u);
  EXPECT_EQ(l.insecure_messages(), 0u);
}

TEST_F(LinkFixture, NoPlatformMeansNoCost) {
  Link l;  // endpoints unset: platform null
  const auto t0 = support::Clock::now();
  l.charge(Task::data(1, 0.0));
  EXPECT_FALSE(l.untrusted());
  EXPECT_LT(support::Clock::now() - t0, 0.5 * support::Clock::scale());
}

TEST_F(LinkFixture, SslTransferCostsMore) {
  ScopedClockScale fast(50.0);
  Link plain, ssl;
  plain.set_endpoints(trusted(), untrusted());
  ssl.set_endpoints(trusted(), untrusted());
  ssl.secure();

  Task t = Task::data(1, 0.0);
  t.size_mb = 5.0;
  const auto a0 = support::Clock::now();
  plain.charge(t);
  const double plain_cost = support::Clock::now() - a0;
  const auto b0 = support::Clock::now();
  ssl.charge(t);
  const double ssl_cost = support::Clock::now() - b0;
  EXPECT_GT(ssl_cost, plain_cost * 1.5);
}

TEST_F(LinkFixture, ConduitChargesAndQueues) {
  ScopedClockScale fast(500.0);
  Conduit c(8);
  c.set_endpoints(trusted(), untrusted());
  EXPECT_TRUE(c.push(Task::data(1, 0.0)));
  EXPECT_EQ(c.link().insecure_messages(), 1u);
  Task t;
  EXPECT_EQ(c.pop(t), support::ChannelStatus::Ok);
  EXPECT_EQ(t.id, 1u);
}

// The farm's load balancer steals with steal_data_back(): a poison pill
// queued for one worker must never be handed to another.
TEST(Conduit, StealDataBackLeavesPoisonWithItsWorker) {
  Conduit c(8);
  for (int i = 0; i < 3; ++i) c.push(Task::data(i, 0.0));
  c.push(Task::poison());
  EXPECT_TRUE(c.steal_data_back(4).empty());
  c.push(Task::data(9, 0.0));  // raced in behind the poison
  const auto stolen = c.steal_data_back(4);
  ASSERT_EQ(stolen.size(), 1u);
  EXPECT_EQ(stolen[0].id, 9u);
  Task t;
  for (std::uint64_t id = 0; id < 3; ++id) {
    ASSERT_EQ(c.pop(t), support::ChannelStatus::Ok);
    EXPECT_EQ(t.id, id);
  }
  ASSERT_EQ(c.pop(t), support::ChannelStatus::Ok);
  EXPECT_EQ(t.kind, TaskKind::Poison);
}

}  // namespace
}  // namespace bsk::rt
