// Transport conformance: one behavioural contract, two backends.
//
// Every test in TransportConformance runs against both ShmTransport (an
// in-process ring pair) and TcpTransport (loopback) through the same
// fixture — the wire protocol must not care which one carries it.
// Backend-specific behaviour (connect retry budgets, heartbeat-refreshed
// idleness, EOF detection, short-write resume) is tested separately below.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/shm.hpp"
#include "net/transport.hpp"

namespace bsk::net {
namespace {

Frame msg(FrameType type, std::initializer_list<std::uint8_t> bytes) {
  Frame f;
  f.type = type;
  f.payload = bytes;
  return f;
}

struct TcpPair {
  std::shared_ptr<TcpTransport> client;  ///< TcpTransport::connect side
  std::shared_ptr<TcpTransport> server;  ///< adopted accepted socket
};

// A connected loopback pair: bind an ephemeral listening socket, connect a
// client through TcpTransport::connect, and adopt the accepted end.
TcpPair tcp_loopback_pair() {
  TcpPair p;
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (lfd < 0) return p;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
      ::listen(lfd, 1) == 0 &&
      ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    p.client = TcpTransport::connect("127.0.0.1", ntohs(addr.sin_port));
    const int cfd = p.client ? ::accept(lfd, nullptr, nullptr) : -1;
    if (cfd >= 0) p.server = std::make_shared<TcpTransport>(cfd);
  }
  ::close(lfd);
  return p;
}

// Live threads of this process.
std::size_t own_thread_count() {
  DIR* d = ::opendir("/proc/self/task");
  if (!d) return 0;
  std::size_t n = 0;
  while (const dirent* e = ::readdir(d))
    if (e->d_name[0] != '.') ++n;
  ::closedir(d);
  return n;
}

class TransportConformance : public ::testing::TestWithParam<std::string> {
 protected:
  struct Pair {
    std::shared_ptr<Transport> a;
    std::shared_ptr<Transport> b;
  };

  Pair make() {
    if (GetParam() == "shm") {
      auto p = ShmTransport::make_pair();
      EXPECT_NE(p.a, nullptr);
      EXPECT_NE(p.b, nullptr);
      return {p.a, p.b};
    }
    auto p = tcp_loopback_pair();
    EXPECT_NE(p.client, nullptr);
    EXPECT_NE(p.server, nullptr);
    return {p.client, p.server};
  }
};

TEST_P(TransportConformance, SendRecvPreservesOrderAndBytes) {
  auto [a, b] = make();
  for (int i = 0; i < 100; ++i) {
    Frame f;
    f.type = i % 2 == 0 ? FrameType::TaskMsg : FrameType::ResultMsg;
    f.payload.assign(static_cast<std::size_t>(i), static_cast<std::uint8_t>(i));
    ASSERT_TRUE(a->send(f));
  }
  for (int i = 0; i < 100; ++i) {
    Frame f;
    ASSERT_EQ(b->recv(f), RecvStatus::Ok) << "frame " << i;
    EXPECT_EQ(f.type,
              i % 2 == 0 ? FrameType::TaskMsg : FrameType::ResultMsg);
    ASSERT_EQ(f.payload.size(), static_cast<std::size_t>(i));
    if (i > 0) EXPECT_EQ(f.payload[0], static_cast<std::uint8_t>(i));
  }
  a->close();
  b->close();
}

TEST_P(TransportConformance, RecvForTimesOutPromptly) {
  auto [a, b] = make();
  Frame f;
  const double t0 = wall_now();
  EXPECT_EQ(b->recv_for(f, 0.05), RecvStatus::TimedOut);
  EXPECT_LT(wall_now() - t0, 2.0);  // did not block unboundedly
  a->close();
  b->close();
}

TEST_P(TransportConformance, CloseDrainsBufferedFramesThenReportsClosed) {
  auto [a, b] = make();
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(a->send(msg(FrameType::TaskMsg, {static_cast<uint8_t>(i)})));
  a->close();
  Frame f;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(b->recv(f), RecvStatus::Ok) << "frame " << i;
    EXPECT_EQ(f.payload[0], static_cast<std::uint8_t>(i));
  }
  EXPECT_EQ(b->recv(f), RecvStatus::Closed);
  EXPECT_TRUE(b->closed());
}

TEST_P(TransportConformance, PeerCloseUnblocksBlockedRecv) {
  auto [a, b] = make();
  std::jthread closer([a = a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    a->close();
  });
  Frame f;
  EXPECT_EQ(b->recv(f), RecvStatus::Closed);
}

TEST_P(TransportConformance, SendAfterCloseFails) {
  auto [a, b] = make();
  a->close();
  EXPECT_FALSE(a->send(msg(FrameType::TaskMsg, {1})));
  b->close();
}

TEST_P(TransportConformance, HeartbeatsAreAbsorbedNeverSurfaced) {
  auto [a, b] = make();
  ASSERT_TRUE(a->send(Frame{FrameType::Heartbeat, {}}));
  ASSERT_TRUE(a->send(Frame{FrameType::Heartbeat, {}}));
  ASSERT_TRUE(a->send(msg(FrameType::TaskMsg, {42})));
  Frame f;
  ASSERT_EQ(b->recv(f), RecvStatus::Ok);
  EXPECT_EQ(f.type, FrameType::TaskMsg);  // heartbeats skipped
  EXPECT_EQ(f.payload[0], 42);
  EXPECT_GE(b->stats().heartbeats_seen, 2u);
  a->close();
  b->close();
}

TEST_P(TransportConformance, BidirectionalPingPong) {
  auto [a, b] = make();
  std::jthread echo([b = b] {
    Frame f;
    while (b->recv(f) == RecvStatus::Ok) {
      f.type = FrameType::ResultMsg;
      if (!b->send(f)) break;
    }
  });
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(a->send(msg(FrameType::TaskMsg, {static_cast<uint8_t>(i)})));
    Frame f;
    ASSERT_EQ(a->recv(f), RecvStatus::Ok);
    EXPECT_EQ(f.type, FrameType::ResultMsg);
    EXPECT_EQ(f.payload[0], static_cast<std::uint8_t>(i));
  }
  a->close();
  b->close();
}

TEST_P(TransportConformance, StatsCountFrames) {
  auto [a, b] = make();
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(a->send(msg(FrameType::TaskMsg, {})));
  Frame f;
  for (int i = 0; i < 10; ++i) ASSERT_EQ(b->recv(f), RecvStatus::Ok);
  EXPECT_EQ(a->stats().frames_sent, 10u);
  EXPECT_EQ(b->stats().frames_received, 10u);
  a->close();
  b->close();
}

TEST_P(TransportConformance, SecuredFlagFlips) {
  auto [a, b] = make();
  EXPECT_FALSE(a->secured());
  a->mark_secured();
  EXPECT_TRUE(a->secured());
  EXPECT_FALSE(b->secured());
  a->close();
  b->close();
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportConformance,
                         ::testing::Values(std::string("shm"),
                                           std::string("tcp")),
                         [](const auto& info) { return info.param; });

// ------------------------------------------------------------ tcp-specific

TEST(TcpTransport, ConnectRetryBudgetIsBoundedAndFails) {
  TcpOptions opts;
  opts.connect_retries = 2;
  opts.connect_timeout_s = 0.1;
  opts.retry_backoff_s = 0.01;
  const double t0 = wall_now();
  // Port 1 on loopback: nothing listens there in the sandbox.
  auto tp = TcpTransport::connect("127.0.0.1", 1, opts);
  EXPECT_EQ(tp, nullptr);
  EXPECT_LT(wall_now() - t0, 5.0);
}

TEST(TcpTransport, HeartbeatsRefreshIdleSeconds) {
  auto [client, server] = tcp_loopback_pair();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const double idle_before = server->idle_seconds();
  ASSERT_TRUE(client->send(Frame{FrameType::Heartbeat, {}}));
  // Nobody calls recv: the observers themselves must register the beat.
  const double deadline = wall_now() + 2.0;
  while (server->stats().heartbeats_seen == 0 && wall_now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(server->stats().heartbeats_seen, 1u);
  EXPECT_LT(server->idle_seconds(), idle_before + 0.05);
  client->close();
  server->close();
}

TEST(TcpTransport, WritingIntoPeerClosedSocketDoesNotRaiseSigpipe) {
  // Regression: the write path uses MSG_NOSIGNAL, so a peer that vanished
  // between two writes produces EPIPE (a dead connection), not a
  // process-killing SIGPIPE. Without the flag this test aborts the whole
  // binary.
  auto [client, server] = tcp_loopback_pair();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);
  server->close();  // peer goes away; client does not know yet

  Frame big;
  big.type = FrameType::TaskMsg;
  big.payload.assign(1 << 16, 0x5a);
  // Keep writing until the RST lands and the write path sees EPIPE. Each
  // send is either queued (true) or rejected on a dead connection (false).
  const double deadline = wall_now() + 5.0;
  while (!client->closed() && wall_now() < deadline) {
    client->send(big);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(client->closed());  // died gracefully, in-process
  client->close();
}

// Peer EOF must surface through the observers alone: the farm's failure
// detector polls closed() on workers nobody is receiving from.
TEST(TcpTransport, PeerEofShowsInClosedWithoutRecv) {
  auto [client, server] = tcp_loopback_pair();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);
  EXPECT_FALSE(client->closed());
  const double t0 = wall_now();
  server.reset();  // the peer process "dies"
  while (!client->closed() && wall_now() - t0 < 5.0)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(client->closed());
  EXPECT_LT(wall_now() - t0, 1.0);
}

// A frame far larger than the socket buffer leaves in many short writes.
// Once send() returns, the sender only waits for replies (recv_for) or
// polls liveness (idle_seconds) — the whole frame must still reach the
// reader.
TEST(TcpTransport, ShortWriteTailReachesReaderWhileSenderOnlyWaits) {
  for (const bool via_recv : {true, false}) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    const int tiny = 4096;
    ASSERT_EQ(::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof tiny),
              0);
    auto writer = std::make_shared<TcpTransport>(sv[0]);
    auto reader = std::make_shared<TcpTransport>(sv[1]);

    Frame big;
    big.type = FrameType::TaskMsg;
    big.payload.resize(256 * 1024);
    for (std::size_t i = 0; i < big.payload.size(); ++i)
      big.payload[i] = static_cast<std::uint8_t>(i * 31 + 7);

    std::atomic<bool> received{false};
    std::thread sender([&] {
      EXPECT_TRUE(writer->send(big));
      Frame none;
      while (!received.load()) {
        if (via_recv) {
          EXPECT_NE(writer->recv_for(none, 0.01), RecvStatus::Ok);
        } else {
          EXPECT_LT(writer->idle_seconds(), 60.0);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    Frame got;
    EXPECT_EQ(reader->recv_for(got, 20.0), RecvStatus::Ok)
        << (via_recv ? "recv_for" : "idle_seconds");
    received.store(true);
    sender.join();
    EXPECT_EQ(got.payload, big.payload);
    writer->close();
    reader->close();
  }
}

// Transports run on their callers' threads: opening one starts no thread,
// so a process pays no thread per client connection.
TEST(TcpTransport, OpeningTransportsStartsNoThreads) {
  const std::size_t before = own_thread_count();
  ASSERT_GT(before, 0u);
  std::vector<std::shared_ptr<TcpTransport>> open;
  for (int i = 0; i < 4; ++i) {
    auto [client, server] = tcp_loopback_pair();
    ASSERT_NE(client, nullptr);
    ASSERT_NE(server, nullptr);
    open.push_back(client);
    open.push_back(server);
  }
  ASSERT_EQ(open.size(), 8u);
  EXPECT_EQ(own_thread_count(), before);
}

TEST(TcpTransport, CorruptedBytesOnTheWireDieAsBadCrc) {
  // A peer (or a fault) that garbles bytes mid-stream must not crash the
  // decoder or deliver a wrong frame: the CRC check kills the connection
  // with a typed decode error.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const int raw = sv[0];
  auto server = std::make_shared<TcpTransport>(sv[1]);

  Frame f;
  f.type = FrameType::TaskMsg;
  f.payload = {1, 2, 3, 4};
  auto bytes = encode_frame(f);
  bytes.back() ^= 0xff;  // corrupt in transit
  ASSERT_EQ(::send(raw, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));

  Frame got;
  EXPECT_EQ(server->recv_for(got, 5.0), RecvStatus::Closed);
  EXPECT_EQ(server->decode_error(), DecodeError::BadCrc);
  ::close(raw);
  server->close();
}

TEST(TcpTransport, PeerDestructionReadsAsClosed) {
  auto [client, server] = tcp_loopback_pair();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);
  client.reset();  // socket torn down — the remote process "dies"
  Frame f;
  EXPECT_EQ(server->recv_for(f, 5.0), RecvStatus::Closed);
  EXPECT_TRUE(server->closed());
}

// The scatter/gather write path under maximum partial-progress pressure:
// a socket whose send buffer holds only a sliver of each batch forces
// sendmsg to return short on nearly every call, and a SIGUSR1 storm aimed
// at the sending thread (handler installed *without* SA_RESTART) forces
// EINTR mid-write. send_many must resume precisely where the short write
// stopped — any slip corrupts the stream and the CRC on the far side
// would kill the connection.
TEST(TcpTransport, SendManySurvivesShortWritesAndEintrStorm) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const int tiny = 4096;
  ASSERT_EQ(::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny)),
            0);
  auto writer = std::make_shared<TcpTransport>(sv[0]);
  auto reader = std::make_shared<TcpTransport>(sv[1]);

  // No-op handler, no SA_RESTART: every signal interrupts the syscall.
  struct sigaction sa{}, old{};
  sa.sa_handler = [](int) {};
  sa.sa_flags = 0;
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  const int kBatches = 20, kPerBatch = 16;
  std::atomic<bool> sending{true};
  std::thread sender([&] {
    for (int b = 0; b < kBatches; ++b) {
      std::vector<Frame> batch(kPerBatch);
      for (int i = 0; i < kPerBatch; ++i) {
        batch[static_cast<std::size_t>(i)].type = FrameType::TaskMsg;
        batch[static_cast<std::size_t>(i)].payload.assign(
            2048, static_cast<std::uint8_t>(b * kPerBatch + i));
      }
      ASSERT_TRUE(writer->send_many(batch.data(), batch.size()))
          << "batch " << b;
    }
    sending.store(false);
  });
  const pthread_t victim = sender.native_handle();
  std::thread storm([&] {
    while (sending.load()) {
      ::pthread_kill(victim, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  Frame f;
  for (int i = 0; i < kBatches * kPerBatch; ++i) {
    ASSERT_EQ(reader->recv_for(f, 20.0), RecvStatus::Ok) << "frame " << i;
    ASSERT_EQ(f.payload.size(), 2048u);
    EXPECT_EQ(f.payload[0], static_cast<std::uint8_t>(i));
    EXPECT_EQ(f.payload[2047], static_cast<std::uint8_t>(i));
  }
  sender.join();
  storm.join();
  ::sigaction(SIGUSR1, &old, nullptr);
  writer->close();
  reader->close();
}

// Same storm through the zero-copy path: send_serialized writes straight
// from the serializer into the send slabs and out through the same gather
// loop, so short-write resume must hold there too.
TEST(TcpTransport, SendSerializedSurvivesShortWriteResume) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const int tiny = 4096;
  ASSERT_EQ(::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny)),
            0);
  auto writer = std::make_shared<TcpTransport>(sv[0]);
  auto reader = std::make_shared<TcpTransport>(sv[1]);

  const std::size_t kFrames = 64;
  std::thread sender([&] {
    ASSERT_TRUE(writer->send_serialized(
        FrameType::TaskMsg, kFrames, [](std::size_t i, wire::Writer& w) {
          w.u64(i);
          for (int k = 0; k < 512; ++k)
            w.u32(static_cast<std::uint32_t>(i * 1000 + k));
        }));
  });
  Frame f;
  for (std::size_t i = 0; i < kFrames; ++i) {
    ASSERT_EQ(reader->recv_for(f, 20.0), RecvStatus::Ok) << "frame " << i;
    wire::Reader r(f.payload);
    EXPECT_EQ(r.u64(), i);
    EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(i * 1000));
    EXPECT_TRUE(r.ok());
  }
  sender.join();
  writer->close();
  reader->close();
}

}  // namespace
}  // namespace bsk::net
