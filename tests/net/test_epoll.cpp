// EpollServer: the single-loop C10K core under bskd and ClusterHost.
//
// Covered here: the Hello-gated callback contract, echo traffic from
// ordinary TcpTransport clients, loop-driven heartbeats, chaos-injected
// clients, graceful close semantics — and the scaling claims: hundreds of
// concurrent connections served by ONE loop thread, plus a forked-bskd soak
// that checks the daemon's thread count stays bounded while serving 64+
// sessions (the whole point of replacing thread-per-connection).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/chaos.hpp"
#include "net/epoll_server.hpp"
#include "net/worker_pool.hpp"

// Under TSan the per-connection shadow state is expensive; keep the soak
// meaningful but smaller.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BSK_TSAN 1
#endif
#endif
#ifndef BSK_TSAN
#define BSK_TSAN 0
#endif

namespace bsk::net {
namespace {

// Entries of /proc/<pid>/<sub>: live threads ("task") or open fds ("fd").
std::size_t proc_entries(int pid, const char* sub) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/" + sub;
  DIR* d = ::opendir(dir.c_str());
  if (!d) return 0;
  std::size_t n = 0;
  while (const dirent* e = ::readdir(d))
    if (e->d_name[0] != '.') ++n;
  ::closedir(d);
  return n;
}

// Virtual address space of a process (VmSize, KiB) — stacks of exited but
// never-joined threads stay mapped and show up here, not in the task list.
std::size_t vm_size_kib(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmSize:") {
      std::size_t kib = 0;
      in >> kib;
      return kib;
    }
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

// Minimal echo service: ack every Hello, echo every frame back.
class EchoHandler : public EpollServer::Handler {
 public:
  EpollServer* server = nullptr;
  std::atomic<int> hellos{0};
  std::atomic<int> frames{0};
  std::atomic<int> closed{0};

  void on_hello(EpollServer::ConnId c, const Hello& h) override {
    hellos.fetch_add(1);
    HelloAck ack;
    ack.ok = h.magic == kMagic && h.version == kProtocolVersion;
    ack.session = c;
    server->send(c, make_hello_ack(ack));
  }
  void on_frame(EpollServer::ConnId c, Frame&& f) override {
    frames.fetch_add(1);
    server->send(c, f);
  }
  void on_closed(EpollServer::ConnId) override { closed.fetch_add(1); }
};

Frame msg(FrameType type, std::vector<std::uint8_t> bytes) {
  Frame f;
  f.type = type;
  f.payload = std::move(bytes);
  return f;
}

TEST(EpollServer, HandshakeThenEchoRoundTrips) {
  EchoHandler h;
  EpollServer server(h);
  h.server = &server;
  server.start();
  ASSERT_TRUE(server.valid());
  ASSERT_NE(server.port(), 0);

  auto tp = TcpTransport::connect("127.0.0.1", server.port());
  ASSERT_NE(tp, nullptr);
  HelloAck ack;
  ASSERT_TRUE(client_handshake(*tp, Hello{}, 5.0, &ack));
  EXPECT_TRUE(ack.ok);

  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tp->send(msg(FrameType::TaskMsg,
                             {static_cast<std::uint8_t>(i),
                              static_cast<std::uint8_t>(i * 3)})));
  }
  Frame f;
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(tp->recv_for(f, 5.0), RecvStatus::Ok) << "frame " << i;
    EXPECT_EQ(f.type, FrameType::TaskMsg);
    ASSERT_EQ(f.payload.size(), 2u);
    EXPECT_EQ(f.payload[0], static_cast<std::uint8_t>(i));
  }
  EXPECT_EQ(h.hellos.load(), 1);
  EXPECT_EQ(h.frames.load(), 50);
  tp->close();
  server.stop();
}

TEST(EpollServer, FirstFrameMustBeHello) {
  EchoHandler h;
  EpollServer server(h);
  h.server = &server;
  server.start();

  auto tp = TcpTransport::connect("127.0.0.1", server.port());
  ASSERT_NE(tp, nullptr);
  // Jump straight to a task without a handshake: the server must close
  // without ever invoking a callback.
  ASSERT_TRUE(tp->send(msg(FrameType::TaskMsg, {1, 2, 3})));
  Frame f;
  EXPECT_EQ(tp->recv_for(f, 5.0), RecvStatus::Closed);
  EXPECT_EQ(h.hellos.load(), 0);
  EXPECT_EQ(h.frames.load(), 0);
  EXPECT_EQ(h.closed.load(), 0);  // on_closed only fires after on_hello
  tp->close();
  server.stop();
}

TEST(EpollServer, TimerPassDrivesHeartbeats) {
  EchoHandler h;
  EpollServer server(h);
  h.server = &server;
  server.start();

  auto tp = TcpTransport::connect("127.0.0.1", server.port());
  ASSERT_NE(tp, nullptr);
  ASSERT_TRUE(client_handshake(*tp, Hello{}, 5.0));

  // Arm a fast heartbeat on the (only) connection. The client transport
  // absorbs heartbeats below recv(), refreshing idle_seconds().
  // ConnId of the first accepted connection is 2 (0/1 tag listener+wake).
  server.set_heartbeat(2, 0.02);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  Frame f;
  EXPECT_EQ(tp->recv_for(f, 0.0), RecvStatus::TimedOut);  // drain absorbs
  EXPECT_LT(tp->idle_seconds(), 0.25);
  EXPECT_GT(tp->stats().heartbeats_seen, 2u);
  tp->close();
  server.stop();
}

TEST(EpollServer, CloseConnFlushesPendingRepliesFirst) {
  EchoHandler h;
  EpollServer server(h);
  h.server = &server;
  server.start();

  auto tp = TcpTransport::connect("127.0.0.1", server.port());
  ASSERT_NE(tp, nullptr);
  ASSERT_TRUE(client_handshake(*tp, Hello{}, 5.0));

  server.send(2, msg(FrameType::ResultMsg, {42}));
  server.close_conn(2);
  Frame f;
  ASSERT_EQ(tp->recv_for(f, 5.0), RecvStatus::Ok);
  EXPECT_EQ(f.payload[0], 42);
  EXPECT_EQ(tp->recv_for(f, 5.0), RecvStatus::Closed);
  tp->close();
  server.stop();
}

TEST(EpollServer, SendSerializedReachesClientIntact) {
  EchoHandler h;
  EpollServer server(h);
  h.server = &server;
  server.start();

  auto tp = TcpTransport::connect("127.0.0.1", server.port());
  ASSERT_NE(tp, nullptr);
  ASSERT_TRUE(client_handshake(*tp, Hello{}, 5.0));

  ASSERT_TRUE(server.send_serialized(
      2, FrameType::ResultMsg, 4, [](std::size_t i, wire::Writer& w) {
        w.u64(i * 11);
        w.str("r" + std::to_string(i));
      }));
  for (std::size_t i = 0; i < 4; ++i) {
    Frame f;
    ASSERT_EQ(tp->recv_for(f, 5.0), RecvStatus::Ok);
    wire::Reader r(f.payload);
    EXPECT_EQ(r.u64(), i * 11);
    EXPECT_EQ(r.str(), "r" + std::to_string(i));
    EXPECT_TRUE(r.ok());
  }
  tp->close();
  server.stop();
}

// A chaos-wrapped client against the epoll loop: dup/reorder faults on the
// client's outbound path must never confuse the server — every delivered
// frame echoes back coherent, and the connection survives the plan.
TEST(EpollServer, SurvivesChaosInjectedClient) {
  EchoHandler h;
  EpollServer server(h);
  h.server = &server;
  server.start();

  std::shared_ptr<Transport> raw =
      TcpTransport::connect("127.0.0.1", server.port());
  ASSERT_NE(raw, nullptr);
  ChaosSpec spec;
  spec.dup = 0.15;
  spec.reorder = 0.15;
  spec.delay_prob = 0.1;
  spec.delay_s = 0.001;
  auto plan = std::make_shared<FaultPlan>(11, spec);
  auto tp = std::make_shared<FaultInjector>(raw, plan, "e0");
  ASSERT_TRUE(client_handshake(*tp, Hello{}, 5.0));

  const int kFrames = 100;
  for (int i = 0; i < kFrames; ++i)
    ASSERT_TRUE(tp->send(msg(FrameType::TaskMsg,
                             {static_cast<std::uint8_t>(i)})));
  // Dups inflate the echo count — and a duplicated *Hello* comes back as
  // an ordinary echoed frame too. Count only our pings; require that at
  // least every original came back whole (no drops in this spec).
  int got = 0;
  Frame f;
  while (got < kFrames && tp->recv_for(f, 5.0) == RecvStatus::Ok) {
    if (f.type == FrameType::TaskMsg && f.payload.size() == 1) ++got;
  }
  EXPECT_GE(got, kFrames);
  EXPECT_GE(h.frames.load(), kFrames);
  tp->close();
  server.stop();
}

// The C10K claim, in-process: hundreds of concurrent raw connections driven
// from one client thread via poll(), against a server that is ONE loop
// thread by construction. Every connection handshakes and echoes one frame.
TEST(EpollServer, ManyConcurrentConnectionsOneLoopThread) {
#if BSK_TSAN
  const int kConns = 64;
#else
  const int kConns = 512;
#endif
  EchoHandler h;
  EpollOptions eopts;
  eopts.handshake_timeout_wall_s = 30.0;
  EpollServer server(h, eopts);
  h.server = &server;
  server.start();

  // Raw nonblocking clients: we only need bytes on the wire, and one OS
  // thread must be able to drive all of them (mirroring the server's own
  // claim from the client side).
  const Frame hello = make_hello(Hello{});
  const Frame ping = msg(FrameType::TaskMsg, {7});
  std::vector<std::uint8_t> wire_bytes;
  for (const Frame* f : {&hello, &ping}) {
    const std::vector<std::uint8_t> enc = encode_frame(*f);
    wire_bytes.insert(wire_bytes.end(), enc.begin(), enc.end());
  }

  struct Client {
    int fd = -1;
    std::size_t sent = 0;
    std::size_t got = 0;  // bytes of reply seen (ack + echo)
  };
  std::vector<Client> clients(kConns);
  int opened = 0;
  for (auto& c : clients) {
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    ASSERT_GE(c.fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    (void)::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ++opened;
  }
  ASSERT_EQ(opened, kConns);

  // Single-thread poll loop: push the hello+ping bytes out, read back at
  // least one full ack frame per connection.
  const double deadline = wall_now() + 60.0;
  std::size_t done = 0;
  while (done < static_cast<std::size_t>(kConns) && wall_now() < deadline) {
    std::vector<pollfd> pfds;
    pfds.reserve(clients.size());
    for (auto& c : clients) {
      if (c.fd < 0) continue;
      short ev = 0;
      if (c.sent < wire_bytes.size()) ev |= POLLOUT;
      ev |= POLLIN;
      pfds.push_back({c.fd, ev, 0});
    }
    if (::poll(pfds.data(), pfds.size(), 1000) <= 0) continue;
    std::size_t pi = 0;
    for (auto& c : clients) {
      if (c.fd < 0) continue;
      const pollfd& p = pfds[pi++];
      if ((p.revents & POLLOUT) && c.sent < wire_bytes.size()) {
        const ssize_t n = ::send(c.fd, wire_bytes.data() + c.sent,
                                 wire_bytes.size() - c.sent, MSG_NOSIGNAL);
        if (n > 0) c.sent += static_cast<std::size_t>(n);
      }
      if (p.revents & (POLLIN | POLLHUP)) {
        std::uint8_t buf[512];
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          c.got += static_cast<std::size_t>(n);
          // ack frame + echoed ping is enough proof for this connection
          if (c.got >= 9 + 10) {  // ping echo: 9 hdr + 1 payload; ack > that
            ::close(c.fd);
            c.fd = -1;
            ++done;
          }
        }
      }
    }
  }
  EXPECT_EQ(done, static_cast<std::size_t>(kConns));
  EXPECT_EQ(h.hellos.load(), kConns);
  EXPECT_EQ(server.accepted(), static_cast<std::uint64_t>(kConns));

  for (auto& c : clients)
    if (c.fd >= 0) ::close(c.fd);
  server.stop();
}

// The forked-daemon soak: 64 concurrent role-1 sessions against one bskd.
// The old daemon spent 2+ threads per connection; the epoll daemon must
// stay bounded — loop + executors (snapshotted before the load, plus the
// worker cap) — while serving all of them.
TEST(BskdSoak, SixtyFourSessionsBoundedThreads) {
  BskdProcess daemon =
      spawn_bskd(BSK_BSKD_PATH, 10.0, {"--workers", "8"});
  ASSERT_TRUE(daemon.valid());

  const std::size_t threads_idle = proc_entries(daemon.pid, "task");
  ASSERT_GT(threads_idle, 0u);

  const int kConns = 64;
  std::vector<std::shared_ptr<Transport>> conns;
  Hello h;
  h.role = 1;
  h.node_kind = "echo";
  h.heartbeat_wall_s = 0.0;
  for (int i = 0; i < kConns; ++i) {
    std::shared_ptr<Transport> tp =
        TcpTransport::connect("127.0.0.1", daemon.port);
    ASSERT_NE(tp, nullptr) << "conn " << i;
    ASSERT_TRUE(client_handshake(*tp, h, 10.0)) << "conn " << i;
    conns.push_back(std::move(tp));
  }

  // Every session does real work: one task, one result.
  for (int i = 0; i < kConns; ++i) {
    rt::Task t = rt::Task::data(static_cast<std::uint64_t>(i), 0.0,
                                std::to_string(i));
    ASSERT_TRUE(conns[static_cast<std::size_t>(i)]->send(
        make_task(t, FrameType::TaskMsg, 1)));
  }
  for (int i = 0; i < kConns; ++i) {
    Frame f;
    ASSERT_EQ(conns[static_cast<std::size_t>(i)]->recv_for(f, 20.0),
              RecvStatus::Ok)
        << "conn " << i;
    const auto res = parse_task_seq(f);
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(res->second.id, static_cast<std::uint64_t>(i));
  }

  // Bounded threads: idle baseline + worker cap (8) + shm servers (none
  // here: TCP-only clients) + slack. Nothing close to 64 * thread-per-conn.
  const std::size_t threads_loaded = proc_entries(daemon.pid, "task");
  EXPECT_LE(threads_loaded, threads_idle + 8 + 4)
      << "daemon grew a thread per connection";

  for (auto& tp : conns) {
    tp->send(Frame{FrameType::Shutdown, {}});
    tp->close();
  }
  stop_bskd(daemon, SIGTERM);
}

// Shm negotiation end-to-end against a real daemon: a loopback WorkerPool
// should land on the shared-memory fast path and still compute correctly.
TEST(BskdSoak, WorkerPoolNegotiatesShmOnLoopback) {
  BskdProcess daemon = spawn_bskd(BSK_BSKD_PATH, 10.0);
  ASSERT_TRUE(daemon.valid());

  WorkerPoolOptions opts;
  opts.node_kind = "echo";
  ASSERT_TRUE(opts.allow_shm);  // the default: fast path is opt-out
  WorkerPool pool({{"127.0.0.1", daemon.port}}, opts);
  auto node = pool.make_node();
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(pool.remote_nodes_created(), 1u);
  EXPECT_EQ(pool.shm_attached(), 1u);

  // Tasks ride the ring: push a few and flush results back.
  std::vector<std::uint64_t> seen;
  for (int i = 0; i < 10; ++i) {
    rt::Task t = rt::Task::data(static_cast<std::uint64_t>(i), 0.0,
                                std::string("p") + std::to_string(i));
    if (auto r = node->process(std::move(t))) seen.push_back(r->id);
  }
  for (;;) {
    auto r = node->flush();
    if (!r) break;
    seen.push_back(r->id);
  }
  EXPECT_EQ(seen.size(), 10u);

  node.reset();
  stop_bskd(daemon, SIGTERM);
}

// And the opt-out: allow_shm=false must stay on plain TCP.
TEST(BskdSoak, ShmOptOutStaysOnTcp) {
  BskdProcess daemon = spawn_bskd(BSK_BSKD_PATH, 10.0);
  ASSERT_TRUE(daemon.valid());

  WorkerPoolOptions opts;
  opts.node_kind = "echo";
  opts.allow_shm = false;
  WorkerPool pool({{"127.0.0.1", daemon.port}}, opts);
  auto node = pool.make_node();
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(pool.shm_attached(), 0u);

  node->process(rt::Task::data(99, 0.0));
  auto r = node->flush();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->id, 99u);

  node.reset();
  stop_bskd(daemon, SIGTERM);
}

// Session churn: 1,000 sequential shm sessions, each one task and a clean
// Shutdown. Every ended session must hand back its drain thread, its fds
// and its thread's stack — the last is the check an exited-but-unjoined
// thread still fails, since it leaves the task list but stays mapped.
TEST(BskdSoak, ShmSessionChurnReturnsToBaseline) {
#if BSK_TSAN
  const int kSessions = 100;
#else
  const int kSessions = 1000;
#endif
  // One executor, so the executor pool cannot grow under the churn and
  // the daemon's thread count is exact.
  BskdProcess daemon = spawn_bskd(BSK_BSKD_PATH, 10.0, {"--workers", "1"});
  ASSERT_TRUE(daemon.valid());

  WorkerPoolOptions opts;
  opts.node_kind = "echo";
  WorkerPool pool({{"127.0.0.1", daemon.port}}, opts);
  const auto session = [&pool](int i) {
    auto node = pool.make_node();
    ASSERT_NE(node, nullptr);
    node->process(rt::Task::data(static_cast<std::uint64_t>(i), 0.0));
    const auto r = node->flush();
    ASSERT_TRUE(r.has_value()) << "session " << i;
    EXPECT_EQ(r->id, static_cast<std::uint64_t>(i));
    node->on_stop();  // Shutdown over the ring, then close
  };
  const auto settle = [&daemon](std::size_t threads, std::size_t fds) {
    const double deadline = wall_now() + 10.0;
    while (wall_now() < deadline &&
           (proc_entries(daemon.pid, "task") > threads ||
            proc_entries(daemon.pid, "fd") > fds))
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };

  // Warm-up pays the one-time costs: the executor thread, and the heap
  // arenas malloc keeps for as many threads as ever allocated at once
  // (64 MiB of address space each). Concurrent warm-up sessions overlap
  // more daemon threads than the sequential churn below ever does, so the
  // baseline already holds every arena the churn can use.
  const int kWarmupThreads = 6, kWarmupEach = 4;
  {
    std::vector<std::jthread> warm;
    for (int t = 0; t < kWarmupThreads; ++t)
      warm.emplace_back([&session] {
        for (int i = 0; i < kWarmupEach; ++i) session(i);
      });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::size_t threads0 = proc_entries(daemon.pid, "task");
  const std::size_t fds0 = proc_entries(daemon.pid, "fd");
  const std::size_t vm0 = vm_size_kib(daemon.pid);
  ASSERT_GT(threads0, 0u);
  ASSERT_GT(vm0, 0u);

  for (int i = 0; i < kSessions; ++i) {
    session(i);
    if (::testing::Test::HasFatalFailure()) break;
  }
  EXPECT_EQ(pool.shm_attached(), static_cast<std::size_t>(
                                     kWarmupThreads * kWarmupEach + kSessions));

  settle(threads0, fds0);
  EXPECT_LE(proc_entries(daemon.pid, "task"), threads0);
  EXPECT_LE(proc_entries(daemon.pid, "fd"), fds0);
  EXPECT_LE(vm_size_kib(daemon.pid), vm0 + 64 * 1024)
      << "session churn grew the daemon's address space";
  stop_bskd(daemon, SIGTERM);
}

// Liveness without a reader: a worker idling with no tasks receives no
// frames, so only the daemon's heartbeats — drained by the failure
// detector's own polls — keep it alive past its liveness timeout. On TCP
// they arrive on the worker's connection; on shm, on the anchor under the
// ring.
TEST(BskdSoak, IdleWorkerIsNotDeclaredFailed) {
  BskdProcess daemon = spawn_bskd(BSK_BSKD_PATH, 10.0);
  ASSERT_TRUE(daemon.valid());
  for (const bool shm : {false, true}) {
    WorkerPoolOptions opts;
    opts.node_kind = "echo";
    opts.allow_shm = shm;
    opts.heartbeat_wall_s = 0.05;
    opts.node.liveness_timeout_wall_s = 0.5;
    WorkerPool pool({{"127.0.0.1", daemon.port}}, opts);
    auto node = pool.make_node();
    ASSERT_NE(node, nullptr);
    ASSERT_EQ(pool.remote_nodes_created(), 1u);
    ASSERT_EQ(pool.shm_attached(), shm ? 1u : 0u);

    const double t0 = wall_now();
    while (wall_now() - t0 < 3 * opts.node.liveness_timeout_wall_s) {
      EXPECT_FALSE(node->failed()) << (shm ? "shm" : "tcp");
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    EXPECT_FALSE(node->failed()) << (shm ? "shm" : "tcp");
    node->process(rt::Task::data(5, 0.0));
    const auto r = node->flush();
    ASSERT_TRUE(r.has_value()) << (shm ? "shm" : "tcp");
    EXPECT_EQ(r->id, 5u);
  }
  stop_bskd(daemon, SIGTERM);
}

TEST(EpollServer, FdExhaustionBacksOffAndRecovers) {
  // Regression for the fleet-scale boot failure: accept4 failing with
  // EMFILE on an edge-triggered listener either spun the loop at 100% CPU
  // or (with a bare return) parked the queued backlog forever, since no
  // further edge fires for connections that already arrived. The fix backs
  // off on the loop timer and retries.
  //
  // Setup: clients connect while the loop is NOT yet running (the TCP
  // handshake completes into the listener backlog), then every free fd
  // slot is plugged and the loop started — so the very first accept hits
  // EMFILE deterministically.
  EchoHandler h;
  EpollServer server(h);
  h.server = &server;
  ASSERT_TRUE(server.valid());

  constexpr int kClients = 4;
  std::vector<std::shared_ptr<Transport>> clients;
  for (int i = 0; i < kClients; ++i) {
    auto tp = TcpTransport::connect("127.0.0.1", server.port());
    ASSERT_NE(tp, nullptr);
    clients.push_back(std::move(tp));
  }

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit low = saved;
  low.rlim_cur = 256;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  std::vector<int> plugs;  // fill every slot below the lowered limit
  for (;;) {
    const int fd = ::dup(0);
    if (fd < 0) break;
    plugs.push_back(fd);
  }

  server.start();
  const double bo_deadline = wall_now() + 5.0;
  while (server.accept_backoffs() == 0 && wall_now() < bo_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GT(server.accept_backoffs(), 0u);
  EXPECT_EQ(server.accepted(), 0u);

  // Free the descriptors: the timer-driven retry must now drain the
  // backlog without any new connection supplying an edge.
  for (int fd : plugs) ::close(fd);
  ::setrlimit(RLIMIT_NOFILE, &saved);
  const double acc_deadline = wall_now() + 5.0;
  while (server.accepted() < static_cast<std::uint64_t>(kClients) &&
         wall_now() < acc_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(server.accepted(), static_cast<std::uint64_t>(kClients));

  // And the recovered connections are fully functional.
  for (auto& tp : clients) {
    HelloAck ack;
    ASSERT_TRUE(client_handshake(*tp, Hello{}, 5.0, &ack));
    EXPECT_TRUE(ack.ok);
  }
  for (auto& tp : clients) tp->close();
  server.stop();
}

}  // namespace
}  // namespace bsk::net
