// bskd — the bsk worker daemon.
//
// Hosts farm workers for a parent process speaking the bsk::net wire
// protocol. One TCP connection per hosted worker: the parent's
// RemoteWorkerNode connects, handshakes (Hello/HelloAck), then streams
// TaskMsg frames; bskd runs each task through the node kind the handshake
// requested and replies with a ResultMsg (a WorkerDone-kind reply marks a
// filtered task). The daemon beats a heartbeat every `heartbeat_wall_s`
// (from the Hello) on each worker connection so the parent's failure
// detector can tell a long-running task from a dead peer.
//
// Architecture: one edge-triggered epoll loop (EpollServer) owns every
// connection — accept, framing, heartbeats, and flow control all happen on
// that single thread, so the daemon holds thousands of connections with a
// bounded thread count. Work that can block (task execution holds the
// session lock for the task's duration) runs on a lazily-grown executor
// pool capped by --workers: each connection owns an ordered inbox of work
// items (handshake, frames, close) that at most one executor drains at a
// time, preserving per-connection ordering without a thread per connection.
//
// Colocated fast path: a Hello carrying want_shm makes bskd create a named
// shared-memory segment (ShmTransport::create_named) and advertise it in
// the HelloAck; the client attaches and task/result frames then bypass the
// kernel entirely. The TCP connection stays open as the anchor — heartbeats
// and Leave still travel over it, and its death closes the shm session.
//
// Reliability: tasks carry sequence numbers; bskd executes each sequence at
// most once and keeps a bounded cache of recent results, so a retransmitted
// task (lost TaskMsg, lost ResultMsg, or duplication on a faulty wire) gets
// its cached result resent instead of re-executing. A connection that dies
// without a Shutdown parks its session for --session-linger seconds: a
// client reconnecting with the session id (and the right epoch — stale
// zombies are fenced) re-attaches the same worker node and the same dedup
// state, so a transient partition costs a replay of unacked tasks, not a
// worker replacement.
//
//   bskd [--port N] [--port-file PATH] [--session-linger S] [--workers N]
//        [--trace-file PATH] [--cluster] [--join HOST:PORT[,HOST:PORT...]]
//        [--cores N] [--core-speed X] [--fanout K] [--beacon PORT]
//
// --port 0 (the default) binds an ephemeral port; --port-file writes the
// bound port as decimal text once listening — how spawn_bskd() and the
// two-process example learn where to connect.
//
// Observability: a connection whose Hello carries role 2 is a *stats
// channel* — it gets StatsReq/StatsRep RPC service instead of a worker
// session, answering with this process's Prometheus exposition, metrics
// JSONL, or decision-trace JSONL (spans + event log), so a parent process
// can fold the daemon's half of the story into one merged trace. A role-2
// channel also answers MembershipReq with the live cluster view.
//
// Clustering (bsk::cluster): --join seeds (or bare --cluster for a
// seed-less first node, optionally with a --beacon UDP discovery port)
// starts a ClusterNode gossiping this daemon's membership record —
// host:port plus the node weight (--cores × --core-speed) the weighted
// hierarchy election ranks on. Role-3 connections are gossip exchanges
// answered inline on the loop; on orderly shutdown the daemon broadcasts a
// Leave frame so peers deregister it immediately instead of waiting out
// the suspicion window.

#include <signal.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/node.hpp"
#include "net/epoll_server.hpp"
#include "net/remote_conduit.hpp"
#include "net/resume_core.hpp"
#include "net/shm.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rt/node.hpp"
#include "support/clock.hpp"
#include "support/event_log.hpp"
#include "support/thread_annotations.hpp"

namespace {

std::atomic<bool> g_stop{false};

/// The fleet-membership engine; null when clustering is off.
std::unique_ptr<bsk::cluster::ClusterNode> g_cluster;

/// The epoll loop serving every connection; set once before serving starts,
/// cleared at shutdown (the reply seam for sessions and stats channels).
bsk::net::EpollServer* g_server = nullptr;

void on_signal(int) { g_stop.store(true); }

/// Instantiate the worker node a session asked for.
std::unique_ptr<bsk::rt::Node> make_node(const std::string& kind) {
  using bsk::rt::LambdaNode;
  using bsk::rt::SimComputeNode;
  using bsk::rt::Task;
  if (kind == "echo")
    return std::make_unique<LambdaNode>(
        [](Task t) -> std::optional<Task> { return t; });
  if (kind == "filter_odd")
    return std::make_unique<LambdaNode>([](Task t) -> std::optional<Task> {
      if (t.id % 2 == 1) return std::nullopt;
      return t;
    });
  return std::make_unique<SimComputeNode>();  // "sim" and anything unknown
}

/// Cached results kept per session for duplicate-seq resends. Far larger
/// than any client credit window, so a still-wanted result is never evicted.
constexpr std::size_t kResultCacheCap = 256;

/// One hosted worker: the node, its dedup state, and whichever connection
/// currently owns it. Survives connection death (parked) until reaped.
/// The epoch fence and the dedup cache live in net::SessionCore — the pure
/// protocol state the model checker (analysis/mc) drives directly.
struct Session {
  std::uint64_t id = 0;
  std::string kind;

  bsk::support::Mutex mu{"bskd.Session"};
  bsk::net::SessionCore core BSK_GUARDED_BY(mu){kResultCacheCap};
  std::unique_ptr<bsk::rt::Node> node BSK_GUARDED_BY(mu);
  bool secured BSK_GUARDED_BY(mu) = false;
  /// The epoll connection owning this session (0 while parked).
  bsk::net::EpollServer::ConnId conn BSK_GUARDED_BY(mu) = 0;
  /// Colocated fast path, if negotiated; replies prefer it once attached.
  std::shared_ptr<bsk::net::ShmTransport> shm BSK_GUARDED_BY(mu);
  /// Atomic so the reaper can scan without the session lock (which task
  /// execution holds for the duration of a task).
  std::atomic<double> parked_at{-1.0};
};

/// Send a frame back to the session's client: over the shm ring when the
/// client has attached one (bypassing the kernel), else over the epoll
/// connection. A never-attached segment is skipped — writing into a ring
/// nobody drains would just fill it.
bool reply_to(Session& s, const bsk::net::Frame& f) BSK_REQUIRES(s.mu) {
  if (s.shm && s.shm->peer_attached() && !s.shm->closed())
    return s.shm->send(f);
  return s.conn != 0 && g_server != nullptr && g_server->send(s.conn, f);
}

class SessionRegistry {
 public:
  std::shared_ptr<Session> create(const std::string& kind) {
    auto s = std::make_shared<Session>();
    s->kind = kind;
    {
      bsk::support::MutexLock slk(s->mu);
      s->node = make_node(kind);
      s->node->on_start();
    }
    bsk::support::MutexLock lk(mu_);
    s->id = next_++;
    sessions_[s->id] = s;
    return s;
  }

  /// Look up a session for resume. The epoch fence rejects reconnects that
  /// present a stale view (a zombie from before an earlier re-attach).
  std::shared_ptr<Session> find_for_resume(std::uint64_t id) {
    bsk::support::MutexLock lk(mu_);
    auto it = sessions_.find(id);
    return it == sessions_.end() ? nullptr : it->second;
  }

  /// Park a dead connection's session (unless a newer epoch stole it).
  void park(const std::shared_ptr<Session>& s, std::uint32_t my_epoch) {
    bsk::support::MutexLock lk(s->mu);
    if (s->core.epoch() != my_epoch) return;  // re-attached elsewhere
    s->conn = 0;
    if (s->shm) {
      s->shm->close();  // a resume renegotiates a fresh segment
      s->shm.reset();
    }
    s->parked_at = bsk::net::wall_now();
  }

  /// Orderly shutdown: retire the node and forget the session.
  void erase(const std::shared_ptr<Session>& s, std::uint32_t my_epoch) {
    {
      bsk::support::MutexLock lk(s->mu);
      if (s->core.epoch() != my_epoch) return;
      if (s->shm) {
        s->shm->close();
        s->shm.reset();
      }
      if (s->node) s->node->on_stop();
    }
    bsk::support::MutexLock lk(mu_);
    sessions_.erase(s->id);
  }

  /// Drop sessions parked longer than `linger_s` — the client's grace
  /// window has certainly closed; it will have recruited a replacement.
  void reap(double linger_s) {
    std::vector<std::shared_ptr<Session>> dead;
    {
      bsk::support::MutexLock lk(mu_);
      for (auto it = sessions_.begin(); it != sessions_.end();) {
        const double parked = it->second->parked_at.load();
        if (parked >= 0.0 && bsk::net::wall_now() - parked > linger_s) {
          dead.push_back(it->second);
          it = sessions_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (auto& s : dead) {
      bsk::support::MutexLock slk(s->mu);
      if (s->node) s->node->on_stop();
    }
  }

  std::vector<std::shared_ptr<Session>> snapshot() {
    bsk::support::MutexLock lk(mu_);
    std::vector<std::shared_ptr<Session>> out;
    out.reserve(sessions_.size());
    for (auto& [id, s] : sessions_) out.push_back(s);
    return out;
  }

  /// Daemon shutdown: retire every node.
  void stop_all() {
    std::map<std::uint64_t, std::shared_ptr<Session>> all;
    {
      bsk::support::MutexLock lk(mu_);
      all.swap(sessions_);
    }
    for (auto& [id, s] : all) {
      bsk::support::MutexLock slk(s->mu);
      if (s->shm) {
        s->shm->close();
        s->shm.reset();
      }
      if (s->node) s->node->on_stop();
    }
  }

 private:
  bsk::support::Mutex mu_{"bskd.SessionRegistry"};
  std::map<std::uint64_t, std::shared_ptr<Session>> sessions_
      BSK_GUARDED_BY(mu_);
  std::uint64_t next_ BSK_GUARDED_BY(mu_) = 1;
};

SessionRegistry g_registry;

/// Execute (or dedup) one sequenced task and send the reply. Caller holds
/// nothing; the session lock serializes execution across connections.
void handle_task(Session& s, const bsk::net::Frame& f) {
  using namespace bsk::net;
  auto parsed = parse_task_seq(f);
  if (!parsed) return;  // malformed (corrupt payload): drop, stream lives
  const std::uint64_t seq = parsed->first;

  bsk::support::MutexLock lk(s.mu);
  if (const Frame* cached = s.core.admit(seq)) {
    // Already executed: a retransmit or wire duplicate. Resend the cached
    // result — never re-execute (at-most-once execution per seq).
    reply_to(s, *cached);
    return;
  }
  auto r = s.node->process(std::move(parsed->second));
  const Frame reply = r ? make_task(*r, FrameType::ResultMsg, seq)
                        : make_task(bsk::rt::Task::worker_done(),
                                    FrameType::ResultMsg, seq);
  s.core.cache(seq, reply);
  reply_to(s, reply);
}

/// Render one obs snapshot as text for a StatsRep.
std::string stats_text(bsk::net::StatsRequest::What what) {
  std::ostringstream os;
  switch (what) {
    case bsk::net::StatsRequest::What::Prometheus:
      bsk::obs::MetricsRegistry::global().write_prometheus(os);
      break;
    case bsk::net::StatsRequest::What::MetricsJsonl:
      bsk::obs::MetricsRegistry::global().write_jsonl(os);
      break;
    case bsk::net::StatsRequest::What::TraceJsonl:
      // Decision spans plus the raw event log: everything the merge tool
      // needs to causally join this process's story to the parent's.
      bsk::obs::TraceLog::global().dump_jsonl(os);
      bsk::support::global_event_log().dump_jsonl(os);
      break;
  }
  return os.str();
}

/// Bounded, lazily-grown worker pool. The epoll loop hands every step that
/// can block here (task execution holds the session lock for the task's
/// duration), so the daemon's thread count is bounded by --workers instead
/// of by connection count. Threads spawn only when work outruns the idle
/// set, so a quiet daemon stays tiny.
class ExecutorPool {
 public:
  explicit ExecutorPool(std::size_t cap)
      : cap_(std::max<std::size_t>(1, cap)) {}
  ~ExecutorPool() { stop(); }

  void submit(std::function<void()> fn) {
    {
      bsk::support::MutexLock lk(mu_);
      if (stopping_) return;
      queue_.push_back(std::move(fn));
      if (idle_ == 0 && threads_.size() < cap_)
        threads_.emplace_back(
            [this](const std::stop_token& st) { run(st); });
    }
    cv_.notify_one();
  }

  /// Drain the queue, then join every worker. Idempotent.
  void stop() {
    std::vector<std::jthread> workers;
    {
      bsk::support::MutexLock lk(mu_);
      stopping_ = true;
      workers.swap(threads_);
    }
    cv_.notify_all();
    workers.clear();  // joins (each worker drains, then exits)
  }

 private:
  void run(const std::stop_token& st) {
    for (;;) {
      std::function<void()> fn;
      {
        bsk::support::MutexLock lk(mu_);
        while (queue_.empty()) {
          if (stopping_ || st.stop_requested()) return;
          ++idle_;
          cv_.wait_for(mu_, std::chrono::milliseconds(100));
          --idle_;
        }
        fn = std::move(queue_.front());
        queue_.pop_front();
      }
      fn();
    }
  }

  const std::size_t cap_;
  mutable bsk::support::Mutex mu_{"bskd.ExecutorPool"};
  bsk::support::CondVar cv_;
  std::deque<std::function<void()>> queue_ BSK_GUARDED_BY(mu_);
  std::vector<std::jthread> threads_ BSK_GUARDED_BY(mu_);
  std::size_t idle_ BSK_GUARDED_BY(mu_) = 0;
  bool stopping_ BSK_GUARDED_BY(mu_) = false;
};

/// The daemon's connection brain: EpollServer handler callbacks append
/// typed work items (handshake, frame, close) to a per-connection inbox,
/// and at most one executor at a time drains each inbox in order — the
/// loop thread never touches a session lock, and per-connection frame
/// ordering is preserved without a thread per connection.
class Daemon final : public bsk::net::EpollServer::Handler {
 public:
  using ConnId = bsk::net::EpollServer::ConnId;

  Daemon(double session_linger_s, std::size_t workers)
      : linger_(session_linger_s), pool_(workers) {}

  bool start(std::uint16_t port) {
    bsk::net::EpollOptions opts;
    opts.port = port;
    server_ = std::make_unique<bsk::net::EpollServer>(*this, opts);
    if (!server_->valid()) return false;
    g_server = server_.get();
    // Launch only after server_/g_server are published: the loop thread can
    // fire on_hello immediately, and handle_hello reads both.
    server_->start();
    return true;
  }

  std::uint16_t port() const { return server_->port(); }
  double linger() const { return linger_; }

  /// Orderly stop: say goodbye to live sessions (immediate failover on the
  /// client, no grace-window burn), then wind everything down.
  void shutdown() {
    using namespace bsk::net;
    for (auto& s : g_registry.snapshot()) {
      bsk::support::MutexLock lk(s->mu);
      if (s->conn != 0) {
        LeaveMsg bye;
        bye.self.port = 0;  // identity is the connection; port unused here
        server_->send(s->conn, make_leave(bye));
      }
      if (s->shm) s->shm->close();
    }
    server_->stop();  // no callbacks past this point
    pool_.stop();     // queued work drains; replies to dead conns no-op
    {
      bsk::support::MutexLock lk(shm_mu_);
      shm_drains_.clear();  // joins; g_stop and closed segments end them
    }
    g_registry.stop_all();
    g_server = nullptr;
  }

 private:
  struct Item {
    enum class Kind { Hello, Frame, Closed } kind = Kind::Frame;
    bsk::net::Hello hello;  // Kind::Hello
    bsk::net::Frame frame;  // Kind::Frame
  };

  struct ConnState {
    explicit ConnState(ConnId id_in) : id(id_in) {}
    const ConnId id;

    bsk::support::Mutex inbox_mu{"bskd.ConnState.inbox"};  // light: push/pop only, never held long
    std::deque<Item> inbox BSK_GUARDED_BY(inbox_mu);
    bool scheduled BSK_GUARDED_BY(inbox_mu) = false;

    // Pump-only state (one pump runs per connection at a time).
    int role = 0;  // 0 = pre-handshake, -1 = refused/done
    std::shared_ptr<Session> session;
    std::uint32_t epoch = 0;
  };

  // Loop-thread callbacks: enqueue and get out of the way.
  void on_hello(ConnId c, const bsk::net::Hello& h) override {
    auto cs = std::make_shared<ConnState>(c);
    {
      bsk::support::MutexLock lk(conns_mu_);
      conns_[c] = cs;
    }
    {
      bsk::support::MutexLock lk(cs->inbox_mu);
      cs->inbox.push_back(Item{Item::Kind::Hello, h, {}});
    }
    schedule(cs);
  }

  void on_frame(ConnId c, bsk::net::Frame&& f) override {
    auto cs = find(c);
    if (!cs) return;
    {
      bsk::support::MutexLock lk(cs->inbox_mu);
      cs->inbox.push_back(Item{Item::Kind::Frame, {}, std::move(f)});
    }
    schedule(cs);
  }

  void on_closed(ConnId c) override {
    std::shared_ptr<ConnState> cs;
    {
      bsk::support::MutexLock lk(conns_mu_);
      auto it = conns_.find(c);
      if (it == conns_.end()) return;
      cs = it->second;
      conns_.erase(it);
    }
    {
      bsk::support::MutexLock lk(cs->inbox_mu);
      cs->inbox.push_back(Item{Item::Kind::Closed, {}, {}});
    }
    schedule(cs);
  }

  std::shared_ptr<ConnState> find(ConnId c) {
    bsk::support::MutexLock lk(conns_mu_);
    auto it = conns_.find(c);
    return it == conns_.end() ? nullptr : it->second;
  }

  void schedule(const std::shared_ptr<ConnState>& cs) {
    bool spawn = false;
    {
      bsk::support::MutexLock lk(cs->inbox_mu);
      if (!cs->scheduled && !cs->inbox.empty()) {
        cs->scheduled = true;
        spawn = true;
      }
    }
    if (spawn)
      pool_.submit([this, cs] { pump(cs); });
  }

  void pump(const std::shared_ptr<ConnState>& cs) {
    for (;;) {
      Item it;
      {
        bsk::support::MutexLock lk(cs->inbox_mu);
        if (cs->inbox.empty()) {
          cs->scheduled = false;
          return;
        }
        it = std::move(cs->inbox.front());
        cs->inbox.pop_front();
      }
      process(*cs, it);
    }
  }

  void process(ConnState& cs, Item& it) {
    using namespace bsk::net;
    switch (it.kind) {
      case Item::Kind::Hello:
        handle_hello(cs, it.hello);
        return;
      case Item::Kind::Frame:
        switch (cs.role) {
          case 1:
            role1_frame(cs, it.frame);
            return;
          case 2:
            role2_frame(cs, it.frame);
            return;
          case 3:
            role3_frame(cs, it.frame);
            return;
          default:
            return;  // refused connection still draining
        }
      case Item::Kind::Closed:
        if (cs.role == 1 && cs.session) {
          if (g_stop.load()) {
            bsk::support::global_event_log().record(
                "bskd", "sessionEnd", static_cast<double>(cs.session->id));
            g_registry.erase(cs.session, cs.epoch);
          } else {
            // Connection died without a goodbye: park the session so a
            // client riding out a transient partition can resume it.
            bsk::support::global_event_log().record(
                "bskd", "sessionPark", static_cast<double>(cs.session->id));
            g_registry.park(cs.session, cs.epoch);
          }
          cs.session.reset();
        }
        cs.role = -1;
        return;
    }
  }

  // ---------------------------------------------------------- handshake

  void handle_hello(ConnState& cs, const bsk::net::Hello& hello) {
    using namespace bsk::net;
    if (hello.magic != kMagic || hello.version != kProtocolVersion) {
      HelloAck nak;
      nak.ok = false;
      server_->send(cs.id, make_hello_ack(nak));
      server_->close_conn(cs.id);
      cs.role = -1;
      return;
    }
    if (hello.clock_scale > 0.0)
      bsk::support::Clock::set_scale(hello.clock_scale);
    if (hello.role == 2) {
      cs.role = 2;
      HelloAck ack;  // no worker session behind a stats channel
      server_->send(cs.id, make_hello_ack(ack));
      return;
    }
    if (hello.role == 3) {
      cs.role = 3;
      HelloAck ack;  // gossip channel: refused when clustering is off
      ack.ok = g_cluster != nullptr;
      server_->send(cs.id, make_hello_ack(ack));
      if (!g_cluster) {
        server_->close_conn(cs.id);
        cs.role = -1;
      }
      return;
    }

    cs.role = 1;
    const double hb =
        hello.heartbeat_wall_s > 0.0 ? hello.heartbeat_wall_s : 0.25;

    std::shared_ptr<Session> session;
    std::uint32_t my_epoch = 0;
    bool resumed = false;
    if (hello.resume_session != 0) {
      if (auto s = g_registry.find_for_resume(hello.resume_session)) {
        bsk::support::MutexLock lk(s->mu);
        // The epoch fence + acked-result pruning is SessionCore's decision
        // (the model checker drives the same call); what follows is epoll
        // bookkeeping: steal the session from whatever connection held it
        // (a half-dead one during an asymmetric partition, or a parked
        // slot). Closing the old connection fires its Closed item, where
        // the epoch bump makes the park a no-op.
        if (s->core.try_resume(hello.resume_epoch, hello.last_acked_seq,
                               my_epoch)) {
          if (s->conn != 0) server_->close_conn(s->conn);
          if (s->shm) {
            s->shm->close();  // the new connection renegotiates below
            s->shm.reset();
          }
          s->conn = cs.id;
          s->parked_at = -1.0;
          session = s;
          resumed = true;
        }
      }
    }
    if (!session) {
      session = g_registry.create(hello.node_kind);
      bsk::support::MutexLock lk(session->mu);
      my_epoch = session->core.fresh_attach();
      session->conn = cs.id;
    }
    cs.session = session;
    cs.epoch = my_epoch;

    HelloAck ack;
    ack.session = session->id;
    ack.epoch = my_epoch;
    ack.resumed = resumed;

    // Colocated fast path: the client asked for shm, so create a named
    // segment and advertise it in the ack. Failure is silent — the ack
    // simply carries no name and the session stays on TCP, which is served
    // identically.
    std::shared_ptr<ShmTransport> shm;
    if (hello.want_shm != 0) {
      ShmOptions so;
      const std::size_t want =
          hello.shm_ring_bytes != 0 ? hello.shm_ring_bytes : (1u << 20);
      so.ring_bytes = std::clamp<std::size_t>(want, 64u << 10, 8u << 20);
      std::string name;
      shm = ShmTransport::create_named(name, so);
      if (shm) {
        ack.shm_name = name;
        ack.shm_ring_bytes = static_cast<std::uint32_t>(shm->ring_bytes());
        bsk::support::MutexLock lk(session->mu);
        session->shm = shm;
      }
    }

    server_->send(cs.id, make_hello_ack(ack));
    if (shm) serve_shm_async(session, shm, my_epoch, cs.id);
    bsk::support::global_event_log().record(
        "bskd", resumed ? "sessionResume" : "sessionStart",
        static_cast<double>(session->id), session->kind);
    server_->set_heartbeat(cs.id, hb);
  }

  // --------------------------------------------------------- role frames

  void role1_frame(ConnState& cs, const bsk::net::Frame& f) {
    using namespace bsk::net;
    switch (f.type) {
      case FrameType::TaskMsg:
        handle_task(*cs.session, f);
        return;
      case FrameType::SecureReq: {
        bsk::support::MutexLock lk(cs.session->mu);
        cs.session->secured = true;
        reply_to(*cs.session, Frame{FrameType::SecureAck, {}});
        return;
      }
      case FrameType::Shutdown:
        bsk::support::global_event_log().record(
            "bskd", "sessionEnd", static_cast<double>(cs.session->id));
        g_registry.erase(cs.session, cs.epoch);
        server_->close_conn(cs.id);
        cs.session.reset();
        cs.role = -1;
        return;
      default:
        return;  // not meaningful on a worker channel
    }
  }

  void role2_frame(ConnState& cs, const bsk::net::Frame& f) {
    using namespace bsk::net;
    if (f.type == FrameType::Shutdown) {
      server_->close_conn(cs.id);
      cs.role = -1;
      return;
    }
    if (f.type == FrameType::MembershipReq) {
      const auto seq = parse_membership_req(f);
      if (!seq) return;
      MembershipReply rep;
      rep.seq = *seq;
      if (g_cluster) {
        rep.ok = true;
        rep.view = g_cluster->view();
      }
      server_->send(cs.id, make_membership_rep(rep));
      return;
    }
    const auto req = parse_stats_req(f);
    if (!req) return;  // not meaningful on a stats channel
    StatsReply rep;
    rep.seq = req->seq;
    rep.ok = true;
    rep.text = stats_text(req->what);
    server_->send(cs.id, make_stats_rep(rep));
  }

  void role3_frame(ConnState& cs, const bsk::net::Frame& f) {
    std::optional<bsk::net::Frame> reply;
    const bool keep = g_cluster && g_cluster->handle_frame(f, reply);
    if (reply) server_->send(cs.id, *reply);
    if (!keep) {
      server_->close_conn(cs.id);
      cs.role = -1;
    }
  }

  // ----------------------------------------------------------- shm serve

  /// One blocking drain thread per negotiated segment: shm recv uses the
  /// spin→yield→futex ladder, so a dedicated thread is what keeps the
  /// colocated round-trip in the microsecond range (an epoll loop cannot
  /// wait on a futex in shared memory). Bounded by the number of colocated
  /// clients that negotiated shm, not by connection count.
  void serve_shm_async(std::shared_ptr<Session> s,
                       std::shared_ptr<bsk::net::ShmTransport> shm,
                       std::uint32_t my_epoch, ConnId conn) {
    bsk::support::MutexLock lk(shm_mu_);
    // Join the drains of sessions that ended: an exited thread keeps its
    // stack mapped until it is joined, so session churn would otherwise
    // grow the daemon's address space without bound.
    shm_drains_.remove_if([](const ShmDrain& d) { return d.done.load(); });
    ShmDrain& d = shm_drains_.emplace_back();
    d.thread = std::jthread([this, &done = d.done, s = std::move(s),
                             shm = std::move(shm), my_epoch,
                             conn](const std::stop_token& st) {
      serve_shm(st, s, shm, my_epoch, conn);
      done.store(true);
    });
  }

  void serve_shm(const std::stop_token& st,
                 const std::shared_ptr<Session>& s,
                 const std::shared_ptr<bsk::net::ShmTransport>& shm,
                 std::uint32_t my_epoch, ConnId conn) {
    using namespace bsk::net;
    while (!g_stop.load() && !st.stop_requested() && !shm->closed()) {
      Frame f;
      switch (shm->recv_for(f, 0.25)) {
        case RecvStatus::Closed:
          return;  // anchor close parks the session via its Closed item
        case RecvStatus::TimedOut:
          continue;
        case RecvStatus::Ok:
          break;
      }
      switch (f.type) {
        case FrameType::TaskMsg:
          handle_task(*s, f);
          break;
        case FrameType::SecureReq: {
          bsk::support::MutexLock lk(s->mu);
          s->secured = true;
          reply_to(*s, Frame{FrameType::SecureAck, {}});
          break;
        }
        case FrameType::Shutdown:
          // Clean goodbye over the fast path: retire the session; closing
          // the anchor fires the conn's Closed item, fenced by the epoch.
          bsk::support::global_event_log().record(
              "bskd", "sessionEnd", static_cast<double>(s->id));
          g_registry.erase(s, my_epoch);
          server_->close_conn(conn);
          return;
        default:
          break;  // not meaningful on a worker channel
      }
    }
  }

  const double linger_;
  ExecutorPool pool_;
  std::unique_ptr<bsk::net::EpollServer> server_;

  mutable bsk::support::Mutex conns_mu_{"bskd.conns"};
  std::map<ConnId, std::shared_ptr<ConnState>> conns_
      BSK_GUARDED_BY(conns_mu_);

  struct ShmDrain {
    std::atomic<bool> done{false};  ///< set by the thread as it finishes
    std::jthread thread;
  };
  bsk::support::Mutex shm_mu_{"bskd.shm"};
  std::list<ShmDrain> shm_drains_ BSK_GUARDED_BY(shm_mu_);
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--port-file PATH] [--session-linger S]"
               " [--workers N] [--trace-file PATH] [--cluster]"
               " [--join HOST:PORT[,HOST:PORT...]] [--cores N]"
               " [--core-speed X] [--fanout K] [--beacon PORT]"
               " [--gossip-period S] [--gossip-full]\n",
               argv0);
  return 2;
}

/// Raise RLIMIT_NOFILE to the hard cap. A fleet node holds one fd per
/// gossip peer plus worker/stats connections; the common soft default of
/// 1024 strangles a 128-daemon fleet long before memory does. Best-effort —
/// on failure the epoll accept backoff is the safety net.
void raise_nofile_limit() {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return;
  if (rl.rlim_cur >= rl.rlim_max) return;
  rl.rlim_cur = rl.rlim_max;
  ::setrlimit(RLIMIT_NOFILE, &rl);
}

/// Parse "host:port" (host defaults to loopback when omitted: ":7000").
std::optional<bsk::net::Endpoint> parse_endpoint(const std::string& s) {
  const auto colon = s.rfind(':');
  if (colon == std::string::npos) return std::nullopt;
  bsk::net::Endpoint ep;
  if (colon > 0) ep.host = s.substr(0, colon);
  const std::string port = s.substr(colon + 1);
  char* end = nullptr;
  const unsigned long v = std::strtoul(port.c_str(), &end, 10);
  if (end == port.c_str() || *end != '\0' || v == 0 || v > 65535)
    return std::nullopt;
  ep.port = static_cast<std::uint16_t>(v);
  return ep;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t port = 0;
  std::string port_file;
  std::string trace_file;
  double session_linger_s = 10.0;
  std::size_t workers = 64;
  bool cluster = false;
  bsk::cluster::ClusterOptions copts;
  std::uint32_t cores = std::max(1u, std::thread::hardware_concurrency());
  double core_speed = 1.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--cluster") {
      cluster = true;
    } else if (arg == "--join" && i + 1 < argc) {
      cluster = true;
      std::stringstream ss(argv[++i]);
      std::string one;
      while (std::getline(ss, one, ',')) {
        const auto ep = parse_endpoint(one);
        if (!ep) {
          std::fprintf(stderr, "bskd: invalid seed '%s'\n", one.c_str());
          return usage(argv[0]);
        }
        copts.seeds.push_back(*ep);
      }
    } else if (arg == "--cores" && i + 1 < argc) {
      const char* s = argv[++i];
      char* end = nullptr;
      const unsigned long v = std::strtoul(s, &end, 10);
      if (end == s || *end != '\0' || v == 0) {
        std::fprintf(stderr, "bskd: invalid cores '%s'\n", s);
        return usage(argv[0]);
      }
      cores = static_cast<std::uint32_t>(v);
    } else if (arg == "--core-speed" && i + 1 < argc) {
      const char* s = argv[++i];
      char* end = nullptr;
      const double v = std::strtod(s, &end);
      if (end == s || *end != '\0' || v <= 0.0) {
        std::fprintf(stderr, "bskd: invalid core speed '%s'\n", s);
        return usage(argv[0]);
      }
      core_speed = v;
    } else if (arg == "--fanout" && i + 1 < argc) {
      const char* s = argv[++i];
      char* end = nullptr;
      const unsigned long v = std::strtoul(s, &end, 10);
      if (end == s || *end != '\0' || v == 0) {
        std::fprintf(stderr, "bskd: invalid fanout '%s'\n", s);
        return usage(argv[0]);
      }
      copts.fanout = static_cast<std::size_t>(v);
    } else if (arg == "--beacon" && i + 1 < argc) {
      const char* s = argv[++i];
      char* end = nullptr;
      const unsigned long v = std::strtoul(s, &end, 10);
      if (end == s || *end != '\0' || v == 0 || v > 65535) {
        std::fprintf(stderr, "bskd: invalid beacon port '%s'\n", s);
        return usage(argv[0]);
      }
      cluster = true;
      copts.beacon_port = static_cast<std::uint16_t>(v);
    } else if (arg == "--gossip-period" && i + 1 < argc) {
      const char* s = argv[++i];
      char* end = nullptr;
      const double v = std::strtod(s, &end);
      if (end == s || *end != '\0' || v <= 0.0) {
        std::fprintf(stderr, "bskd: invalid gossip period '%s'\n", s);
        return usage(argv[0]);
      }
      copts.gossip_period_wall_s = v;
    } else if (arg == "--gossip-full") {
      // Full-table exchange on every dial (pre-delta behavior); used by the
      // E7c before/after comparison.
      copts.delta_gossip = false;
    } else if (arg == "--port" && i + 1 < argc) {
      const char* s = argv[++i];
      char* end = nullptr;
      const unsigned long v = std::strtoul(s, &end, 10);
      if (end == s || *end != '\0' || v > 65535) {
        std::fprintf(stderr, "bskd: invalid port '%s'\n", s);
        return usage(argv[0]);
      }
      port = static_cast<std::uint16_t>(v);
    } else if (arg == "--port-file" && i + 1 < argc) {
      port_file = argv[++i];
    } else if (arg == "--trace-file" && i + 1 < argc) {
      trace_file = argv[++i];
    } else if (arg == "--workers" && i + 1 < argc) {
      const char* s = argv[++i];
      char* end = nullptr;
      const unsigned long v = std::strtoul(s, &end, 10);
      if (end == s || *end != '\0' || v == 0) {
        std::fprintf(stderr, "bskd: invalid workers '%s'\n", s);
        return usage(argv[0]);
      }
      workers = static_cast<std::size_t>(v);
    } else if (arg == "--session-linger" && i + 1 < argc) {
      const char* s = argv[++i];
      char* end = nullptr;
      const double v = std::strtod(s, &end);
      if (end == s || *end != '\0' || v < 0.0) {
        std::fprintf(stderr, "bskd: invalid linger '%s'\n", s);
        return usage(argv[0]);
      }
      session_linger_s = v;
    } else {
      return usage(argv[0]);
    }
  }

  struct sigaction sa{};
  sa.sa_handler = on_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  raise_nofile_limit();
  if (const std::size_t reaped = bsk::net::reap_stale_shm_segments();
      reaped > 0)
    std::fprintf(stderr, "bskd: reaped %zu stale shm segment(s)\n", reaped);

  Daemon daemon(session_linger_s, workers);
  if (!daemon.start(port)) {
    std::fprintf(stderr, "bskd: cannot listen on port %u\n", port);
    return 1;
  }
  std::fprintf(stderr, "bskd: listening on 127.0.0.1:%u\n", daemon.port());
  bsk::obs::TraceLog::global().set_process_tag(
      "bskd:" + std::to_string(daemon.port()));
  if (cluster) {
    bsk::net::Member self;
    self.host = "127.0.0.1";
    self.port = daemon.port();
    self.cores = cores;
    self.core_speed = core_speed;
    const std::size_t n_seeds = copts.seeds.size();
    g_cluster =
        std::make_unique<bsk::cluster::ClusterNode>(self, std::move(copts));
    g_cluster->start();
    std::fprintf(stderr, "bskd: cluster node %s (weight %.1f, %zu seeds)\n",
                 g_cluster->self_key().c_str(),
                 static_cast<double>(cores) * core_speed, n_seeds);
  }

  if (!port_file.empty()) {
    std::ofstream out(port_file, std::ios::trunc);
    out << daemon.port() << '\n';
  }

  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    g_registry.reap(daemon.linger());
  }
  daemon.shutdown();

  if (g_cluster) {
    // Orderly departure: tell every peer we are going (immediate
    // deregistration) instead of making them wait out suspicion.
    g_cluster->stop(/*broadcast_leave=*/true);
    g_cluster.reset();
  }

  if (!trace_file.empty()) {
    std::ofstream out(trace_file, std::ios::trunc);
    out << stats_text(bsk::net::StatsRequest::What::TraceJsonl);
  }
  return 0;
}
