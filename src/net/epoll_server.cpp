#include "net/epoll_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

#include "obs/metrics.hpp"

namespace bsk::net {

namespace {

struct EpollObs {
  obs::Counter& accepts = obs::counter("bsk_net_epoll_accepts_total",
                                       "connections accepted by epoll loops");
  obs::Counter& wakeups = obs::counter("bsk_net_epoll_wakeups_total",
                                       "epoll_wait returns with events");
  obs::Counter& frames_rx = obs::counter(
      "bsk_net_epoll_frames_received_total",
      "non-heartbeat frames decoded by epoll loops");
  obs::Counter& frames_tx = obs::counter("bsk_net_epoll_frames_sent_total",
                                         "frames queued by epoll servers");
  // The process-wide dataplane aggregates (shared with the transports).
  obs::Counter& net_tx =
      obs::counter("bsk_net_frames_sent_total", "frames written to the wire");
  obs::Counter& net_rx = obs::counter("bsk_net_frames_received_total",
                                      "non-heartbeat frames decoded");
  obs::Counter& accept_backoffs = obs::counter(
      "bsk_net_epoll_accept_backoffs_total",
      "accepts deferred because the process ran out of file descriptors");
};

EpollObs& epoll_obs() {
  static EpollObs o;
  return o;
}

constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kWakeTag = 1;

}  // namespace

EpollServer::EpollServer(Handler& handler, EpollOptions opts)
    : handler_(handler), opts_(opts) {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) return;

  lfd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (lfd_ < 0) return;
  int one = 1;
  ::setsockopt(lfd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opts_.port);
  if (::bind(lfd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(lfd_, opts_.backlog) != 0) {
    ::close(lfd_);
    lfd_ = -1;
    return;
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  if (::getsockname(lfd_, reinterpret_cast<sockaddr*>(&bound), &blen) == 0)
    port_ = ntohs(bound.sin_port);

  wakefd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);

  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = kListenerTag;
  ::epoll_ctl(epfd_, EPOLL_CTL_ADD, lfd_, &ev);
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeTag;
  ::epoll_ctl(epfd_, EPOLL_CTL_ADD, wakefd_, &ev);
}

void EpollServer::start() {
  if (!valid() || loop_.joinable() || stopping_.load()) return;
  loop_ = std::jthread([this](const std::stop_token& st) { loop(st); });
}

EpollServer::~EpollServer() { stop(); }

void EpollServer::wake() {
  if (wakefd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wakefd_, &one, sizeof one);
  }
}

void EpollServer::stop() {
  if (stopping_.exchange(true)) {
    if (loop_.joinable()) loop_.join();
    return;
  }
  loop_.request_stop();
  wake();
  if (loop_.joinable()) loop_.join();

  // Loop is gone: close every connection under its own mutex so in-flight
  // writer calls observe fd == -1 instead of racing a closed descriptor.
  std::vector<std::shared_ptr<Conn>> all;
  {
    support::MutexLock lk(conns_mu_);
    for (auto& [id, c] : conns_) all.push_back(c);
    conns_.clear();
  }
  for (auto& c : all) {
    support::MutexLock lk(c->mu);
    if (c->fd >= 0) {
      ::close(c->fd);
      c->fd = -1;
    }
  }
  if (lfd_ >= 0) {
    ::close(lfd_);
    lfd_ = -1;
  }
  if (wakefd_ >= 0) {
    ::close(wakefd_);
    wakefd_ = -1;
  }
  if (epfd_ >= 0) {
    ::close(epfd_);
    epfd_ = -1;
  }
}

std::shared_ptr<EpollServer::Conn> EpollServer::find(ConnId c) const {
  support::MutexLock lk(conns_mu_);
  auto it = conns_.find(c);
  return it == conns_.end() ? nullptr : it->second;
}

std::size_t EpollServer::connections() const {
  support::MutexLock lk(conns_mu_);
  return conns_.size();
}

// ------------------------------------------------------------------- sends

bool EpollServer::flush_locked(Conn& conn) {
  // Opportunistic scatter/gather flush; a short write leaves the tail in
  // the queue for the next EPOLLOUT edge. On a hard error the fd is shut
  // down (never closed here — only the loop closes fds) so the loop reaps
  // the connection via EPOLLHUP.
  if (conn.fd >= 0 && !conn.broken && conn.out.flush_to(conn.fd) < 0) {
    conn.broken = true;
    ::shutdown(conn.fd, SHUT_RDWR);
  }
  return !conn.broken;
}

bool EpollServer::send(ConnId c, const Frame& f) {
  auto conn = find(c);
  if (!conn) return false;
  support::MutexLock lk(conn->mu);
  if (conn->fd < 0 || conn->broken || conn->want_close) return false;
  conn->out.append_frame(f);
  epoll_obs().frames_tx.inc();
  epoll_obs().net_tx.inc();
  return flush_locked(*conn);
}

bool EpollServer::send_serialized(ConnId c, FrameType type, std::size_t n,
                                 const Transport::SerializeFn& emit) {
  auto conn = find(c);
  if (!conn) return false;
  support::MutexLock lk(conn->mu);
  if (conn->fd < 0 || conn->broken || conn->want_close) return false;
  for (std::size_t i = 0; i < n; ++i)
    conn->out.build_frame(type, [&](wire::Writer& w) { emit(i, w); });
  epoll_obs().frames_tx.inc(n);
  epoll_obs().net_tx.inc(n);
  return flush_locked(*conn);
}

void EpollServer::close_conn(ConnId c) {
  auto conn = find(c);
  if (!conn) return;
  {
    support::MutexLock lk(conn->mu);
    if (conn->fd < 0) return;
    conn->want_close = true;
    if (conn->close_deadline < 0.0) conn->close_deadline = wall_now() + 1.0;
    flush_locked(*conn);
  }
  wake();  // let the loop reap once the queue drains (or the grace expires)
}

void EpollServer::set_heartbeat(ConnId c, double period_wall_s) {
  auto conn = find(c);
  if (!conn) return;
  {
    support::MutexLock lk(conn->mu);
    conn->hb_period = period_wall_s;
    conn->hb_next = period_wall_s > 0.0 ? wall_now() + period_wall_s : 0.0;
  }
  wake();  // re-evaluate the loop's timer horizon
}

// -------------------------------------------------------------------- loop

void EpollServer::accept_ready() {
  if (accept_backoff_until_ > 0.0 && wall_now() < accept_backoff_until_)
    return;  // still inside the fd-exhaustion backoff window
  accept_backoff_until_ = 0.0;
  for (;;) {
    const int cfd =
        ::accept4(lfd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Out of fds. An edge-triggered listener that just returns here
        // never gets another edge for the backlog it failed to drain, and
        // one that keeps looping spins at 100% CPU accepting nothing —
        // park the listener and let the timer pass retry once the window
        // (or a connection slot) opens.
        accept_backoff_until_ = wall_now() + opts_.accept_backoff_wall_s;
        accept_backoffs_.fetch_add(1, std::memory_order_relaxed);
        epoll_obs().accept_backoffs.inc();
        if (!accept_backoff_logged_) {
          accept_backoff_logged_ = true;
          std::fprintf(stderr,
                       "bsk.epoll: accept failed (%s); backing off %.0f ms "
                       "between retries (raise RLIMIT_NOFILE?)\n",
                       std::strerror(errno),
                       opts_.accept_backoff_wall_s * 1e3);
        }
        return;
      }
      return;  // EAGAIN or transient accept failure: wait for the next edge
    }
    int one = 1;
    ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    auto conn = std::make_shared<Conn>();
    conn->raw_fd = cfd;
    conn->opened_at = wall_now();
    {
      support::MutexLock lk(conn->mu);
      conn->fd = cfd;
    }
    conn->decoder = FrameDecoder(opts_.max_frame);
    ConnId id;
    {
      support::MutexLock lk(conns_mu_);
      id = next_id_++;
      conn->id = id;
      conns_.emplace(id, conn);
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
    ev.data.u64 = id;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, cfd, &ev) != 0) {
      reap(conn);
      continue;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    epoll_obs().accepts.inc();
  }
}

void EpollServer::read_ready(const std::shared_ptr<Conn>& conn) {
  {
    support::MutexLock lk(conn->mu);
    if (conn->fd < 0) return;  // reaped earlier in this batch
  }
  std::uint64_t bytes = 0;
  const ReadEnd end =
      read_frames(conn->raw_fd, conn->decoder, bytes, [&](Frame&& f) {
        if (f.type == FrameType::Heartbeat) return true;
        if (!conn->got_hello) {
          // First real frame must be the handshake; anything else is not
          // a bsk peer and is dropped without ceremony.
          auto h = parse_hello(f);
          if (f.type != FrameType::Hello || !h) return false;
          conn->got_hello = true;
          epoll_obs().frames_rx.inc();
          epoll_obs().net_rx.inc();
          handler_.on_hello(conn->id, *h);
          return true;
        }
        epoll_obs().frames_rx.inc();
        epoll_obs().net_rx.inc();
        handler_.on_frame(conn->id, std::move(f));
        return true;
      });
  // Anything but a drained socket ends the connection: EOF, a hard error,
  // a corrupt stream, or a peer that did not open with a Hello.
  if (end != ReadEnd::WouldBlock) reap(conn);
}

void EpollServer::write_ready(const std::shared_ptr<Conn>& conn) {
  bool dead;
  {
    support::MutexLock lk(conn->mu);
    if (conn->fd < 0) return;
    flush_locked(*conn);
    dead = conn->broken || (conn->want_close && conn->out.empty());
  }
  if (dead) reap(conn);
}

void EpollServer::timer_pass(double now) {
  if (accept_backoff_until_ > 0.0 && now >= accept_backoff_until_) {
    accept_backoff_until_ = 0.0;
    accept_ready();  // retry the backlog the exhausted accept left queued
  }
  std::vector<std::shared_ptr<Conn>> snapshot;
  {
    support::MutexLock lk(conns_mu_);
    snapshot.reserve(conns_.size());
    for (auto& [id, c] : conns_) snapshot.push_back(c);
  }
  for (auto& conn : snapshot) {
    bool dead = false;
    {
      support::MutexLock lk(conn->mu);
      if (conn->fd < 0) continue;
      if (conn->hb_period > 0.0 && now >= conn->hb_next) {
        const std::uint64_t seq = conn->hb_seq++;
        conn->out.build_frame(FrameType::Heartbeat, [&](wire::Writer& w) {
          w.u64(seq);
          w.f64(now);
        });
        conn->hb_next = now + conn->hb_period;
        flush_locked(*conn);
      }
      dead = conn->broken ||
             (conn->want_close &&
              (conn->out.empty() || now >= conn->close_deadline));
    }
    if (!dead && !conn->got_hello &&
        now - conn->opened_at > opts_.handshake_timeout_wall_s)
      dead = true;  // never spoke: not a bsk peer
    if (dead) reap(conn);
  }
}

void EpollServer::reap(const std::shared_ptr<Conn>& conn) {
  {
    support::MutexLock lk(conn->mu);
    if (conn->fd < 0) return;  // already reaped
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    conn->fd = -1;
  }
  {
    support::MutexLock lk(conns_mu_);
    conns_.erase(conn->id);
  }
  if (conn->got_hello) handler_.on_closed(conn->id);
}

void EpollServer::loop(const std::stop_token& st) {
  epoll_event evs[128];
  while (!st.stop_requested()) {
    // Timer horizon: the nearest heartbeat or close deadline, clamped to
    // [1, 100] ms so closed-flag and handshake-timeout checks stay prompt.
    int timeout_ms = 100;
    {
      const double now = wall_now();
      support::MutexLock lk(conns_mu_);
      for (auto& [id, c] : conns_) {
        support::MutexLock cl(c->mu);
        if (c->hb_period > 0.0) {
          const int ms = static_cast<int>((c->hb_next - now) * 1000.0);
          timeout_ms = std::max(1, std::min(timeout_ms, ms));
        }
        if (c->want_close) timeout_ms = std::min(timeout_ms, 10);
      }
    }
    if (accept_backoff_until_ > 0.0) timeout_ms = std::min(timeout_ms, 10);

    const int rc = ::epoll_wait(epfd_, evs, 128, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc > 0) epoll_obs().wakeups.inc();

    for (int i = 0; i < rc; ++i) {
      const std::uint64_t tag = evs[i].data.u64;
      if (tag == kListenerTag) {
        accept_ready();
        continue;
      }
      if (tag == kWakeTag) {
        std::uint64_t drain;
        while (::read(wakefd_, &drain, sizeof drain) > 0) {
        }
        continue;
      }
      auto conn = find(tag);
      if (!conn) continue;  // reaped earlier in this batch
      if (evs[i].events & (EPOLLHUP | EPOLLERR)) {
        // Drain any bytes still queued in the kernel before closing.
        read_ready(conn);
        reap(conn);
        continue;
      }
      if (evs[i].events & EPOLLOUT) write_ready(conn);
      if (evs[i].events & (EPOLLIN | EPOLLRDHUP)) read_ready(conn);
    }

    timer_pass(wall_now());
  }
}

}  // namespace bsk::net
