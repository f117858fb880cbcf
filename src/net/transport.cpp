#include "net/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "obs/metrics.hpp"

namespace bsk::net {

namespace {

// Process-wide dataplane counters, aggregated across every live transport
// (per-connection figures stay in TransportStats).
struct NetObs {
  obs::Counter& frames_sent =
      obs::counter("bsk_net_frames_sent_total", "frames written to the wire");
  obs::Counter& frames_received = obs::counter(
      "bsk_net_frames_received_total", "non-heartbeat frames decoded");
  obs::Counter& bytes_sent =
      obs::counter("bsk_net_bytes_sent_total", "payload bytes written (TCP)");
  obs::Counter& bytes_received = obs::counter(
      "bsk_net_bytes_received_total", "payload bytes read (TCP)");
  obs::Counter& crc_errors = obs::counter(
      "bsk_net_crc_errors_total", "frames dropped for checksum mismatch");
  obs::Counter& decode_errors = obs::counter(
      "bsk_net_decode_errors_total",
      "connections killed by an unrecoverable framing error");
};

NetObs& net_obs() {
  static NetObs o;
  return o;
}

}  // namespace

double wall_now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

// --------------------------------------------------------------- sendqueue

std::vector<std::uint8_t>& SendQueue::back_slab() {
  if (slabs_.empty() || slabs_.back().data.size() >= kSlabBytes) {
    Slab s;
    if (!spares_.empty()) {
      s.data = std::move(spares_.back());
      spares_.pop_back();
      s.data.clear();
    } else {
      s.data.reserve(kSlabBytes);
    }
    slabs_.push_back(std::move(s));
  }
  return slabs_.back().data;
}

void SendQueue::append_frame(const Frame& f) {
  auto& slab = back_slab();
  const std::size_t before = slab.size();
  encode_frame_into(f, slab);
  bytes_ += slab.size() - before;
}

std::size_t SendQueue::gather(iovec* iov, std::size_t max) const {
  std::size_t n = 0;
  for (const Slab& s : slabs_) {
    if (n == max) break;
    const std::size_t len = s.data.size() - s.off;
    if (len == 0) continue;
    iov[n].iov_base = const_cast<std::uint8_t*>(s.data.data() + s.off);
    iov[n].iov_len = len;
    ++n;
  }
  return n;
}

void SendQueue::consume(std::size_t n) {
  bytes_ -= n;
  while (n > 0) {
    Slab& s = slabs_.front();
    const std::size_t len = s.data.size() - s.off;
    if (n < len) {
      s.off += n;
      return;
    }
    n -= len;
    if (spares_.size() < kMaxSpares) spares_.push_back(std::move(s.data));
    slabs_.pop_front();
  }
}

std::ptrdiff_t SendQueue::flush_to(int fd) {
  std::ptrdiff_t written = 0;
  while (!empty()) {
    iovec iov[kMaxIov];
    const std::size_t cnt = gather(iov, kMaxIov);
    std::size_t gathered = 0;
    for (std::size_t i = 0; i < cnt; ++i) gathered += iov[i].iov_len;
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = cnt;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      consume(static_cast<std::size_t>(n));
      written += n;
      if (static_cast<std::size_t>(n) < gathered) break;  // socket full
      continue;  // more slabs than iovecs: keep flushing
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return -1;
  }
  return written;
}

// --------------------------------------------------------------- read path

ReadEnd read_frames(int fd, FrameDecoder& dec, std::uint64_t& bytes,
                    const std::function<bool(Frame&&)>& on_frame) {
  std::uint8_t rbuf[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd, rbuf, sizeof rbuf);
    if (n > 0) {
      bytes += static_cast<std::uint64_t>(n);
      dec.feed(rbuf, static_cast<std::size_t>(n));
      while (auto f = dec.next())
        if (!on_frame(std::move(*f))) return ReadEnd::Stopped;
      if (dec.error() != DecodeError::None) {
        // Corrupt stream: the framing is untrustworthy from here on.
        if (dec.error() == DecodeError::BadCrc) net_obs().crc_errors.inc();
        net_obs().decode_errors.inc();
        return ReadEnd::Failed;
      }
      continue;
    }
    if (n == 0) return ReadEnd::Eof;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return ReadEnd::WouldBlock;
    if (errno == EINTR) continue;
    return ReadEnd::Failed;  // hard socket error
  }
}

// --------------------------------------------------------------- transport

bool Transport::send_serialized(FrameType type, std::size_t n,
                                const SerializeFn& emit) {
  if (n == 0) return !closed();
  // Default path: materialize Frames and defer to send_many. Decorators
  // (chaos FaultInjector) inherit this, so zero-copy call sites still pass
  // through fault injection frame by frame.
  std::vector<Frame> fs(n);
  for (std::size_t i = 0; i < n; ++i) {
    fs[i].type = type;
    wire::Writer w;
    emit(i, w);
    fs[i].payload = w.take();
  }
  return send_many(fs.data(), n);
}

// --------------------------------------------------------------------- tcp

namespace {

void set_nonblock(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// poll() timeout for a wait of `wall_seconds` (< 0 = forever), rounded up
/// so a short wait never degenerates into a busy loop, and capped at an
/// hour (callers re-check their own deadline).
int poll_ms(double wall_seconds) {
  if (wall_seconds < 0.0) return -1;
  return static_cast<int>(std::ceil(std::min(wall_seconds, 3600.0) * 1e3));
}

}  // namespace

TcpTransport::TcpTransport(int fd, TcpOptions opts)
    : fd_(fd), decoder_(opts.max_frame) {
  last_rx_wall_.store(wall_now());
  set_nonblock(fd_);
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

std::unique_ptr<TcpTransport> TcpTransport::connect(const std::string& host,
                                                    std::uint16_t port,
                                                    TcpOptions opts) {
  for (int attempt = 0; attempt <= opts.connect_retries; ++attempt) {
    if (attempt > 0)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(opts.retry_backoff_s));

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) continue;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      return nullptr;  // bad address: retrying cannot help
    }
    set_nonblock(fd);
    const int rc =
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    if (rc == 0)
      return std::make_unique<TcpTransport>(fd, opts);
    if (errno == EINPROGRESS) {
      pollfd pfd{fd, POLLOUT, 0};
      if (::poll(&pfd, 1, poll_ms(opts.connect_timeout_s)) == 1) {
        int err = 0;
        socklen_t len = sizeof err;
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err == 0) return std::make_unique<TcpTransport>(fd, opts);
      }
    }
    ::close(fd);
  }
  return nullptr;
}

TcpTransport::~TcpTransport() {
  close();
  ::close(fd_);
}

bool TcpTransport::flush_now() {
  const std::ptrdiff_t n = outq_.flush_to(fd_);
  if (n < 0) {
    closed_.store(true, std::memory_order_release);  // EPIPE, RST, ...
    return false;
  }
  bytes_sent_.fetch_add(static_cast<std::uint64_t>(n),
                        std::memory_order_relaxed);
  net_obs().bytes_sent.inc(static_cast<std::uint64_t>(n));
  return true;
}

bool TcpTransport::flush_out(double wall_seconds) {
  const double deadline = wall_now() + wall_seconds;
  support::MutexLock lk(out_mu_);
  for (;;) {
    if (!flush_now()) return false;
    if (outq_.empty()) return true;
    const double left = wall_seconds < 0.0 ? -1.0 : deadline - wall_now();
    if (wall_seconds >= 0.0 && left <= 0.0) return false;
    // The socket is full: wait for it to drain without holding the send
    // lock, so other senders can still queue (they flush too) and close()
    // can shut the socket down under us.
    lk.unlock();
    pollfd p{fd_, POLLOUT | POLLRDHUP, 0};
    const int rc = ::poll(&p, 1, poll_ms(left));
    lk.lock();
    if (rc > 0 && (p.revents & (POLLRDHUP | POLLHUP | POLLERR)))
      return false;  // the peer is gone; the readers report Closed
  }
}

bool TcpTransport::send(const Frame& f) { return send_many(&f, 1); }

bool TcpTransport::send_many(const Frame* fs, std::size_t n) {
  if (n == 0) return !closed_.load(std::memory_order_acquire);
  {
    // Encode the whole batch straight into the send-queue slabs: one lock,
    // one (or few) kernel writes — the wire face of the dataplane's
    // credit-window pipelining.
    support::MutexLock lk(out_mu_);
    if (closed_.load(std::memory_order_acquire)) return false;
    for (std::size_t i = 0; i < n; ++i) outq_.append_frame(fs[i]);
  }
  frames_sent_.fetch_add(n, std::memory_order_relaxed);
  net_obs().frames_sent.inc(n);
  return flush_out(-1.0);
}

bool TcpTransport::send_serialized(FrameType type, std::size_t n,
                                   const SerializeFn& emit) {
  if (n == 0) return !closed_.load(std::memory_order_acquire);
  {
    // Zero-copy path: serializers write straight into the send slabs — no
    // Frame, no payload vector, no per-frame allocation once slabs warm up.
    support::MutexLock lk(out_mu_);
    if (closed_.load(std::memory_order_acquire)) return false;
    for (std::size_t i = 0; i < n; ++i)
      outq_.build_frame(type, [&](wire::Writer& w) { emit(i, w); });
  }
  frames_sent_.fetch_add(n, std::memory_order_relaxed);
  net_obs().frames_sent.inc(n);
  return flush_out(-1.0);
}

void TcpTransport::pump(double wall_seconds) {
  bool tail;
  {
    support::MutexLock lk(out_mu_);
    tail = !outq_.empty();
  }
  if (wall_seconds != 0.0) {
    pollfd p{fd_, static_cast<short>(POLLIN | (tail ? POLLOUT : 0)), 0};
    if (::poll(&p, 1, poll_ms(wall_seconds)) <= 0)
      return;  // timed out, or EINTR: the caller re-checks its deadline
  }
  if (tail) {
    support::MutexLock lk(out_mu_);
    flush_now();
  }

  std::uint64_t bytes = 0;
  std::deque<Frame>& inbox = inbox_;
  const ReadEnd end = read_frames(fd_, decoder_, bytes, [&](Frame&& f) {
    if (f.type == FrameType::Heartbeat) {
      heartbeats_.fetch_add(1, std::memory_order_relaxed);
    } else {
      inbox.push_back(std::move(f));
      frames_received_.fetch_add(1, std::memory_order_relaxed);
      net_obs().frames_received.inc();
    }
    return true;
  });
  if (bytes > 0) {
    bytes_received_.fetch_add(bytes, std::memory_order_relaxed);
    net_obs().bytes_received.inc(bytes);
    last_rx_wall_.store(wall_now(), std::memory_order_relaxed);
  }
  if (end == ReadEnd::Eof || end == ReadEnd::Failed) {
    decode_error_.store(decoder_.error(), std::memory_order_relaxed);
    closed_.store(true, std::memory_order_release);
  }
}

void TcpTransport::observe() const {
  const double now = wall_now();
  if (closed_.load(std::memory_order_acquire) ||
      now < next_observe_wall_.load(std::memory_order_relaxed))
    return;
  // Observing drains the socket into the transport's inbound state; that
  // state belongs to the connection, not to the value callers observe.
  auto* self = const_cast<TcpTransport*>(this);
  if (!self->rx_mu_.try_lock()) return;  // a receiver is draining already
  next_observe_wall_.store(now + kObservePeriod, std::memory_order_relaxed);
  self->pump(0.0);
  self->rx_mu_.unlock();
}

RecvStatus TcpTransport::recv_until(Frame& out, bool bounded,
                                    double wall_seconds) {
  const double deadline = wall_now() + wall_seconds;
  support::MutexLock lk(rx_mu_);
  for (bool first = true;; first = false) {
    if (!inbox_.empty()) {
      out = std::move(inbox_.front());
      inbox_.pop_front();
      return RecvStatus::Ok;
    }
    if (closed_.load(std::memory_order_acquire)) return RecvStatus::Closed;
    const double left = bounded ? deadline - wall_now() : -1.0;
    if (bounded && left <= 0.0 && !first) return RecvStatus::TimedOut;
    pump(bounded ? std::max(left, 0.0) : -1.0);
  }
}

RecvStatus TcpTransport::recv(Frame& out) {
  return recv_until(out, /*bounded=*/false, 0.0);
}

RecvStatus TcpTransport::recv_for(Frame& out, double wall_seconds) {
  return recv_until(out, /*bounded=*/true, wall_seconds);
}

void TcpTransport::close() {
  closed_.store(true, std::memory_order_release);
  flush_out(1.0);  // a peer that is not draining forfeits the tail
  ::shutdown(fd_, SHUT_RDWR);
}

bool TcpTransport::closed() const {
  observe();
  return closed_.load(std::memory_order_acquire);
}

double TcpTransport::idle_seconds() const {
  observe();
  return wall_now() - last_rx_wall_.load(std::memory_order_relaxed);
}

TransportStats TcpTransport::stats() const {
  observe();
  TransportStats s;
  s.frames_sent = frames_sent_.load();
  s.frames_received = frames_received_.load();
  s.bytes_sent = bytes_sent_.load();
  s.bytes_received = bytes_received_.load();
  s.heartbeats_seen = heartbeats_.load();
  return s;
}

}  // namespace bsk::net
