#pragma once
// bsk::net transports: frame-oriented, bidirectional, connected endpoints.
//
// A Transport is one end of an established connection. Two backends:
//
//   TcpTransport (below) — a real loopback/LAN socket with no thread of its
//     own: send() gathers the queued frames into sendmsg on the caller's
//     thread, recv() polls and decodes on the caller's thread, and the
//     observers (closed(), idle_seconds(), stats()) drain whatever the
//     socket already holds without blocking, so heartbeats and peer EOF
//     show even when nobody is receiving. connect() takes a timeout and a
//     bounded retry budget.
//
//   ShmTransport (net/shm.hpp) — wire frames over a shared-memory ring
//     pair: the colocated fast path, and the in-process pair tests and
//     benches use.
//
// The socket write path (SendQueue::flush_to) and read path (read_frames)
// below are the only ones in bsk::net: EpollServer serves every accepted
// connection with the same two routines.
//
// Timeouts on the transport API are *wall* seconds: liveness and I/O pacing
// are properties of the real machine, not of the simulated clock. (Code
// that waits in simulated time converts with Clock::to_wall first.)
//
// Heartbeat frames are absorbed at this layer — they refresh idle_seconds()
// and are never surfaced to recv(), so every consumer gets liveness
// tracking without protocol noise.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "support/thread_annotations.hpp"
#include "net/wire.hpp"

struct iovec;  // <sys/uio.h>

namespace bsk::net {

enum class RecvStatus { Ok, Closed, TimedOut };

// --------------------------------------------------------------- sendqueue

/// Slab-chained send buffer shared by the scatter/gather senders
/// (TcpTransport, EpollServer's per-connection state). Writers serialize
/// frames *directly* into the back slab — zero intermediate Frame, zero
/// per-frame heap traffic once the slab pool is warm — and flush_to()
/// gathers the front slabs into one sendmsg(), consuming exactly what the
/// kernel accepted so short writes resume where they stopped.
///
/// Not internally synchronized: the owner serializes access with its own
/// send mutex (TcpTransport::out_mu_, EpollServer's per-conn mutex).
class SendQueue {
 public:
  static constexpr std::size_t kSlabBytes = 64 * 1024;
  static constexpr std::size_t kMaxIov = 16;
  static constexpr std::size_t kMaxSpares = 4;

  bool empty() const { return bytes_ == 0; }

  /// Serialize one frame into the back slab via build_frame_into. Returns
  /// the encoded size.
  template <typename EmitFn>
  std::size_t build_frame(FrameType type, EmitFn&& emit) {
    const std::size_t n =
        build_frame_into(back_slab(), type, std::forward<EmitFn>(emit));
    bytes_ += n;
    return n;
  }

  /// Append an already-materialized frame's wire bytes.
  void append_frame(const Frame& f);

  /// Write the queue into a nonblocking socket: sendmsg over up to kMaxIov
  /// spans at a time until the queue is empty or the kernel takes less
  /// than offered (a short write: the socket is full); EINTR retries on
  /// the spot. Returns the bytes written, or -1 on a hard error. Uses
  /// MSG_NOSIGNAL, so a vanished peer surfaces as -1 (EPIPE), never as a
  /// process-killing SIGPIPE.
  std::ptrdiff_t flush_to(int fd);

 private:
  struct Slab {
    std::vector<std::uint8_t> data;
    std::size_t off = 0;  // consumed prefix
  };

  std::vector<std::uint8_t>& back_slab();
  std::size_t gather(iovec* iov, std::size_t max) const;
  void consume(std::size_t n);

  std::deque<Slab> slabs_;
  std::vector<std::vector<std::uint8_t>> spares_;
  std::size_t bytes_ = 0;
};

/// How a read_frames pass ended.
enum class ReadEnd {
  WouldBlock,  ///< drained everything the socket held
  Stopped,     ///< on_frame asked to stop
  Eof,         ///< the peer closed its end
  Failed,      ///< hard socket error, or a corrupt stream (see dec.error())
};

/// Read a nonblocking socket until it would block, feeding each chunk to
/// `dec` and handing every frame it completes — heartbeats included — to
/// `on_frame`, which returns false to stop the pass. Adds the bytes read to
/// `bytes`. A corrupt stream ends the pass as Failed with the cause in
/// dec.error(), counted in the process-wide decode-error metrics.
ReadEnd read_frames(int fd, FrameDecoder& dec, std::uint64_t& bytes,
                    const std::function<bool(Frame&&)>& on_frame);

struct TransportStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t heartbeats_seen = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Enqueue a frame for delivery. Thread-safe. False once the connection
  /// is closed (locally or by the peer).
  virtual bool send(const Frame& f) = 0;

  /// Enqueue `n` frames as one batch (writev-style coalescing: the TCP
  /// backend encodes the whole batch into its send buffer under a single
  /// lock and flushes it with one gather write, so the frames leave in as
  /// few segments as the kernel allows). Default: send() per frame. Returns
  /// false once the connection is closed; frames before the failure may
  /// still be delivered.
  virtual bool send_many(const Frame* fs, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
      if (!send(fs[i])) return false;
    return true;
  }

  /// Zero-copy batch send: serialize `n` frames of `type` straight into
  /// the transport's send buffer, `emit(i, w)` appending frame i's payload
  /// bytes through the Writer. The default materializes Frames and defers
  /// to send_many — which keeps decorators (chaos FaultInjector) and simple
  /// transports correct without overriding; the TCP/shm/epoll backends
  /// override to eliminate the per-frame heap allocation entirely.
  using SerializeFn = std::function<void(std::size_t, wire::Writer&)>;
  virtual bool send_serialized(FrameType type, std::size_t n,
                               const SerializeFn& emit);

  /// Block until a frame arrives or the connection closes and drains.
  virtual RecvStatus recv(Frame& out) = 0;

  /// recv with a wall-clock timeout (seconds).
  virtual RecvStatus recv_for(Frame& out, double wall_seconds) = 0;

  /// Close this end. recv on the peer drains buffered frames then reports
  /// Closed. Idempotent.
  virtual void close() = 0;

  /// True once either end has closed (peer death included).
  virtual bool closed() const = 0;

  /// Wall seconds since the last frame (heartbeats included) arrived from
  /// the peer — the liveness input of failure detection.
  virtual double idle_seconds() const = 0;

  /// Channel security state (flipped by the SecureReq/SecureAck exchange;
  /// stands in for a real TLS upgrade, which slots in behind this flag).
  bool secured() const { return secured_.load(std::memory_order_relaxed); }
  void mark_secured() { secured_.store(true, std::memory_order_relaxed); }

  virtual TransportStats stats() const = 0;

 protected:
  std::atomic<bool> secured_{false};
};

// --------------------------------------------------------------------- tcp

struct TcpOptions {
  double connect_timeout_s = 2.0;  ///< per-attempt, wall seconds
  int connect_retries = 10;        ///< bounded retry budget
  double retry_backoff_s = 0.05;   ///< pause between attempts, wall seconds
  std::size_t max_frame = kDefaultMaxFrame;
};

/// TCP (or any stream socket) transport driven entirely on its callers'
/// threads — see the file comment. Sends flush on the sender's thread and
/// return once the kernel holds every byte, waiting for the socket to drain
/// when it is full; that never deadlocks against bskd's EpollServer, which
/// reads everything it is sent. One receiver at a time owns the socket's
/// read side (the recv lock); observers skip the drain while it does.
class TcpTransport final : public Transport {
 public:
  /// Adopt an already-connected socket (an accepted connection, or one end
  /// of a socketpair).
  explicit TcpTransport(int fd, TcpOptions opts = {});

  /// Connect to host:port with per-attempt timeout and bounded retry.
  /// Returns nullptr when the budget is exhausted.
  static std::unique_ptr<TcpTransport> connect(const std::string& host,
                                               std::uint16_t port,
                                               TcpOptions opts = {});

  ~TcpTransport() override;

  bool send(const Frame& f) override;
  bool send_many(const Frame* fs, std::size_t n) override;
  bool send_serialized(FrameType type, std::size_t n,
                       const SerializeFn& emit) override;
  RecvStatus recv(Frame& out) override;
  RecvStatus recv_for(Frame& out, double wall_seconds) override;
  /// Flush what is queued (for at most a second), then shut the socket
  /// down; a receiver blocked on it wakes up and reports Closed.
  void close() override;
  bool closed() const override;
  double idle_seconds() const override;
  TransportStats stats() const override;

  /// Why the inbound stream died, if it died to corruption (None while the
  /// connection is healthy or was closed cleanly).
  DecodeError decode_error() const {
    return decode_error_.load(std::memory_order_relaxed);
  }

 private:
  /// Flush the send queue on this thread until it is empty, waiting up to
  /// `wall_seconds` (< 0 = forever) for the socket to drain whenever it is
  /// full. False if the connection died or the wait ran out.
  bool flush_out(double wall_seconds);
  /// Flush whatever the socket accepts now. False on a hard error.
  bool flush_now() BSK_REQUIRES(out_mu_);
  /// One pass over the socket: wait up to `wall_seconds` for it to become
  /// ready (0 = do not block, < 0 = forever), flush any queued tail a
  /// short write left, and decode what arrived into inbox_.
  void pump(double wall_seconds) BSK_REQUIRES(rx_mu_);
  /// pump(0) for the observers, at most once per kObservePeriod and never
  /// while a receiver holds the recv lock (it is draining already).
  void observe() const;
  RecvStatus recv_until(Frame& out, bool bounded, double wall_seconds);

  static constexpr double kObservePeriod = 0.01;  ///< wall seconds

  const int fd_;  ///< shut down by close(), closed by the destructor

  support::Mutex out_mu_{"TcpTransport.send"};
  SendQueue outq_ BSK_GUARDED_BY(out_mu_);

  support::Mutex rx_mu_{"TcpTransport.recv"};
  FrameDecoder decoder_ BSK_GUARDED_BY(rx_mu_);
  std::deque<Frame> inbox_ BSK_GUARDED_BY(rx_mu_);  ///< decoded, unread

  std::atomic<bool> closed_{false};  ///< closed locally, or the stream died
  std::atomic<DecodeError> decode_error_{DecodeError::None};
  std::atomic<double> last_rx_wall_{0.0};
  mutable std::atomic<double> next_observe_wall_{0.0};
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> heartbeats_{0};
};

/// Monotonic wall seconds (steady clock) — the transport liveness timebase.
double wall_now();

}  // namespace bsk::net
