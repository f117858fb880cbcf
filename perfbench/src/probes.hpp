#pragma once
// Instruments the benchmark keeps outside the program: forwarding
// decorators that time calls into the rt/net layers, readers for the
// counters the program already exports, and run-hygiene checks.

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "openloop.hpp"
#include "rt/node.hpp"

namespace perfbench {

/// Spans from several threads, merged under a lock.
class SpanStore {
 public:
  void add(std::vector<Span>&& spans);
  /// Every span recorded so far with the given name, durations in µs.
  std::vector<double> durations_us(const std::string& name) const;
  std::vector<Span> all() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Node decorator: forwards every virtual to the wrapped node and, when
/// tracing, times process() and flush() as "net.remote.process" and
/// "net.remote.flush" spans.
class TimedNode final : public bsk::rt::Node {
 public:
  TimedNode(std::unique_ptr<bsk::rt::Node> inner,
            std::shared_ptr<SpanStore> store);
  ~TimedNode() override;

  void on_start() override { inner_->on_start(); }
  std::optional<bsk::rt::Task> process(bsk::rt::Task t) override;
  void on_stop() override { inner_->on_stop(); }
  bool is_source() const override { return inner_->is_source(); }
  bool failed() const override { return inner_->failed(); }
  std::size_t secure_channels() override { return inner_->secure_channels(); }
  bool owns_recovery() const override { return inner_->owns_recovery(); }
  std::vector<bsk::rt::Task> drain_unacked() override {
    return inner_->drain_unacked();
  }
  std::optional<bsk::rt::Task> flush() override;
  std::optional<bsk::rt::Task> next() override { return inner_->next(); }

 private:
  std::unique_ptr<bsk::rt::Node> inner_;
  std::shared_ptr<SpanStore> store_;
  std::vector<Span> local_;  // only the worker thread appends
};

/// NodeFactory decorator: times every call of `make` as a
/// "net.pool.make_node" span; wraps the node in a TimedNode when
/// `time_nodes`.
bsk::rt::NodeFactory timed_factory(bsk::rt::NodeFactory make,
                                   std::shared_ptr<SpanStore> store,
                                   bool time_nodes);

/// Prometheus text exposition → value per series name ("name" or
/// "name_bucket{le=...}"); comment lines are skipped.
using Prom = std::map<std::string, double>;
Prom parse_prom(const std::string& text);
/// This process's registry.
Prom local_prom();
/// A bskd's registry over its stats channel; empty when unreachable.
Prom bskd_prom(std::uint16_t port);
/// b[name] - a[name] (0 where absent).
double delta(const Prom& a, const Prom& b, const std::string& name);

/// /dev/shm segments a bskd with this pid created and nobody unlinked.
std::vector<std::string> shm_segments_of(int pid);
/// Pids of this process's children that still exist (zombies included).
std::vector<int> live_children();

/// nproc and CPU model of this machine.
struct Machine {
  unsigned nproc = 0;
  std::string cpu;
};
Machine machine();

/// Append spans as JSON lines ({"name","id","start_us","dur_us"}).
void write_spans(const std::string& path, const std::string& run,
                 const std::vector<Span>& spans);

}  // namespace perfbench
