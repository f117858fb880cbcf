#pragma once
// Node: the functional unit the skeleton runtime schedules.
//
// A Node is the user-supplied (or experiment-supplied) sequential code run
// by a pipeline stage or a farm worker — the "leaves" of the paper's
// behavioural-skeleton tree. The runtime calls on_start/process/on_stop
// from a dedicated thread (FastFlow's svc_init/svc/svc_end protocol).
// Source nodes additionally implement next() and are driven without input.
//
// Nodes that model computation call simulate(work_s), which converts the
// task's reference-seconds demand into simulated elapsed time on the node's
// placement (speed × external load) — this is how the experiments reproduce
// slowdowns from overloaded or slower machines.

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "sim/workload.hpp"
#include "support/thread_annotations.hpp"
#include "rt/link.hpp"
#include "rt/task.hpp"

namespace bsk::rt {

/// Base class of all functional units.
class Node {
 public:
  virtual ~Node() = default;

  /// Called once on the executing thread before the first task.
  virtual void on_start() {}

  /// Process one task. Return std::nullopt to filter it out of the stream.
  virtual std::optional<Task> process(Task t) = 0;

  /// Called once after the last task (or on shutdown).
  virtual void on_stop() {}

  /// True for nodes driven without an input stream (sources).
  virtual bool is_source() const { return false; }

  /// True when the node's backing executor is gone (a remote worker whose
  /// peer process died). The farm treats such a worker as crashed: its
  /// queued and in-flight tasks are recovered exactly once
  /// (Farm::fail_crashed_workers) and the failure is surfaced to managers
  /// as WorkerFailureBean.
  virtual bool failed() const { return false; }

  /// Secure any transport channel this node privately owns (remote nodes
  /// upgrade their wire connection; local nodes have nothing to secure).
  /// Returns the number of channels newly secured.
  virtual std::size_t secure_channels() { return 0; }

  // ----------------------------------------------------------- pipelining
  //
  // A node may pipeline several tasks toward a backing executor (a remote
  // worker with a credit window keeps up to N tasks in flight on the wire).
  // Such a node returns nullopt from process() while its window has room
  // and delivers the delayed results through flush(). The farm calls
  // flush() whenever the worker's input is idle, not only at end of
  // stream, so a result is delivered as soon as the executor answers and
  // the window caps tasks in flight without holding any result back.
  // Because tasks it accepted are no longer visible to the farm, the node —
  // not the farm's per-call in-flight copy — owns their crash-recovery
  // copies.

  /// True when this node keeps its own recovery copies of accepted tasks
  /// (the farm then skips its per-call in-flight stash and recovers via
  /// drain_unacked() instead).
  virtual bool owns_recovery() const { return false; }

  /// Remove and return the recovery copies of every task accepted but not
  /// yet acknowledged by the backing executor. Called (under the farm's
  /// per-worker recovery lock) when the node has failed; draining is
  /// destructive, so repeated calls return nothing — the exactly-once
  /// guarantee of crash recovery rests on that.
  virtual std::vector<Task> drain_unacked() { return {}; }

  /// Deliver the oldest pipelined result, blocking until it arrives
  /// (nullopt when none remain or the backing executor died; the remainder
  /// is then recoverable via drain_unacked()). Called with the input idle
  /// mid-stream and until dry at end of stream.
  virtual std::optional<Task> flush() { return std::nullopt; }

  /// Source protocol: produce the next task; std::nullopt = end of stream.
  virtual std::optional<Task> next() { return std::nullopt; }

  void set_placement(Placement p) { placement_ = p; }
  const Placement& placement() const { return placement_; }

 protected:
  /// Spend `work_s` reference-seconds of computation at this placement.
  /// With no platform, demand is taken at face value in simulated time.
  void simulate(double work_s) const {
    if (work_s <= 0.0) return;
    double d = work_s;
    if (placement_.platform)
      d = placement_.platform->compute_time(placement_.machine, work_s,
                                            support::Clock::now());
    support::Clock::sleep_for(support::SimDuration(d));
  }

 private:
  Placement placement_{};
};

/// Factory producing a fresh Node per executing replica. Farms call it once
/// per worker so stateful workers get independent state.
using NodeFactory = std::function<std::unique_ptr<Node>()>;

/// Wraps a plain function as a Node.
class LambdaNode final : public Node {
 public:
  using Fn = std::function<std::optional<Task>(Task)>;
  explicit LambdaNode(Fn fn) : fn_(std::move(fn)) {}
  std::optional<Task> process(Task t) override { return fn_(std::move(t)); }

 private:
  Fn fn_;
};

/// The standard simulated worker: spends the task's declared demand on its
/// placement, then forwards the task (optionally transformed).
class SimComputeNode final : public Node {
 public:
  using Transform = std::function<void(Task&)>;
  explicit SimComputeNode(Transform tf = nullptr) : tf_(std::move(tf)) {}

  std::optional<Task> process(Task t) override {
    simulate(t.work_s);
    if (tf_) tf_(t);
    return t;
  }

 private:
  Transform tf_;
};

/// Stream source: emits `count` tasks paced by an arrival model, each with
/// demand drawn from a service-time model. The emission rate is adjustable
/// at run time — the actuator behind the paper's incRate/decRate contracts
/// sent to the Producer stage.
class StreamSource final : public Node {
 public:
  StreamSource(std::size_t count, double tasks_per_s, double work_s_per_task)
      : StreamSource(count, tasks_per_s,
                     std::make_unique<sim::FixedService>(work_s_per_task)) {}

  StreamSource(std::size_t count, double tasks_per_s,
               std::unique_ptr<sim::ServiceTimeModel> service)
      : count_(count),
        rate_(tasks_per_s),
        service_(std::move(service)) {}

  bool is_source() const override { return true; }

  std::optional<Task> next() override {
    const std::uint64_t n = emitted_.load(std::memory_order_relaxed);
    if (n >= count_) return std::nullopt;
    // Pace: sleep the inter-arrival gap at the *current* rate so rate
    // changes take effect immediately.
    const double r = rate_.load(std::memory_order_relaxed);
    support::Clock::sleep_for(support::SimDuration(1.0 / (r > 0 ? r : 1e-9)));
    const auto t = support::Clock::now();
    Task task = Task::data(n, service_->sample(t));
    emitted_.store(n + 1, std::memory_order_relaxed);
    return task;
  }

  std::optional<Task> process(Task t) override { return t; }  // unused

  /// Current emission rate (tasks per simulated second).
  double rate() const { return rate_.load(std::memory_order_relaxed); }

  /// Retune the emission rate (thread-safe; takes effect on the next task).
  void set_rate(double tasks_per_s) {
    if (tasks_per_s > 0) rate_.store(tasks_per_s, std::memory_order_relaxed);
  }

  /// Tasks emitted so far (readable from sensor threads).
  std::size_t emitted() const {
    return emitted_.load(std::memory_order_relaxed);
  }
  std::size_t count() const { return count_; }

 private:
  std::size_t count_;
  std::atomic<double> rate_;
  std::unique_ptr<sim::ServiceTimeModel> service_;
  std::atomic<std::uint64_t> emitted_{0};
};

/// Stream sink: spends optional per-task display/consume work, records
/// completion timestamps, and keeps the received task ids for verification.
class StreamSink final : public Node {
 public:
  explicit StreamSink(double work_s_per_task = 0.0) : work_s_(work_s_per_task) {}

  std::optional<Task> process(Task t) override {
    simulate(work_s_);
    t.completed = support::Clock::now();
    {
      support::MutexLock lk(mu_);
      received_ids_.push_back(t.id);
      latencies_.push_back(t.completed - t.created);
    }
    return std::nullopt;  // stream ends here
  }

  std::vector<std::uint64_t> received_ids() const {
    support::MutexLock lk(mu_);
    return received_ids_;
  }

  std::size_t received() const {
    support::MutexLock lk(mu_);
    return received_ids_.size();
  }

  std::vector<double> latencies() const {
    support::MutexLock lk(mu_);
    return latencies_;
  }

 private:
  double work_s_;
  mutable support::Mutex mu_{"StreamSink"};
  std::vector<std::uint64_t> received_ids_ BSK_GUARDED_BY(mu_);
  std::vector<double> latencies_ BSK_GUARDED_BY(mu_);
};

/// Runs a fixed sequence of inner nodes back-to-back inside one replica —
/// how we express farm(pipeline(...)) trees: each farm worker executes the
/// whole inner pipeline on its task (documented substitution: replication
/// of the composed stage rather than a per-stage thread split; identical
/// steady-state throughput for a balanced inner pipeline).
class CompositeNode final : public Node {
 public:
  explicit CompositeNode(std::vector<std::unique_ptr<Node>> stages)
      : stages_(std::move(stages)) {}

  void on_start() override {
    for (auto& s : stages_) {
      s->set_placement(placement());
      s->on_start();
    }
  }

  std::optional<Task> process(Task t) override {
    std::optional<Task> cur{std::move(t)};
    for (auto& s : stages_) {
      if (!cur) break;
      cur = s->process(std::move(*cur));
    }
    return cur;
  }

  void on_stop() override {
    for (auto& s : stages_) s->on_stop();
  }

 private:
  std::vector<std::unique_ptr<Node>> stages_;
};

}  // namespace bsk::rt
