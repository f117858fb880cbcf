#pragma once
// Farm: the functional-replication skeleton (task farm), with the live
// reconfiguration surface the paper's autonomic managers drive.
//
// Structure follows the paper's Fig. 2 (left): an emitter S dispatching
// input tasks to a replicated set of workers W under a scheduling policy,
// and a collector C gathering (or reducing) results. Every actuator the
// paper's ABC exposes is a public, thread-safe method callable while the
// farm runs:
//
//   add_worker()        – recruit-and-instantiate a new worker (the paper's
//                         ADD_EXECUTOR); optionally pre-secured, which is
//                         what the two-phase multi-concern protocol needs;
//   remove_worker()     – retire one worker after it drains (REMOVE_EXECUTOR);
//   rebalance()         – redistribute queued tasks (BALANCE_LOAD);
//   secure_all_links()  – flip every untrusted link to SSL.
//
// Sensors: worker count, per-worker queue lengths and their variance
// (QueueVarianceBean), arrival/departure rates (ArrivalRateBean /
// DepartureRateBean), mean service time, reconfiguration-in-progress flag
// (the sensor blackout visible in the paper's Fig. 4).
//
// Reconfigurations take a configurable amount of simulated time during
// which dispatch pauses — reproducing the cost the paper observes when
// "reconfiguration takes a little bit longer due to the higher number of
// components involved".

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "sim/resource_manager.hpp"
#include "rt/conduit.hpp"
#include "rt/metrics.hpp"
#include "rt/node.hpp"
#include "rt/runnable.hpp"
#include "support/thread_annotations.hpp"

namespace bsk::rt {

/// Task-to-worker dispatch policy (the paper's S policies; scatter/multicast
/// specialize broadcast for data-parallel use and share its code path here).
enum class SchedPolicy {
  RoundRobin,  ///< cycle over non-retiring workers
  OnDemand,    ///< shortest-queue-first (auto load balancing)
  Broadcast,   ///< copy every task to every worker
};

/// Result-collection mode (the paper's C policies).
enum class CollectMode {
  Gather,  ///< forward every result downstream
  Reduce,  ///< fold results, emit the single accumulated task at EOS
};

/// Static farm configuration.
struct FarmConfig {
  std::size_t initial_workers = 1;
  SchedPolicy policy = SchedPolicy::RoundRobin;
  CollectMode collect = CollectMode::Gather;
  /// Preserve emission order at the collector (Gather only).
  bool ordered = false;
  std::size_t worker_queue_capacity = 4096;
  /// Sliding reorder window of the ordered collector (maximum distance a
  /// result may arrive ahead of the next in-order emission before the
  /// gap-flush path slides the window forward).
  std::size_t reorder_window = 1024;
  /// Simulated seconds one add/remove reconfiguration takes (dispatch
  /// pauses; sensors report a blackout).
  double reconfig_delay_s = 0.0;
  /// Sliding window of the rate sensors.
  support::SimDuration rate_window{10.0};
  /// Reducer for CollectMode::Reduce.
  std::function<Task(Task, Task)> reducer;
};

/// Outcome of remove_worker(): whether a worker was retired and the core
/// lease it held (to be released by the caller's resource manager).
struct RemoveWorkerResult {
  bool removed = false;
  std::optional<sim::CoreLease> lease;
};

class Farm final : public Runnable {
 public:
  /// `home` places the emitter/collector (and costs the farm's external
  /// conduits); workers are placed individually via add_worker.
  Farm(std::string name, FarmConfig cfg, NodeFactory worker_factory,
       Placement home = {});
  ~Farm() override;

  void start() override;
  void wait() override;

  Placement home() const override { return home_; }

  // ------------------------------------------------------------ actuators

  /// Instantiate a new worker at `place` holding `lease`. When
  /// `secure_links`, its links are secured before it can receive any task.
  /// Returns false after shutdown has begun.
  bool add_worker(Placement place = {},
                  std::optional<sim::CoreLease> lease = std::nullopt,
                  bool secure_links = false);

  /// Retire the most recently added active worker (drain-then-exit).
  RemoveWorkerResult remove_worker();

  /// Redistribute queued tasks from the longest to the shortest worker
  /// queues. Returns the number of tasks moved.
  std::size_t rebalance();

  /// Secure every currently-untrusted unsecured link (emitter→worker and
  /// worker→collector). Returns the number of links secured.
  std::size_t secure_all_links();

  /// Fault injection: crash one worker (the most recently added active
  /// one). Its queued tasks and the task it was executing are recovered and
  /// redistributed to the surviving workers — exactly once: the dying
  /// worker's own result (if any) is discarded under the same lock that
  /// captures the in-flight task. The crashed core's lease is lost with the
  /// "machine". Returns false when fewer than two active workers exist.
  bool inject_worker_failure();

  /// Crash detection for externally-backed workers: retire-and-recover every
  /// active worker whose Node reports failed() (e.g. a bsk::net remote
  /// worker whose peer process died). Queued and in-flight tasks are
  /// recovered exactly once; when no survivor exists they are stashed and
  /// flushed to the next worker added (the AM's replacement). Returns the
  /// number of workers failed. Safe to call periodically from a monitor
  /// thread.
  std::size_t fail_crashed_workers();

  /// Cumulative failures (injected + detected).
  std::size_t failures() const { return failures_.load(); }

  // -------------------------------------------------------------- sensors

  /// Number of active (non-retiring) workers — the scheduling capacity the
  /// manager's NumWorkerBean reflects.
  std::size_t worker_count() const;

  /// Workers whose thread is still running, including retiring ones that
  /// are draining their queue — what the resource-usage plots count.
  std::size_t running_workers() const;

  /// Queue length of each active worker, in worker-creation order.
  std::vector<std::size_t> queue_lengths() const;

  /// Population variance of the active workers' queue lengths.
  double queue_variance() const;

  /// Per-worker utilization: busy simulated seconds accumulated by each
  /// active worker since it started (creation order).
  std::vector<double> worker_busy_seconds() const;

  /// True while an add/remove reconfiguration is in progress.
  bool reconfiguring() const { return reconfiguring_.load(); }

  /// Farm-level arrival/departure rates and service-time stats.
  NodeMetrics& metrics() { return metrics_; }
  const NodeMetrics& metrics() const { return metrics_; }

  /// Data messages that crossed an untrusted link unsecured (aggregated
  /// over all internal links) — the security-exposure metric.
  std::uint64_t insecure_messages() const;

  /// True when any internal link is untrusted and not yet secured.
  bool has_unsecured_untrusted_links() const;

  /// Total workers ever spawned (includes retired ones).
  std::size_t workers_spawned() const { return spawned_.load(); }

 private:
  struct Worker {
    std::size_t wid = 0;
    std::unique_ptr<Node> node;
    ConduitPtr in;                       ///< emitter → this worker
    Link out_link;                       ///< this worker → collector
    Placement place;
    std::optional<sim::CoreLease> lease;
    std::jthread thread;
    std::atomic<bool> started{false};    ///< thread assigned and running
    std::atomic<bool> retiring{false};
    std::atomic<bool> exited{false};
    std::atomic<bool> failed{false};
    std::atomic<double> busy_s{0.0};
    /// Recovery state, all under inflight_mu: the task the worker thread is
    /// executing right now (inflight), plus the batch it popped but has not
    /// started yet (pending). Guards the emit/fail race for exactly-once.
    support::Mutex inflight_mu{"Farm.Worker.inflight"};
    std::optional<Task> inflight BSK_GUARDED_BY(inflight_mu);
    std::deque<Task> pending BSK_GUARDED_BY(inflight_mu);
    /// Lock-free mirror of pending.size() so sensors and rebalance() can
    /// count staged-but-unclaimed tasks without taking inflight_mu.
    std::atomic<std::size_t> staged{0};
  };

  /// Immutable epoch-numbered view of the worker set. The emitter and the
  /// sensors read the current snapshot without touching workers_mu_; every
  /// membership or state change (add/remove/fail/retire) republishes it and
  /// bumps epoch_, which dispatchers check per task.
  struct Snapshot {
    std::uint64_t epoch = 0;
    std::vector<Worker*> sched;   ///< dispatchable: started, not retiring/failed
    std::vector<Worker*> active;  ///< sensor view: not retiring
    std::vector<Worker*> all;     ///< every worker ever (append-only backing)
  };

  void emitter_loop();
  void worker_loop(Worker* w);
  void collector_loop();
  void resubmit(Task t);  // crash recovery: re-offer to a survivor
  /// Recover a victim already marked retiring: steal its queue, capture the
  /// in-flight task (exactly once, racing the worker's own recovery),
  /// redistribute, and account the failure.
  void recover_worker(Worker* victim);
  /// Tasks queued for `w`: its channel plus its staged batch, read in the
  /// order that never misses a batch mid-pop (Conduit::pop_n_staged).
  static std::size_t depth(const Worker* w);
  void stash_orphan(Task t);        // no survivor: park for the replacement
  void flush_orphans_to(Worker* w); // new worker inherits parked tasks

  /// Rebuild and publish the snapshot. Caller holds workers_mu_.
  void refresh_snapshot_locked() BSK_REQUIRES(workers_mu_);
  /// Current snapshot (never null after construction).
  std::shared_ptr<const Snapshot> snapshot() const;
  /// Snapshot with at least one dispatchable worker: waits on reconfig_cv_
  /// through reconfiguration blackouts. Null only at shutdown.
  std::shared_ptr<const Snapshot> dispatch_snapshot();

  FarmConfig cfg_;
  NodeFactory factory_;
  Placement home_;

  // Worker set: guarded by workers_mu_; actuators mutate under lock and
  // republish snap_. Steady-state dispatch and sensors read snap_ only.
  mutable support::Mutex workers_mu_{"Farm.workers"};
  support::CondVar reconfig_cv_;
  std::vector<std::unique_ptr<Worker>> workers_ BSK_GUARDED_BY(workers_mu_);
  std::size_t next_wid_ BSK_GUARDED_BY(workers_mu_) = 0;

  // Published worker-set snapshot. snap_mu_ only guards the pointer swap;
  // the pointed-to Snapshot is immutable. epoch_ mirrors snap_->epoch so
  // dispatchers can detect staleness with one relaxed atomic load.
  mutable support::Mutex snap_mu_{"Farm.snapshot"};
  std::shared_ptr<const Snapshot> snap_ BSK_GUARDED_BY(snap_mu_) =
      std::make_shared<Snapshot>();
  std::atomic<std::uint64_t> epoch_{0};

  // Shared worker→collector channel; per-worker Link charges its cost.
  support::Channel<Task> to_collector_;

  // Tasks recovered from crashed workers while no survivor existed; flushed
  // to the next added worker, or delivered unprocessed at shutdown.
  mutable support::Mutex orphans_mu_{"Farm.orphans"};
  std::deque<Task> orphans_ BSK_GUARDED_BY(orphans_mu_);

  NodeMetrics metrics_;
  std::jthread emitter_thread_;
  std::jthread collector_thread_;

  std::atomic<bool> reconfiguring_{false};
  std::atomic<bool> emitter_done_{false};
  std::atomic<bool> shutting_down_{false};
  std::atomic<std::size_t> spawned_{0};
  std::atomic<std::size_t> done_acks_{0};
  std::atomic<std::size_t> failures_{0};
  std::atomic<std::uint64_t> order_seq_{0};
  bool started_ = false;
};

}  // namespace bsk::rt
