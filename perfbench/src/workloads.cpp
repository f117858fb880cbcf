#include "workloads.hpp"

#include <signal.h>
#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bs/behavioural_skeleton.hpp"
#include "bs/remote_bs.hpp"
#include "net/shm.hpp"
#include "net/wire.hpp"
#include "net/worker_pool.hpp"
#include "obs/metrics.hpp"
#include "openloop.hpp"
#include "probes.hpp"
#include "support/channel.hpp"
#include "support/event_log.hpp"

namespace perfbench {

namespace {

using bsk::support::json::Value;
namespace rt = bsk::rt;
namespace net = bsk::net;

// Share of --seconds each part of a run gets. Untraced stream runs: the
// light→nominal passes. Traced stream runs: an untraced and a traced
// nominal stretch, the layer ladder and the stall passes; the flat-out
// batches that follow are sized by a task count instead (batch_tasks).
constexpr double kWarmShare = 0.05;
constexpr double kLightShare = 0.2;
constexpr double kNominalShare = 0.35;
constexpr double kTracedShare = 0.2;  // each of the two nominal stretches
constexpr double kRungShare = 0.06;   // each of the six ladder rungs
constexpr double kStallShare = 0.03;  // each of the stall passes

constexpr int kSetups = 5;       // set-ups per run; setup_s is their median
constexpr int kPasses = 5;       // light→nominal passes per stream run
constexpr int kBatches = 5;      // flat-out batches per traced run
constexpr int kStallPasses = 5;  // passes at stall_tps per traced run
// react_s: the delivered rate must reach the contract (on the stream
// workloads this share of nominal) and hold it for kReactHoldS.
constexpr double kReactShare = 0.5;
constexpr double kReactHoldS = 1.0;
// A rate at which every task of a batch is due at once.
constexpr double kFlatOutTps = 1e12;

double num(const Value& v, const char* key) {
  const Value* x = v.get(key);
  if (x == nullptr || !x->is_number())
    throw std::runtime_error(std::string("workloads.json: no number '") +
                             key + "'");
  return x->number;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double p50_from_due(const RunLog& log) {
  return median(log.latencies_us(0, log.size()));
}

// ------------------------------------------------------------ the daemon

/// A spawned bskd, stopped (and checked for leftovers) on destruction.
class Bskd {
 public:
  Bskd(const std::string& exe, Report& rep) : rep_(rep) {
    proc_ = net::spawn_bskd(exe);
    if (!proc_.valid())
      throw std::runtime_error("cannot spawn bskd from " + exe);
    rep_.bskd_pids.push_back(proc_.pid);
  }
  ~Bskd() { stop(); }
  Bskd(const Bskd&) = delete;
  Bskd& operator=(const Bskd&) = delete;

  std::uint16_t port() const { return proc_.port; }

  /// SIGTERM, escalating to SIGKILL after 5 s; then no shm segment the
  /// daemon created may survive it.
  void stop() {
    const int pid = proc_.pid;
    if (pid <= 0) return;
    ::kill(pid, SIGTERM);
    bool reaped = false;
    for (int i = 0; i < 500 && !reaped; ++i) {
      reaped = ::waitpid(pid, nullptr, WNOHANG) == pid;
      if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!reaped) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      rep_.require(false, "bskd " + std::to_string(pid) + " ignored SIGTERM");
    }
    proc_.pid = -1;
    const auto left = shm_segments_of(pid);
    rep_.require(left.empty(), "bskd " + std::to_string(pid) + " left " +
                                   std::to_string(left.size()) +
                                   " shm segment(s)");
  }

 private:
  Report& rep_;
  net::BskdProcess proc_;
};

net::WorkerPoolOptions pool_options(const std::string& kind, bool shm) {
  net::WorkerPoolOptions o;  // defaults: credit window 4, 1 MiB rings
  o.node_kind = kind;
  o.allow_shm = shm;
  return o;
}

// ------------------------------------------------------------ stream rig

/// bskd + pool + the farm under test for the stream workloads:
/// Farm (ordered, RoundRobin, 2 workers) → WorkerPool → bskd "echo".
struct StreamRig {
  std::unique_ptr<Bskd> bskd;
  std::unique_ptr<net::WorkerPool> pool;
};

constexpr std::size_t kStreamWorkers = 2;

std::unique_ptr<rt::Farm> stream_farm(rt::NodeFactory factory) {
  rt::FarmConfig cfg;
  cfg.initial_workers = kStreamWorkers;
  cfg.policy = rt::SchedPolicy::RoundRobin;
  cfg.ordered = true;
  return std::make_unique<rt::Farm>("perfbench", cfg, std::move(factory));
}

Path farm_path(rt::Farm& f) {
  return Path{
      [&f](rt::Task t) { return f.input()->push(std::move(t)); },
      [&f] { f.input()->close(); },
      [&f](rt::Task& t) {
        return f.output()->pop(t) == bsk::support::ChannelStatus::Ok;
      }};
}

/// A started farm on `pool`, checked against the validity gates: every
/// worker remote, and attached to shm exactly when the pool allows it.
std::unique_ptr<rt::Farm> start_pool_farm(net::WorkerPool& pool, bool shm,
                                          const std::shared_ptr<SpanStore>& spans,
                                          bool time_nodes, Report& rep) {
  const std::size_t remote0 = pool.remote_nodes_created();
  const std::size_t shm0 = pool.shm_attached();
  auto farm = stream_farm(timed_factory([&pool] { return pool.make_node(); },
                                        spans, time_nodes));
  farm->start();
  const std::size_t remote = pool.remote_nodes_created() - remote0;
  const std::size_t attached = pool.shm_attached() - shm0;
  rep.require(remote == kStreamWorkers,
              "only " + std::to_string(remote) + " remote workers");
  rep.require(attached == (shm ? kStreamWorkers : 0),
              std::to_string(attached) + " workers attached to shm");
  return farm;
}

/// Drive a started farm, wait for it to drain, and tally the tasks.
RunLog drive(rt::Farm& farm, const std::vector<Phase>& phases,
             const TaskSource& src, const RunOptions& opts, Report& rep) {
  Path path = farm_path(farm);
  RunLog log = run_open_loop(phases, src, path, opts);
  farm.wait();
  rep.attempted += log.size();
  rep.failed += log.failed;
  return log;
}

/// u64 tasks, or seeded byte vectors where the workload names a
/// payload_bytes.
TaskSource stream_tasks(const Value& p, std::uint64_t seed) {
  if (p.get("payload_bytes") == nullptr)
    return TaskSource(seed, TaskSource::Payload::U64, sizeof(std::uint64_t));
  return TaskSource(seed, TaskSource::Payload::Bytes,
                    static_cast<std::size_t>(num(p, "payload_bytes")));
}

/// kSetups set-ups of bskd + pool + started farm; all but the last are
/// torn down again. Returns the last rig and its farm.
std::unique_ptr<rt::Farm> stream_setup(const RunConfig& cfg, const Value& p,
                                       StreamRig& rig,
                                       const std::shared_ptr<SpanStore>& spans,
                                       Report& rep) {
  const bool shm = num(p, "shm") != 0.0;
  std::vector<double> setup_s;
  std::unique_ptr<rt::Farm> farm;
  for (int k = 0; k < kSetups; ++k) {
    if (farm) {
      farm->input()->close();
      farm->wait();
      farm.reset();
      rig.pool.reset();
      rig.bskd.reset();
    }
    const std::int64_t t0 = now_ns();
    rig.bskd = std::make_unique<Bskd>(cfg.bskd, rep);
    rig.pool = std::make_unique<net::WorkerPool>(
        std::vector<net::Endpoint>{{"127.0.0.1", rig.bskd->port()}},
        pool_options("echo", shm));
    farm = start_pool_farm(*rig.pool, shm, spans, false, rep);
    setup_s.push_back((now_ns() - t0) / 1e9);
  }
  rep.set("setup_s", median(setup_s), "s");
  rep.info["setup_samples"] = static_cast<double>(setup_s.size());
  return farm;
}

/// Completion rate of batch_tasks tasks pushed as fast as the farm accepts
/// them: tasks back per second from the first push to the last result.
/// kBatches batches run, each on a fresh bskd, pool and farm so that no
/// single placement of their threads sets the figure; the median is the
/// path's throughput.
double flat_out_tps(const RunConfig& cfg, const Value& p,
                    const TaskSource& src, bool shm, Report& rep) {
  const double n = num(p, "batch_tasks");
  std::vector<double> tps;
  for (int k = 0; k < kBatches; ++k) {
    Bskd bskd(cfg.bskd, rep);
    net::WorkerPool pool({{"127.0.0.1", bskd.port()}},
                         pool_options("echo", shm));
    auto spans = std::make_shared<SpanStore>();
    auto farm = start_pool_farm(pool, shm, spans, false, rep);
    const RunLog log =
        drive(*farm, {{kFlatOutTps, n / kFlatOutTps}}, src, {}, rep);
    const std::vector<double> done = log.completions_s();
    const double first = log.sent_ns.front() / 1e9;
    tps.push_back(done.empty() ? 0.0 : done.size() / (done.back() - first));
    rep.info["sustain_tps." + std::to_string(k)] = tps.back();
  }
  return median(tps);
}

/// kStallPasses passes at stall_tps, about half the flat-out rate, each on
/// a fresh farm. A pass stalls when its median latency exceeds limit_us or
/// the generator falls twice that far behind: the farm's queues then stay
/// full for a second or more at a rate the path sustains. Returns the
/// share of passes that stalled.
double stall_share(const RunConfig& cfg, const Value& p, const TaskSource& src,
                   StreamRig& rig, bool shm, Report& rep) {
  const double limit_us = num(p, "limit_us");
  RunOptions opts;
  opts.max_late_s = 2e-6 * limit_us;  // a stalled pass stops early
  int stalled = 0;
  for (int k = 0; k < kStallPasses; ++k) {
    auto spans = std::make_shared<SpanStore>();
    auto farm = start_pool_farm(*rig.pool, shm, spans, false, rep);
    const RunLog log = drive(
        *farm, {{num(p, "stall_tps"), cfg.seconds * kStallShare}}, src, opts,
        rep);
    const double p50 = p50_from_due(log);
    rep.info["stall.p50_us." + std::to_string(k)] = p50;
    stalled += log.aborted || p50 > limit_us;
  }
  return static_cast<double>(stalled) / kStallPasses;
}

/// An unmeasured stretch at the nominal rate on a throwaway farm: the first
/// high-rate second of a process pays one-off costs (allocator growth,
/// first touch of ring pages, thread wake-up paths) that users pay once.
void warm_up(const Value& p, const TaskSource& src, StreamRig& rig, bool shm,
             double seconds, Report& rep) {
  auto spans = std::make_shared<SpanStore>();
  auto farm = start_pool_farm(*rig.pool, shm, spans, false, rep);
  drive(*farm, {{num(p, "nominal_tps"), seconds * kWarmShare}}, src, {}, rep);
}

/// Reaction time to the step at the end of phase 0 (see reaction_s). A
/// contract never met after the step makes the run invalid; the figure is
/// then the whole schedule's length, longer than any real reaction, so a
/// farm that never reacts cannot read as a fast one.
double react_s(const RunLog& log, double contract, double window_s,
               Report& rep) {
  const auto r = reaction_s(log, 1, contract, window_s, kReactHoldS);
  rep.require(r.has_value(), "delivered rate never held " +
                                 std::to_string(std::llround(contract)) +
                                 " tasks/s after the step");
  return r ? *r : log.due_ns.back() / 1e9;
}

/// ∫ worker_count dt, sampled by the run's ticker thread.
struct WorkerIntegral {
  std::function<std::size_t()> count;
  std::int64_t last_ns = 0;
  double worker_s = 0.0;
  void tick() {
    const std::int64_t now = now_ns();
    if (last_ns != 0)
      worker_s += static_cast<double>(count()) * (now - last_ns) / 1e9;
    last_ns = now;
  }
};

void run_stream(const RunConfig& cfg, const Value& p, Report& rep) {
  const bool shm = num(p, "shm") != 0.0;
  const double light = num(p, "light_tps");
  const double nominal = num(p, "nominal_tps");
  const double tail_q = num(p, "tail_q");
  const TaskSource src = stream_tasks(p, cfg.seed);
  auto spans = std::make_shared<SpanStore>();

  StreamRig rig;
  auto farm = stream_setup(cfg, p, rig, spans, rep);
  warm_up(p, src, rig, shm, cfg.seconds, rep);

  // kPasses light→nominal passes, each on a fresh farm (fresh threads and
  // connections); every figure is the median over the passes, so one pass
  // whose threads landed badly on the cores does not move the run's number.
  const std::vector<Phase> phases{
      {light, cfg.seconds * kLightShare / kPasses},
      {nominal, cfg.seconds * kNominalShare / kPasses}};
  std::map<std::string, std::vector<double>> passes;
  double worker_s = 0.0;
  for (int k = 0; k < kPasses; ++k) {
    if (!farm) farm = start_pool_farm(*rig.pool, shm, spans, false, rep);
    WorkerIntegral workers{[&farm] { return farm->worker_count(); }};
    RunOptions opts;
    opts.tick = [&workers] { workers.tick(); };
    const RunLog log = drive(*farm, phases, src, opts, rep);
    farm.reset();
    worker_s += workers.worker_s;
    const auto light_lat = log.latencies_us(0, log.phase_end[0]);
    const auto nominal_lat = log.latencies_us(log.phase_end[0], log.size());
    passes["p50_light_us"].push_back(median(light_lat));
    passes["tail_light_us"].push_back(quantile(light_lat, tail_q));
    passes["p50_nominal_us"].push_back(median(nominal_lat));
    passes["tail_nominal_us"].push_back(quantile(nominal_lat, tail_q));
    passes["tail_us"].push_back(quantile(log.latencies_us(0, log.size()),
                                         num(p, "run_tail_q")));
    passes["react_s"].push_back(react_s(
        log, kReactShare * nominal, num(p, "react_window_s"), rep));
    rep.info["tail_light_us.samples_per_pass"] =
        static_cast<double>(light_lat.size());
    rep.info["tail_nominal_us.samples_per_pass"] =
        static_cast<double>(nominal_lat.size());
  }
  for (const auto& [name, v] : passes) {
    // Tails go to the run record only: on a shared 4-core box they swing
    // with co-tenant load from run to run and cannot carry a bound.
    if (name.rfind("tail", 0) == 0)
      rep.info[name] = median(v);
    else
      rep.set(name, median(v), name == "react_s" ? "s" : "us");
  }
  rep.set("worker_s", worker_s, "worker.s");
}

// --------------------------------------------------------- layer ladder

/// Echo loop over an in-process ShmTransport pair: the generator frames
/// each task into ring a, an echo thread returns every frame from b, and
/// the drain decodes what comes back on a.
RunLog shm_pair_rung(const std::vector<Phase>& phases, const TaskSource& src,
                     Report& rep) {
  auto pair = net::ShmTransport::make_pair();
  std::jthread echo([b = pair.b] {
    bsk::net::Frame f;
    while (b->recv(f) == net::RecvStatus::Ok) {
      b->send(f);
      if (f.type == net::FrameType::Shutdown) break;
    }
  });
  auto a = pair.a;
  Path path{
      [a](rt::Task t) {
        return a->send_serialized(net::FrameType::TaskMsg, 1,
                                  [&t](std::size_t, net::wire::Writer& w) {
                                    w.u64(0);
                                    net::put_task(w, t);
                                  });
      },
      [a] { a->send(net::Frame{net::FrameType::Shutdown, {}}); },
      [a](rt::Task& t) {
        net::Frame f;
        if (a->recv(f) != net::RecvStatus::Ok ||
            f.type == net::FrameType::Shutdown)
          return false;
        auto r = net::parse_task(f);
        if (!r) return false;
        t = std::move(*r);
        return true;
      }};
  RunLog log = run_open_loop(phases, src, path);
  echo.join();
  a->close();
  rep.attempted += log.size();
  rep.failed += log.failed;
  return log;
}

/// Farm worker that frames, decodes and parses each task the way the wire
/// does, timing the encode and decode halves.
std::unique_ptr<rt::Node> codec_node(const std::shared_ptr<SpanStore>& spans) {
  return std::make_unique<rt::LambdaNode>(
      [spans](rt::Task t) -> std::optional<rt::Task> {
        std::vector<std::uint8_t> bytes;
        const std::int64_t t0 = now_ns();
        net::build_frame_into(bytes, net::FrameType::TaskMsg,
                              [&t](net::wire::Writer& w) {
                                w.u64(0);
                                net::put_task(w, t);
                              });
        const std::int64_t t1 = now_ns();
        net::FrameDecoder dec;
        dec.feed(bytes.data(), bytes.size());
        auto frame = dec.next();
        std::optional<rt::Task> out;
        if (frame) out = net::parse_task(*frame);
        const std::int64_t t2 = now_ns();
        spans->add({Span{"net.wire.encode", t.id, t0, t1 - t0},
                    Span{"net.wire.decode", t.id, t1, t2 - t1}});
        return out;
      });
}

/// A rung's cost: median time from push to result.
double rung_p50(const RunLog& log) { return median(log.service_us()); }


/// Rungs 0..5 at the workload's ladder_tps, on the workload's tasks. That
/// rate is one every rung sustains, TCP included, so adjacent rungs differ
/// by one layer's cost and not by a backlog.
void layer_ladder(const RunConfig& cfg, const Value& p, const TaskSource& src,
                  StreamRig& rig, Report& rep) {
  const std::vector<Phase> phases{
      {num(p, "ladder_tps"), cfg.seconds * kRungShare}};
  auto spans = std::make_shared<SpanStore>();
  double p50[6] = {};

  {  // (0) a support::Channel between two threads
    bsk::support::Channel<rt::Task> ch(4096);
    Path path{[&ch](rt::Task t) { return ch.push(std::move(t)); },
              [&ch] { ch.close(); },
              [&ch](rt::Task& t) {
                return ch.pop(t) == bsk::support::ChannelStatus::Ok;
              }};
    const RunLog log = run_open_loop(phases, src, path);
    rep.attempted += log.size();
    rep.failed += log.failed;
    p50[0] = rung_p50(log);
  }
  {  // (1) in-process farm, echo workers
    auto farm = stream_farm([] {
      return std::make_unique<rt::LambdaNode>(
          [](rt::Task t) -> std::optional<rt::Task> { return t; });
    });
    farm->start();
    p50[1] = rung_p50(drive(*farm, phases, src, {}, rep));
  }
  {  // (2) rung 1 + wire encode/decode in each worker
    auto farm = stream_farm([spans] { return codec_node(spans); });
    farm->start();
    p50[2] = rung_p50(drive(*farm, phases, src, {}, rep));
  }
  p50[3] = rung_p50(shm_pair_rung(phases, src, rep));
  for (int r = 4; r <= 5; ++r) {  // (4) full shm path, (5) full TCP path
    const bool shm = r == 4;
    net::WorkerPool pool(
        {{"127.0.0.1", rig.bskd->port()}}, pool_options("echo", shm));
    auto farm = start_pool_farm(pool, shm, spans, false, rep);
    p50[r] = rung_p50(drive(*farm, phases, src, {}, rep));
  }
  for (int r = 0; r <= 5; ++r)
    rep.info["ladder.rung" + std::to_string(r) + "_p50_us"] = p50[r];
  rep.set("support.channel_hop_us", p50[0], "us");
  rep.set("rt.farm_hop_us", p50[1] - p50[0], "us");
  rep.set("net.wire.encode_us", median(spans->durations_us("net.wire.encode")),
          "us");
  rep.set("net.wire.decode_us", median(spans->durations_us("net.wire.decode")),
          "us");
  rep.set("net.shm.rtt_us", p50[3], "us");
  rep.set("net.tcp.extra_us", p50[5] - p50[4], "us");
  if (!cfg.spans_out.empty())
    write_spans(cfg.spans_out, cfg.workload + ".ladder", spans->all());
}

/// Counter deltas over one traced stretch, in this process and in bskd.
struct CounterWindow {
  Prom local0, local1, daemon0, daemon1;
  double local(const std::string& n) const { return delta(local0, local1, n); }
  double daemon(const std::string& n) const {
    return delta(daemon0, daemon1, n);
  }
  double hist_mean(const std::string& n) const {
    const double c = local(n + "_count");
    return c > 0 ? local(n + "_sum") / c : 0.0;
  }
};

/// Spans whose id % 64 == 0 go to the trace file; all feed the metrics.
std::vector<Span> sampled(const std::vector<Span>& all) {
  std::vector<Span> out;
  for (const Span& s : all)
    if (s.id % 64 == 0) out.push_back(s);
  return out;
}

/// The per-layer figures both traced runs report: `log` is the traced
/// stretch, `cw` its counter window, `spans` what the decorators recorded;
/// the two p50s are the nominal latency with and without tracing.
void traced_layer_metrics(const RunLog& log, const CounterWindow& cw,
                          const SpanStore& spans, double occupancy_max,
                          double traced_p50, double untraced_p50,
                          Report& rep) {
  const double tasks = static_cast<double>(log.size());
  const auto both = [&cw](const std::string& n) {
    return cw.local(n) + cw.daemon(n);
  };
  rep.set("load.late_p99_us", quantile(log.late_us, 0.99), "us");
  rep.set("load.push_block_share",
          log.push_block_s / (log.due_ns.back() / 1e9), "ratio");
  rep.set("rt.emitter_batch_mean", cw.hist_mean("bsk_farm_emitter_batch_size"),
          "count");
  rep.set("rt.worker_batch_mean", cw.hist_mean("bsk_farm_worker_batch_size"),
          "count");
  rep.set("rt.collector_batch_mean",
          cw.hist_mean("bsk_farm_collector_batch_size"), "count");
  rep.set("rt.reorder_occupancy_max", occupancy_max, "count");
  rep.set("net.wire.bytes_per_task",
          (cw.local("bsk_net_bytes_sent_total") +
           cw.local("bsk_net_bytes_received_total") +
           cw.local("bsk_net_shm_bytes_sent_total") +
           cw.local("bsk_net_shm_bytes_received_total")) /
              tasks,
          "B");
  rep.set("net.shm.futex_waits_per_task",
          both("bsk_net_shm_futex_waits_total") / tasks, "count");
  rep.set("net.shm.ring_full_stalls_per_task",
          both("bsk_net_shm_ring_full_stalls_total") / tasks, "count");
  const auto process = spans.durations_us("net.remote.process");
  rep.set("net.remote.process_us", median(process), "us");
  rep.set("net.remote.process_p99_us", quantile(process, 0.99), "us");
  rep.set("net.remote.credit_stalls_per_task",
          cw.local("bsk_net_credit_stalls_total") / tasks, "count");
  rep.set("net.bskd.frames_per_task",
          (cw.daemon("bsk_net_epoll_frames_received_total") +
           cw.daemon("bsk_net_epoll_frames_sent_total") +
           cw.daemon("bsk_net_shm_frames_received_total") +
           cw.daemon("bsk_net_shm_frames_sent_total")) /
              tasks,
          "count");
  rep.set("net.bskd.epoll_wakeups_per_task",
          cw.daemon("bsk_net_epoll_wakeups_total") / tasks, "count");
  rep.set("net.pool.recruit_ms",
          median(spans.durations_us("net.pool.make_node")) / 1e3, "ms");
  rep.set("obs.trace_overhead_pct",
          untraced_p50 > 0 ? 100.0 * (traced_p50 - untraced_p50) / untraced_p50
                           : 0.0,
          "%");
  rep.info["traced_p50_nominal_us"] = traced_p50;
  rep.info["untraced_p50_nominal_us"] = untraced_p50;
}

void trace_stream(const RunConfig& cfg, const Value& p, Report& rep) {
  const bool shm = num(p, "shm") != 0.0;
  const double nominal = num(p, "nominal_tps");
  const TaskSource src = stream_tasks(p, cfg.seed);
  auto spans = std::make_shared<SpanStore>();
  const std::vector<Phase> phases{{nominal, cfg.seconds * kTracedShare}};

  StreamRig rig;
  auto farm = stream_setup(cfg, p, rig, spans, rep);
  warm_up(p, src, rig, shm, cfg.seconds, rep);
  const double untraced_p50 =
      p50_from_due(drive(*farm, phases, src, {}, rep));
  farm.reset();

  // The traced stretch: node decorators, push/pop spans, a gauge sampler.
  const std::size_t attached0 = rig.pool->shm_attached();
  farm = start_pool_farm(*rig.pool, shm, spans, true, rep);
  rep.set("net.pool.shm_attached",
          static_cast<double>(rig.pool->shm_attached() - attached0), "count");
  auto& occupancy = bsk::obs::gauge("bsk_farm_reorder_occupancy");
  double occupancy_max = 0.0;
  RunOptions opts;
  opts.trace = true;
  opts.tick = [&] { occupancy_max = std::max(occupancy_max, occupancy.value()); };
  CounterWindow cw;
  cw.local0 = local_prom();
  cw.daemon0 = bskd_prom(rig.bskd->port());
  const RunLog log = drive(*farm, phases, src, opts, rep);
  farm.reset();
  cw.local1 = local_prom();
  cw.daemon1 = bskd_prom(rig.bskd->port());
  traced_layer_metrics(log, cw, *spans, occupancy_max, p50_from_due(log),
                       untraced_p50, rep);
  if (!cfg.spans_out.empty()) {
    write_spans(cfg.spans_out, cfg.workload + ".nominal", sampled(log.spans));
    write_spans(cfg.spans_out, cfg.workload + ".nominal",
                sampled(spans->all()));
  }

  layer_ladder(cfg, p, src, rig, rep);
  rep.set("load.stall_share", stall_share(cfg, p, src, rig, shm, rep),
          "ratio");
  rig.pool.reset();  // the batches bring their own daemons
  rig.bskd.reset();
  rep.set("sustain_tps", flat_out_tps(cfg, p, src, shm, rep), "tasks/s");
  // No manager runs on the stream workloads.
  for (const char* m : {"am.cycle_us", "am.cycles", "am.actuations",
                        "rules.fired"})
    rep.set(m, 0.0, "count");
  rep.metrics["am.cycle_us"].unit = "us";
}

// ------------------------------------------------------------------ adapt

/// The managed farm of the paper's Fig. 3 on bskd "sim" workers.
struct AdaptRig {
  std::unique_ptr<Bskd> bskd;
  std::unique_ptr<net::WorkerPool> pool;
  std::unique_ptr<bsk::support::EventLog> log;
  std::unique_ptr<bsk::bs::BehaviouralSkeleton> bs;

  rt::Farm& farm() { return dynamic_cast<rt::Farm&>(bs->runnable()); }

  /// Drain and stop the skeleton; its nodes (and their spans) go with it.
  void close() {
    if (!bs) return;
    farm().input()->close();
    farm().wait();
    bs->stop_managers();
    pool->stop_watch();
    bs.reset();
  }
  ~AdaptRig() { close(); }
};

/// Build and start the managed farm. Untraced runs use make_remote_farm_bs
/// itself; traced runs assemble the same skeleton around a timed factory
/// (make_remote_farm_bs hard-wires pool.factory()).
void adapt_setup(const RunConfig& cfg, const Value& p, AdaptRig& rig,
                 const std::shared_ptr<SpanStore>& spans, bool traced,
                 Report& rep) {
  rig.bskd = std::make_unique<Bskd>(cfg.bskd, rep);
  rig.pool = std::make_unique<net::WorkerPool>(
      std::vector<net::Endpoint>{{"127.0.0.1", rig.bskd->port()}},
      pool_options("sim", true));
  rig.log = std::make_unique<bsk::support::EventLog>();
  rt::FarmConfig fc;
  fc.initial_workers = 1;
  fc.ordered = true;
  fc.reconfig_delay_s = 0.0;
  fc.rate_window = bsk::support::SimDuration(num(p, "rate_window_s"));
  bsk::am::ManagerConfig mc;
  mc.period = bsk::support::SimDuration(num(p, "period_s"));
  mc.min_workers = 1;
  mc.max_workers = static_cast<std::size_t>(num(p, "max_workers"));
  mc.action_cooldown_s = num(p, "cooldown_s");
  if (!traced) {
    rig.bs = bsk::bs::make_remote_farm_bs("adapt", fc, *rig.pool, mc, nullptr,
                                          {}, {}, rig.log.get());
  } else {
    net::WorkerPool& pool = *rig.pool;
    rig.bs = bsk::bs::make_farm_bs(
        "adapt", fc,
        timed_factory([&pool] { return pool.make_node(); }, spans, true), mc,
        nullptr, {}, {}, rig.log.get());
    rig.bs->manager().load_rules(bsk::am::fault_tolerance_rules());
    pool.start_watch(rig.farm());
  }
  rig.farm().start();
  rep.require(rig.pool->remote_nodes_created() == 1,
              "initial adapt worker is not remote");
}

struct AdaptResult {
  RunLog log;
  double worker_s = 0.0;
  std::size_t actuations = 0;
};

/// One pass of the adapt schedule: `rate_tps` for a third of `seconds`,
/// then step × rate_tps, under a min-throughput contract between the two.
AdaptResult adapt_pass(const Value& p, AdaptRig& rig, const TaskSource& src,
                       double seconds, bool traced, Report& rep) {
  const double rate = num(p, "rate_tps");
  const double period = num(p, "period_s");
  const double t_step = seconds / 3.0;
  rig.bs->manager().set_contract(
      bsk::am::Contract::min_throughput(num(p, "contract_tps")));

  // Start the manager so that its cycles fall half a period away from the
  // moment the arrival-rate sensor first sees the contract rate after the
  // step: the reaction then does not depend on where the cycle grid lands.
  const double window = num(p, "rate_window_s");
  const double cross = t_step + window * (num(p, "contract_tps") - rate) /
                                    (rate * (num(p, "step") - 1.0));
  const double phase = std::fmod(cross + 0.5 * period, period);
  const std::int64_t start_at = static_cast<std::int64_t>(phase * 1e9);

  AdaptResult out;
  WorkerIntegral workers{[&rig] { return rig.farm().worker_count(); }};
  std::int64_t origin = 0;
  bool managers_started = false;
  auto& occupancy = bsk::obs::gauge("bsk_farm_reorder_occupancy");
  double occupancy_max = 0.0;
  std::size_t workers_max = 0;
  RunOptions opts;
  opts.trace = traced;
  opts.tick = [&] {
    if (origin == 0) origin = now_ns();
    if (!managers_started && now_ns() - origin >= start_at) {
      rig.bs->start_managers();
      managers_started = true;
    }
    workers.tick();
    workers_max = std::max(workers_max, rig.farm().worker_count());
    occupancy_max = std::max(occupancy_max, occupancy.value());
  };
  out.log = drive(rig.farm(),
                  {{rate, t_step}, {rate * num(p, "step"), seconds - t_step}},
                  src, opts, rep);
  rig.bs->stop_managers();
  out.worker_s = workers.worker_s;
  out.actuations = rig.log->by_name("addWorker").size() +
                   rig.log->by_name("removeWorker").size();
  rep.info["adapt.workers_max"] = static_cast<double>(workers_max);
  rep.info["adapt.reorder_occupancy_max"] = occupancy_max;
  return out;
}

/// End-to-end metrics of one adapt pass. "light" is the stretch before the
/// step, "nominal" the second half of the stretch after it (the settled
/// farm).
void adapt_metrics(const Value& p, const AdaptResult& r, Report& rep) {
  const RunLog& log = r.log;
  const double tail_q = num(p, "tail_q");
  const std::size_t step = log.phase_end[0];
  const std::size_t settled = step + (log.size() - step) / 2;
  const auto light = log.latencies_us(0, step);
  const auto nominal = log.latencies_us(settled, log.size());
  rep.set("p50_light_us", median(light), "us");
  rep.set("p50_nominal_us", median(nominal), "us");
  // Tails go to the run record only, as on the stream workloads.
  rep.info["tail_light_us"] = quantile(light, tail_q);
  rep.info["tail_nominal_us"] = quantile(nominal, tail_q);
  rep.info["tail_us"] =
      quantile(log.latencies_us(0, log.size()), num(p, "run_tail_q"));
  rep.info["tail_light_us.samples"] = static_cast<double>(light.size());
  rep.info["tail_nominal_us.samples"] = static_cast<double>(nominal.size());
  rep.set("react_s",
          react_s(log, num(p, "contract_tps"), num(p, "react_window_s"), rep),
          "s");
  rep.set("worker_s", r.worker_s, "worker.s");
}

/// Median latency over the second half after the step: the settled farm.
double settled_p50(const RunLog& log) {
  const std::size_t step = log.phase_end[0];
  return median(log.latencies_us(step + (log.size() - step) / 2, log.size()));
}

/// Tasks per second the settled farm delivered: the offered rate once the
/// manager has recruited enough workers, less if it has not.
double settled_tps(const RunLog& log) {
  const std::size_t step = log.phase_end[0];
  std::vector<double> done;
  for (std::size_t i = step + (log.size() - step) / 2; i < log.size(); ++i)
    if (log.done_ns[i] >= 0) done.push_back(log.done_ns[i] / 1e9);
  std::sort(done.begin(), done.end());
  return done.size() > 1 ? (done.size() - 1) / (done.back() - done.front())
                         : 0.0;
}

void run_adapt(const RunConfig& cfg, const Value& p, Report& rep) {
  const TaskSource src(cfg.seed, TaskSource::Payload::U64, 8,
                       num(p, "work_ms") / 1e3, num(p, "jitter"));
  auto spans = std::make_shared<SpanStore>();

  if (!cfg.trace) {
    std::vector<double> setup_s;
    std::optional<AdaptRig> rig;
    for (int k = 0; k < kSetups; ++k) {
      rig.emplace();  // tears the previous set-up down first
      const std::int64_t t0 = now_ns();
      adapt_setup(cfg, p, *rig, spans, false, rep);
      setup_s.push_back((now_ns() - t0) / 1e9);
    }
    rep.set("setup_s", median(setup_s), "s");
    rep.info["setup_samples"] = static_cast<double>(setup_s.size());
    const AdaptResult r = adapt_pass(p, *rig, src, cfg.seconds, false, rep);
    adapt_metrics(p, r, rep);
    rep.require(rig->pool->shm_attached() == rig->pool->remote_nodes_created(),
                "an adapt worker is not attached to shm");
    rep.require(rig->pool->fallback_nodes_created() == 0,
                "an adapt worker fell back to a local node");
    return;
  }

  // Traced: the schedule at half length untraced, then traced.
  double untraced_p50 = 0.0;
  {
    AdaptRig rig;
    adapt_setup(cfg, p, rig, spans, false, rep);
    untraced_p50 =
        settled_p50(adapt_pass(p, rig, src, cfg.seconds / 2, false, rep).log);
  }
  AdaptRig rig;
  adapt_setup(cfg, p, rig, spans, true, rep);
  CounterWindow cw;
  cw.local0 = local_prom();
  cw.daemon0 = bskd_prom(rig.bskd->port());
  const AdaptResult r = adapt_pass(p, rig, src, cfg.seconds / 2, true, rep);
  cw.local1 = local_prom();
  cw.daemon1 = bskd_prom(rig.bskd->port());
  const std::size_t attached = rig.pool->shm_attached();
  rep.require(attached == rig.pool->remote_nodes_created(),
              "an adapt worker is not attached to shm");
  rig.close();  // flushes the node decorators' spans
  traced_layer_metrics(r.log, cw, *spans,
                       rep.info["adapt.reorder_occupancy_max"],
                       settled_p50(r.log), untraced_p50, rep);
  rep.set("net.pool.shm_attached", static_cast<double>(attached), "count");
  rep.set("am.cycle_us", 1e6 * cw.hist_mean("bsk_mape_cycle_seconds"), "us");
  rep.set("am.cycles", cw.local("bsk_mape_cycles_total"), "count");
  rep.set("am.actuations", static_cast<double>(r.actuations), "count");
  rep.set("rules.fired", cw.local("bsk_rules_fired_total"), "count");
  rep.set("load.stall_share", 0.0, "ratio");  // a stream-path defect
  rep.set("sustain_tps", settled_tps(r.log), "tasks/s");
  // The layer ladder belongs to the stream paths.
  for (const char* m : {"support.channel_hop_us", "rt.farm_hop_us",
                        "net.wire.encode_us", "net.wire.decode_us",
                        "net.shm.rtt_us", "net.tcp.extra_us"})
    rep.set(m, 0.0, "us");
  if (!cfg.spans_out.empty()) {
    write_spans(cfg.spans_out, "adapt", sampled(r.log.spans));
    write_spans(cfg.spans_out, "adapt", sampled(spans->all()));
  }
}

}  // namespace

void run_workload(const RunConfig& cfg, Report& rep) {
  const Value& p = *cfg.params;
  const std::string kind = p.string_or("kind", "");
  if (kind == "stream") {
    if (cfg.trace)
      trace_stream(cfg, p, rep);
    else
      run_stream(cfg, p, rep);
  } else if (kind == "adapt") {
    run_adapt(cfg, p, rep);
  } else {
    throw std::runtime_error("workload '" + cfg.workload + "' has no kind");
  }

  // Validity gates every workload shares: the recovery machinery must
  // never have run, or a number would measure a fault, not the path.
  const Prom end = local_prom();
  for (const char* c :
       {"bsk_net_retransmits_total", "bsk_net_reconnects_total",
        "bsk_net_session_resumes_total", "bsk_net_worker_hard_failures_total",
        "bsk_farm_worker_failures_total"}) {
    const auto it = end.find(c);
    const double v = it == end.end() ? 0.0 : it->second;
    rep.require(v == 0.0, std::string(c) + " = " + std::to_string(v));
  }
  if (cfg.trace) {
    rep.metrics.erase("setup_s");  // an end-to-end metric, timed untraced
    rep.set("net.remote.retransmits",
            end.count("bsk_net_retransmits_total")
                ? end.at("bsk_net_retransmits_total")
                : 0.0,
            "count");
    rep.set("net.remote.reconnects",
            end.count("bsk_net_reconnects_total")
                ? end.at("bsk_net_reconnects_total")
                : 0.0,
            "count");
    rep.set("failed_share",
            rep.attempted ? static_cast<double>(rep.failed) / rep.attempted
                          : 0.0,
            "ratio");
  }
}

}  // namespace perfbench
