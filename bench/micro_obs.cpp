// Experiment E14 — instrumentation overhead (google-benchmark).
//
// The obs layer's contract is "always-on costs nothing you can measure":
// counters, gauges, and histograms are sharded relaxed atomics behind a
// single relaxed-load enable gate, and the NodeMetrics sensors the control
// loop depends on are lock-free rate windows. This benchmark prices both
// claims:
//
//   * BM_DataplaneBatch/obs={0,1} — the farm's batched channel hot path
//     (push_n/pop_n producer/consumer) with per-batch instrumentation
//     exactly as rt::Farm records it (one counter add, one histogram
//     observe, one gauge store per batch, NodeMetrics per task). The
//     items/s delta between obs=1 and obs=0 is the dataplane overhead
//     EXPERIMENTS.md bounds at <= 2%.
//   * BM_Counter/BM_Histogram/BM_RateWindow — per-primitive unit costs,
//     enabled and disabled (the disabled numbers price the gate itself).
//
// The obs=0 runs flip obs::set_enabled(false), which is what BSK_OBS=0
// does at process start; NodeMetrics does not gate (it feeds sensors), so
// it is measured identically in both variants — the comparison isolates
// the *optional* instrumentation.

#include <benchmark/benchmark.h>

#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "rt/metrics.hpp"
#include "support/channel.hpp"
#include "support/clock.hpp"

namespace {

using namespace bsk;

obs::Counter& bench_counter() {
  static obs::Counter& c =
      obs::counter("bench_obs_tasks_total", "E14 scratch counter");
  return c;
}

obs::Histogram& bench_hist() {
  static obs::Histogram& h = obs::histogram(
      "bench_obs_batch_size", {1, 2, 4, 8, 16, 32, 64}, "E14 scratch hist");
  return h;
}

obs::Gauge& bench_gauge() {
  static obs::Gauge& g =
      obs::gauge("bench_obs_queue_depth", "E14 scratch gauge");
  return g;
}

/// The farm dataplane hot path, instrumented the way rt::Farm is: batches
/// of tasks through a bounded channel; per batch one counter add, one
/// histogram observe, one gauge store; per task a NodeMetrics departure.
/// Arg(0) = batch size, Arg(1) = obs enabled.
void BM_DataplaneBatch(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const bool obs_on = state.range(1) != 0;
  const bool was_enabled = obs::enabled();
  obs::set_enabled(obs_on);

  support::Channel<int> ch(1024);
  rt::NodeMetrics metrics;
  std::jthread consumer([&] {
    std::vector<int> buf;
    buf.reserve(batch);
    while (ch.pop_n(buf, batch) == support::ChannelStatus::Ok) {
      bench_hist().observe(static_cast<double>(buf.size()));
      bench_gauge().set(static_cast<double>(ch.size()));
      for (int v : buf) {
        benchmark::DoNotOptimize(v);
        metrics.record_departure();
      }
      buf.clear();
    }
  });

  std::int64_t items = 0;
  std::vector<int> out;
  for (auto _ : state) {
    out.assign(batch, 1);
    bench_counter().inc(batch);
    bench_hist().observe(static_cast<double>(batch));
    ch.push_n(out);
    items += static_cast<std::int64_t>(batch);
  }
  ch.close();
  consumer.join();
  state.SetItemsProcessed(items);
  obs::set_enabled(was_enabled);
}
BENCHMARK(BM_DataplaneBatch)
    ->Args({64, 1})
    ->Args({64, 0})
    ->Args({8, 1})
    ->Args({8, 0})
    ->UseRealTime();

void BM_CounterInc(benchmark::State& state) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(state.range(0) != 0);
  for (auto _ : state) bench_counter().inc();
  obs::set_enabled(was_enabled);
}
BENCHMARK(BM_CounterInc)->Arg(1)->Arg(0);

void BM_HistogramObserve(benchmark::State& state) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(state.range(0) != 0);
  double x = 0.0;
  for (auto _ : state) {
    bench_hist().observe(x);
    x = x < 64.0 ? x + 1.0 : 0.0;
  }
  obs::set_enabled(was_enabled);
}
BENCHMARK(BM_HistogramObserve)->Arg(1)->Arg(0);

void BM_GaugeSet(benchmark::State& state) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(state.range(0) != 0);
  double x = 0.0;
  for (auto _ : state) {
    bench_gauge().set(x);
    x += 1.0;
  }
  obs::set_enabled(was_enabled);
}
BENCHMARK(BM_GaugeSet)->Arg(1)->Arg(0);

/// NodeMetrics sensor path (ungated — it feeds the control loop). This is
/// what replaced the old per-call mutex; its cost lands on every task the
/// farm moves regardless of BSK_OBS.
void BM_RateWindowRecord(benchmark::State& state) {
  rt::NodeMetrics metrics;
  for (auto _ : state) metrics.record_departure();
}
BENCHMARK(BM_RateWindowRecord);

void BM_RateWindowRead(benchmark::State& state) {
  rt::NodeMetrics metrics;
  for (int i = 0; i < 1000; ++i) metrics.record_departure();
  for (auto _ : state) benchmark::DoNotOptimize(metrics.departure_rate());
}
BENCHMARK(BM_RateWindowRead);

}  // namespace

BENCHMARK_MAIN();
