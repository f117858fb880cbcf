#pragma once
// The benchmark's workloads. Each run fills a Report: end-to-end metrics
// (untraced runs) or per-layer metrics (traced runs), the task tally, and
// the validity gates a run must pass to be published.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::map<std::string, Metric> metrics;
  std::size_t attempted = 0;  ///< tasks sent
  std::size_t failed = 0;     ///< not returned exactly once, in order, intact
  std::vector<std::string> invalid;  ///< validity gates that did not hold
  std::vector<int> bskd_pids;        ///< every daemon this run spawned
  std::map<std::string, double> info;  ///< rates, sample counts, quantiles

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  void require(bool ok, const std::string& why) {
    if (!ok) invalid.push_back(why);
  }
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bskd;       ///< path of the bskd binary
  std::string spans_out;  ///< JSONL file for sampled spans ("" = none)
  const bsk::support::json::Value* params = nullptr;  ///< workloads.json entry
};

/// Run one workload; throws std::runtime_error on a set-up failure.
void run_workload(const RunConfig& cfg, Report& rep);

}  // namespace perfbench
