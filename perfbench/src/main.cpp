// perfbench_load: runs one workload of the end-to-end benchmark and
// prints one JSON object (metrics, task tally, validity, machine context).
//
//   perfbench_load --workload stream-shm --seed 1 --seconds 10 --trace 0
//       --bskd <path/to/bskd> --config perfbench/workloads.json
//       [--spans-out spans.jsonl]
//
// perfbench/run.py builds it, runs it, and turns its output into the
// benchmark's result line.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "probes.hpp"
#include "support/json.hpp"
#include "workloads.hpp"

namespace {

namespace json = bsk::support::json;

const char* arg(int argc, char** argv, const char* name, const char* dflt) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  return dflt;
}

void put(std::ostream& os, const std::string& key, const std::string& s) {
  json::write_string(os, key);
  os << ':';
  json::write_string(os, s);
}

}  // namespace

int main(int argc, char** argv) {
  // Only an optimised build may publish numbers.
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench_load: built as %s, not Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  perfbench::RunConfig cfg;
  cfg.workload = arg(argc, argv, "--workload", "");
  cfg.seed = std::strtoull(arg(argc, argv, "--seed", "1"), nullptr, 10);
  cfg.seconds = std::atof(arg(argc, argv, "--seconds", "10"));
  cfg.trace = std::atoi(arg(argc, argv, "--trace", "0")) != 0;
  cfg.bskd = arg(argc, argv, "--bskd", "");
  cfg.spans_out = arg(argc, argv, "--spans-out", "");
  const std::string config = arg(argc, argv, "--config", "");
  if (cfg.workload.empty() || cfg.bskd.empty() || config.empty() ||
      cfg.seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: perfbench_load --workload W --seed N --seconds S "
                 "--trace 0|1 --bskd PATH --config workloads.json "
                 "[--spans-out FILE]\n");
    return 2;
  }

  std::ifstream in(config);
  std::stringstream text;
  text << in.rdbuf();
  std::string err;
  const auto doc = json::parse(text.str(), &err);
  const json::Value* params = doc ? doc->get(cfg.workload) : nullptr;
  if (params == nullptr || !params->is_object()) {
    std::fprintf(stderr, "perfbench_load: no workload '%s' in %s %s\n",
                 cfg.workload.c_str(), config.c_str(), err.c_str());
    return 2;
  }
  cfg.params = params;

  perfbench::Report rep;
  try {
    perfbench::run_workload(cfg, rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_load: %s\n", e.what());
    return 1;
  }
  // Every daemon was stopped and reaped by now; anything left is a leak.
  for (int pid : perfbench::live_children())
    rep.require(false, "child process " + std::to_string(pid) + " survived");

  const perfbench::Machine m = perfbench::machine();
  std::ostringstream os;
  os.precision(17);
  os << "{\"attempted\":" << rep.attempted << ",\"failed\":" << rep.failed
     << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : rep.metrics) {
    if (!first) os << ',';
    first = false;
    json::write_string(os, name);
    os << ":{\"value\":";
    json::write_number(os, metric.value);
    os << ',';
    put(os, "unit", metric.unit);
    os << '}';
  }
  os << "},\"invalid\":[";
  for (std::size_t i = 0; i < rep.invalid.size(); ++i) {
    if (i) os << ',';
    json::write_string(os, rep.invalid[i]);
  }
  os << "],\"bskd_pids\":[";
  for (std::size_t i = 0; i < rep.bskd_pids.size(); ++i)
    os << (i ? "," : "") << rep.bskd_pids[i];
  os << "],\"info\":{";
  first = true;
  for (const auto& [name, v] : rep.info) {
    if (!first) os << ',';
    first = false;
    json::write_string(os, name);
    os << ':';
    json::write_number(os, v);
  }
  os << "},\"context\":{";
  put(os, "build_type", PERFBENCH_BUILD_TYPE);
  os << ',';
  put(os, "compiler", PERFBENCH_COMPILER);
  os << ',';
  put(os, "cpu", m.cpu);
  os << ",\"nproc\":" << m.nproc << ",\"seed\":" << cfg.seed
     << ",\"seconds\":";
  json::write_number(os, cfg.seconds);
  os << ",\"trace\":" << (cfg.trace ? 1 : 0) << "}}";
  std::cout << os.str() << std::endl;
  return 0;
}
