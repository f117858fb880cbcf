#include "probes.hpp"

#include <dirent.h>
#include <unistd.h>

#include <fstream>
#include <sstream>

#include "net/worker_pool.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

// ---------------------------------------------------------------- spans

void SpanStore::add(std::vector<Span>&& spans) {
  std::lock_guard lk(mu_);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

std::vector<double> SpanStore::durations_us(const std::string& name) const {
  std::lock_guard lk(mu_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name) out.push_back(s.dur_ns / 1e3);
  return out;
}

std::vector<Span> SpanStore::all() const {
  std::lock_guard lk(mu_);
  return spans_;
}

TimedNode::TimedNode(std::unique_ptr<bsk::rt::Node> inner,
                     std::shared_ptr<SpanStore> store)
    : inner_(std::move(inner)), store_(std::move(store)) {
  local_.reserve(1u << 16);
}

TimedNode::~TimedNode() { store_->add(std::move(local_)); }

std::optional<bsk::rt::Task> TimedNode::process(bsk::rt::Task t) {
  const std::uint64_t id = t.id;
  const std::int64_t t0 = now_ns();
  auto r = inner_->process(std::move(t));
  local_.push_back(Span{"net.remote.process", id, t0, now_ns() - t0});
  return r;
}

std::optional<bsk::rt::Task> TimedNode::flush() {
  const std::int64_t t0 = now_ns();
  auto r = inner_->flush();
  local_.push_back(
      Span{"net.remote.flush", r ? r->id : 0, t0, now_ns() - t0});
  return r;
}

bsk::rt::NodeFactory timed_factory(bsk::rt::NodeFactory make,
                                   std::shared_ptr<SpanStore> store,
                                   bool time_nodes) {
  return [make = std::move(make), store = std::move(store),
          time_nodes]() -> std::unique_ptr<bsk::rt::Node> {
    const std::int64_t t0 = now_ns();
    auto node = make();
    store->add({Span{"net.pool.make_node", 0, t0, now_ns() - t0}});
    if (!time_nodes) return node;
    return std::make_unique<TimedNode>(std::move(node), store);
  };
}

// ------------------------------------------------------------- counters

Prom parse_prom(const std::string& text) {
  Prom out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    try {
      out[line.substr(0, sp)] = std::stod(line.substr(sp + 1));
    } catch (const std::exception&) {
      // "+Inf"/"NaN" gauges and malformed lines carry nothing we read.
    }
  }
  return out;
}

Prom local_prom() {
  std::ostringstream os;
  bsk::obs::MetricsRegistry::global().write_prometheus(os);
  return parse_prom(os.str());
}

Prom bskd_prom(std::uint16_t port) {
  auto text = bsk::net::pull_bskd_stats(
      {"127.0.0.1", port}, bsk::net::StatsRequest::What::Prometheus, 2.0);
  return text ? parse_prom(*text) : Prom{};
}

double delta(const Prom& a, const Prom& b, const std::string& name) {
  const auto ia = a.find(name);
  const auto ib = b.find(name);
  return (ib == b.end() ? 0.0 : ib->second) -
         (ia == a.end() ? 0.0 : ia->second);
}

// -------------------------------------------------------------- hygiene

std::vector<std::string> shm_segments_of(int pid) {
  std::vector<std::string> out;
  const std::string prefix = "bsk.shm." + std::to_string(pid) + ".";
  if (DIR* d = ::opendir("/dev/shm")) {
    while (const dirent* e = ::readdir(d))
      if (std::string(e->d_name).rfind(prefix, 0) == 0)
        out.emplace_back(e->d_name);
    ::closedir(d);
  }
  return out;
}

std::vector<int> live_children() {
  std::vector<int> out;
  const int self = ::getpid();
  DIR* d = ::opendir("/proc");
  if (d == nullptr) return out;
  while (const dirent* e = ::readdir(d)) {
    const int pid = std::atoi(e->d_name);
    if (pid <= 0) continue;
    std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
    std::string stat;
    if (!std::getline(f, stat)) continue;
    // Fields after the parenthesised command: state, ppid, ...
    const auto rp = stat.rfind(')');
    if (rp == std::string::npos) continue;
    std::istringstream rest(stat.substr(rp + 1));
    char state = 0;
    int ppid = 0;
    rest >> state >> ppid;
    if (ppid == self) out.push_back(pid);
  }
  ::closedir(d);
  return out;
}

// -------------------------------------------------------------- context

Machine machine() {
  Machine m;
  m.nproc = static_cast<unsigned>(::sysconf(_SC_NPROCESSORS_ONLN));
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto c = line.find(':');
    if (c != std::string::npos) m.cpu = line.substr(c + 2);
    break;
  }
  return m;
}

void write_spans(const std::string& path, const std::string& run,
                 const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::app);
  for (const Span& s : spans)
    out << "{\"run\":\"" << run << "\",\"name\":\"" << s.name
        << "\",\"id\":" << s.id << ",\"start_us\":" << s.start_ns / 1e3
        << ",\"dur_us\":" << s.dur_ns / 1e3 << "}\n";
}

}  // namespace perfbench
