#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdlib>
#include <ostream>

#include "support/clock.hpp"
#include "support/json.hpp"
#include "support/wait.hpp"

namespace bsk::obs {

namespace detail {

namespace {

bool initial_enabled() {
  const char* v = std::getenv("BSK_OBS");
  if (!v) return true;
  const std::string s(v);
  return !(s == "0" || s == "off" || s == "false");
}

}  // namespace

std::atomic<bool> g_enabled{initial_enabled()};
std::atomic<std::size_t> g_next_shard{0};

}  // namespace detail

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

double mono_now() noexcept { return support::mono_now(); }

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  stride_ = bounds_.size() + 1;
  cells_ = std::vector<std::atomic<std::uint64_t>>(kShards * stride_);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.bounds = bounds_;
  s.counts.assign(stride_, 0);
  for (std::size_t shard = 0; shard < kShards; ++shard)
    for (std::size_t b = 0; b < stride_; ++b)
      s.counts[b] +=
          cells_[shard * stride_ + b].load(std::memory_order_relaxed);
  for (const std::uint64_t c : s.counts) s.count += c;
  for (const auto& p : sums_) s.sum += p.v.load(std::memory_order_relaxed);
  return s;
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t n = 0;
  for (const auto& c : cells_) n += c.load(std::memory_order_relaxed);
  return n;
}

void Histogram::reset() noexcept {
  for (auto& c : cells_) c.store(0, std::memory_order_relaxed);
  for (auto& p : sums_) p.v.store(0.0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry reg;
  // support cannot link obs, so the wait ladder reports its lost-wakeup
  // detector through a sink installed with the registry.
  static Counter& lost_wakes = reg.counter(
      "bsk_support_wait_slice_timeouts_with_data_total",
      "futex park slices (Channel and shm ring waits) that timed out with "
      "their condition already true: lost wake-ups");
  static const bool wait_sink_installed =
      (support::set_slice_timeout_sink([] { lost_wakes.inc(); }), true);
  (void)wait_sink_installed;
  return reg;
}

namespace {

// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. We control every name in
// the codebase, but sanitize anyway so a stray label can't corrupt the
// exposition.
std::string sanitize_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    c == '_' || c == ':' ||
                    (!out.empty() && c >= '0' && c <= '9');
    out += ok ? c : '_';
  }
  if (out.empty()) out.push_back('_');
  return out;
}

std::string escape_help(std::string_view help) {
  std::string out;
  out.reserve(help.size());
  for (const char c : help) {
    if (c == '\\')
      out += "\\\\";
    else if (c == '\n')
      out += "\\n";
    else
      out += c;
  }
  return out;
}

}  // namespace

MetricsRegistry::Entry& MetricsRegistry::get_or_create(
    std::string_view name, std::string_view help, MetricKind kind,
    std::vector<double> bounds) {
  const std::string key = sanitize_name(name);
  support::MutexLock lk(mu_);
  if (auto it = index_.find(key); it != index_.end()) return *it->second;
  auto entry = std::make_unique<Entry>();
  entry->name = key;
  entry->help = std::string(help);
  entry->kind = kind;
  switch (kind) {
    case MetricKind::kCounter: entry->c = std::make_unique<Counter>(); break;
    case MetricKind::kGauge: entry->g = std::make_unique<Gauge>(); break;
    case MetricKind::kHistogram:
      entry->h = std::make_unique<Histogram>(std::move(bounds));
      break;
  }
  Entry& ref = *entry;
  entries_.push_back(std::move(entry));
  index_.emplace(key, &ref);
  return ref;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view help) {
  return *get_or_create(name, help, MetricKind::kCounter).c;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help) {
  return *get_or_create(name, help, MetricKind::kGauge).g;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> upper_bounds,
                                      std::string_view help) {
  return *get_or_create(name, help, MetricKind::kHistogram,
                        std::move(upper_bounds))
              .h;
}

std::vector<const MetricsRegistry::Entry*> MetricsRegistry::sorted_entries()
    const {
  support::MutexLock lk(mu_);
  std::vector<const Entry*> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.get());
  std::sort(out.begin(), out.end(),
            [](const Entry* a, const Entry* b) { return a->name < b->name; });
  return out;
}

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  using support::json::number_token;
  for (const Entry* e : sorted_entries()) {
    if (!e->help.empty())
      os << "# HELP " << e->name << ' ' << escape_help(e->help) << '\n';
    switch (e->kind) {
      case MetricKind::kCounter:
        os << "# TYPE " << e->name << " counter\n"
           << e->name << ' ' << e->c->value() << '\n';
        break;
      case MetricKind::kGauge:
        os << "# TYPE " << e->name << " gauge\n"
           << e->name << ' ' << number_token(e->g->value()) << '\n';
        break;
      case MetricKind::kHistogram: {
        const Histogram::Snapshot s = e->h->snapshot();
        os << "# TYPE " << e->name << " histogram\n";
        std::uint64_t cum = 0;
        for (std::size_t b = 0; b < s.bounds.size(); ++b) {
          cum += s.counts[b];
          os << e->name << "_bucket{le=\"" << number_token(s.bounds[b])
             << "\"} " << cum << '\n';
        }
        os << e->name << "_bucket{le=\"+Inf\"} " << s.count << '\n'
           << e->name << "_sum " << number_token(s.sum) << '\n'
           << e->name << "_count " << s.count << '\n';
        break;
      }
    }
  }
}

void MetricsRegistry::write_jsonl(std::ostream& os) const {
  using support::json::number_token;
  const std::string tw = number_token(mono_now());
  for (const Entry* e : sorted_entries()) {
    std::string row = "{\"metric\":\"";
    row += support::json::escape(e->name);
    row += "\",\"tw\":";
    row += tw;
    switch (e->kind) {
      case MetricKind::kCounter:
        row += ",\"type\":\"counter\",\"value\":";
        row += std::to_string(e->c->value());
        break;
      case MetricKind::kGauge:
        row += ",\"type\":\"gauge\",\"value\":";
        row += number_token(e->g->value());
        break;
      case MetricKind::kHistogram: {
        const Histogram::Snapshot s = e->h->snapshot();
        row += ",\"type\":\"histogram\",\"count\":";
        row += std::to_string(s.count);
        row += ",\"sum\":";
        row += number_token(s.sum);
        row += ",\"buckets\":[";
        for (std::size_t b = 0; b < s.counts.size(); ++b) {
          if (b) row += ',';
          row += "{\"le\":";
          // The +Inf bucket's bound is not a JSON number; emit null.
          row += b < s.bounds.size() ? number_token(s.bounds[b]) : "null";
          row += ",\"n\":";
          row += std::to_string(s.counts[b]);
          row += '}';
        }
        row += ']';
        break;
      }
    }
    row += "}\n";
    os.write(row.data(), static_cast<std::streamsize>(row.size()));
  }
}

void MetricsRegistry::reset_values() {
  support::MutexLock lk(mu_);
  for (const auto& e : entries_) {
    switch (e->kind) {
      case MetricKind::kCounter: e->c->reset(); break;
      case MetricKind::kGauge: e->g->reset(); break;
      case MetricKind::kHistogram: e->h->reset(); break;
    }
  }
}

std::size_t MetricsRegistry::size() const {
  support::MutexLock lk(mu_);
  return entries_.size();
}

// ---------------------------------------------------------------------------
// AtomicRateWindow

AtomicRateWindow::AtomicRateWindow(double window_s, std::size_t buckets)
    : width_(window_s / static_cast<double>(buckets ? buckets : 1)),
      window_(window_s),
      // Slack cells beyond the window so the slice a full window ago is not
      // already being overwritten by the newest one (indices wrap mod size).
      cells_((buckets ? buckets : 1) + 8) {}

void AtomicRateWindow::record(double t) noexcept {
  totals_[detail::thread_shard()].v.fetch_add(1, std::memory_order_relaxed);
  if (t < 0.0) t = 0.0;
  const auto slice = static_cast<std::uint64_t>(t / width_);
  Cell& cell = cells_[slice % cells_.size()];
  for (;;) {
    std::uint64_t cur = cell.slice.load(std::memory_order_acquire);
    if (cur == slice) {
      cell.count.fetch_add(1, std::memory_order_relaxed);
      // If the cell rotated under us the increment landed in a dead slice;
      // retry so the event is not silently attributed to the wrong window.
      if (cell.slice.load(std::memory_order_acquire) == slice) return;
      continue;
    }
    if (cell.slice.compare_exchange_strong(cur, slice,
                                           std::memory_order_acq_rel)) {
      cell.count.store(1, std::memory_order_release);
      return;
    }
  }
}

double AtomicRateWindow::rate(double now) const noexcept {
  if (window_ <= 0.0) return 0.0;
  const double lo = now - window_;
  std::uint64_t n = 0;
  for (const Cell& cell : cells_) {
    const std::uint64_t slice = cell.slice.load(std::memory_order_acquire);
    if (slice == kEmpty) continue;
    const double start = static_cast<double>(slice) * width_;
    if (start + width_ > lo && start <= now)
      n += cell.count.load(std::memory_order_relaxed);
  }
  return static_cast<double>(n) / window_;
}

std::uint64_t AtomicRateWindow::total() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : totals_) n += s.v.load(std::memory_order_relaxed);
  return n;
}

void AtomicRateWindow::reset() noexcept {
  for (auto& cell : cells_) {
    cell.slice.store(kEmpty, std::memory_order_relaxed);
    cell.count.store(0, std::memory_order_relaxed);
  }
  for (auto& s : totals_) s.v.store(0, std::memory_order_relaxed);
}

}  // namespace bsk::obs
