#include "openloop.hpp"

#include <algorithm>
#include <any>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

namespace perfbench {

namespace {

constexpr std::size_t kPoolBuffers = 16;

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void sleep_until_ns(std::int64_t t) {
  std::this_thread::sleep_until(
      SteadyClock::time_point(std::chrono::nanoseconds(t)));
}

}  // namespace

// ------------------------------------------------------------- TaskSource

TaskSource::TaskSource(std::uint64_t seed, Payload kind,
                       std::size_t payload_bytes, double work_s, double jitter)
    : seed_(seed), kind_(kind), work_s_(work_s), jitter_(jitter) {
  if (kind_ != Payload::Bytes) return;
  std::uint64_t s = splitmix(seed_ ^ 0xb0b5ull);
  pool_.resize(kPoolBuffers);
  for (auto& buf : pool_) {
    buf.resize(payload_bytes);
    for (std::size_t i = 0; i < payload_bytes; i += 8) {
      s = splitmix(s);
      std::memcpy(buf.data() + i, &s, std::min<std::size_t>(8, payload_bytes - i));
    }
  }
}

std::uint64_t TaskSource::mix(std::uint64_t id) const {
  return splitmix(seed_ * 0x2545f4914f6cdd1dull + id);
}

bsk::rt::Task TaskSource::make(std::uint64_t id) const {
  double work = 0.0;
  if (work_s_ > 0.0) {
    const double u =
        static_cast<double>(mix(~id) >> 11) * (1.0 / 9007199254740992.0);
    work = work_s_ * (1.0 - jitter_ + 2.0 * jitter_ * u);
  }
  if (kind_ == Payload::U64) return bsk::rt::Task::data(id, work, mix(id));
  return bsk::rt::Task::data(id, work, pool_[mix(id) % pool_.size()]);
}

bool TaskSource::matches(const bsk::rt::Task& t) const {
  if (kind_ == Payload::U64) {
    const auto* v = std::any_cast<std::uint64_t>(&t.payload);
    return v != nullptr && *v == mix(t.id);
  }
  const auto* b = std::any_cast<std::vector<std::uint8_t>>(&t.payload);
  const auto& want = pool_[mix(t.id) % pool_.size()];
  return b != nullptr && b->size() == want.size() &&
         std::memcmp(b->data(), want.data(), want.size()) == 0;
}

// ---------------------------------------------------------------- RunLog

std::vector<double> RunLog::latencies_us(std::size_t from,
                                         std::size_t to) const {
  std::vector<double> out;
  out.reserve(to - from);
  for (std::size_t i = from; i < to && i < size(); ++i)
    if (done_ns[i] >= 0) out.push_back((done_ns[i] - due_ns[i]) / 1e3);
  return out;
}

std::vector<double> RunLog::service_us() const {
  std::vector<double> out;
  out.reserve(size());
  for (std::size_t i = 0; i < size(); ++i)
    if (done_ns[i] >= 0) out.push_back((done_ns[i] - sent_ns[i]) / 1e3);
  return out;
}

std::vector<double> RunLog::completions_s() const {
  std::vector<double> out;
  out.reserve(size());
  for (std::int64_t d : done_ns)
    if (d >= 0) out.push_back(d / 1e9);
  std::sort(out.begin(), out.end());
  return out;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = std::min(
      v.size() - 1,
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))) -
          (q > 0.0 ? 1 : 0));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

// ----------------------------------------------------------- the run itself

RunLog run_open_loop(const std::vector<Phase>& phases, const TaskSource& src,
                     Path& path, const RunOptions& opts) {
  RunLog log;
  // Schedule: task i of a phase is due i/rate after the phase starts.
  double phase_start = 0.0;
  for (const Phase& p : phases) {
    const auto n = static_cast<std::size_t>(std::llround(p.rate * p.seconds));
    for (std::size_t i = 0; i < n; ++i)
      log.due_ns.push_back(static_cast<std::int64_t>(
          (phase_start + static_cast<double>(i) / p.rate) * 1e9));
    phase_start += p.seconds;
    log.phase_end.push_back(log.due_ns.size());
  }
  const std::size_t n = log.due_ns.size();
  log.done_ns.assign(n, -1);
  log.late_us.assign(n, 0.0);
  log.sent_ns.assign(n, 0);
  std::vector<Span> pop_spans;
  if (opts.trace) {
    log.spans.reserve(n);
    pop_spans.reserve(n);
  }

  const std::int64_t origin = now_ns() + 5'000'000;  // threads start first

  std::atomic<bool> running{true};
  std::jthread ticker;
  if (opts.tick) {
    ticker = std::jthread([&] {
      const auto period = static_cast<std::int64_t>(opts.tick_s * 1e9);
      std::int64_t next = origin;
      while (running.load(std::memory_order_relaxed)) {
        sleep_until_ns(next);
        opts.tick();
        next += period;
      }
    });
  }

  std::atomic<std::size_t> sent{n};
  std::jthread drain([&] {
    std::size_t expect = 0;
    std::vector<char> seen(n, 0);
    bsk::rt::Task t;
    for (;;) {
      const std::int64_t p0 = opts.trace ? now_ns() : 0;
      if (!path.pop(t)) break;
      const std::int64_t now = now_ns();
      if (opts.trace)
        pop_spans.push_back(Span{"load.pop", t.id, p0, now - p0});
      const std::uint64_t id = t.id;
      if (id >= n || seen[id]) {
        ++log.failed;  // unknown or duplicate
        continue;
      }
      seen[id] = 1;
      if (id != expect || !src.matches(t)) {
        ++log.failed;  // out of order or damaged
      } else {
        log.done_ns[id] = now - origin;
      }
      expect = id + 1;
    }
    for (std::size_t i = 0; i < sent.load(); ++i)
      if (!seen[i]) ++log.failed;  // never returned
  });

  std::int64_t prev_end = origin;
  std::int64_t blocked = 0;
  const auto max_late = static_cast<std::int64_t>(opts.max_late_s * 1e9);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t due = origin + log.due_ns[i];
    std::int64_t now = now_ns();
    if (now < due) {
      sleep_until_ns(due);
      now = now_ns();
    } else if (max_late > 0 && now - due > max_late) {
      log.aborted = true;
      sent.store(i);
      break;
    }
    // Lateness the generator caused itself: time past the due time that
    // the previous push (blocked or not) does not account for.
    log.late_us[i] = (now - std::max(due, prev_end)) / 1e3;
    bsk::rt::Task t = src.make(i);
    const std::int64_t p0 = now_ns();
    log.sent_ns[i] = p0 - origin;
    const bool ok = path.push(std::move(t));
    prev_end = now_ns();
    blocked += prev_end - p0;
    if (opts.trace)
      log.spans.push_back(Span{"load.push", i, p0, prev_end - p0});
    if (!ok) break;
  }
  path.close();
  drain.join();
  running.store(false);
  if (ticker.joinable()) ticker.join();

  if (log.aborted) {
    const std::size_t m = sent.load();
    log.due_ns.resize(m);
    log.done_ns.resize(m);
    log.late_us.resize(m);
    log.sent_ns.resize(m);
    for (auto& e : log.phase_end) e = std::min(e, m);
  }
  log.push_block_s = blocked / 1e9;
  log.spans.insert(log.spans.end(), pop_spans.begin(), pop_spans.end());
  return log;
}

// -------------------------------------------------------------- reaction

std::optional<double> reaction_s(const RunLog& log, std::size_t step_phase,
                                 double contract, double window_s,
                                 double hold_s) {
  if (step_phase == 0 || step_phase >= log.phase_end.size())
    return std::nullopt;
  const std::size_t first = log.phase_end[step_phase - 1];
  if (first >= log.size()) return std::nullopt;
  const double step = log.due_ns[first] / 1e9;
  const double end = log.due_ns.back() / 1e9;
  const std::vector<double> c = log.completions_s();
  const auto k = static_cast<std::size_t>(std::ceil(contract * window_s));
  if (k == 0 || c.size() < k) return std::nullopt;

  // The trailing-window count reaches k on [c[i-1], c[i]) exactly while
  // t < c[i-k] + window; everything else is a "bad" interval. Walk the bad
  // intervals in time order, pushing the candidate start past each one
  // that begins before the candidate's hold period is over.
  double t0 = step;
  for (std::size_t i = 0; i <= c.size(); ++i) {
    const double lo = i == 0 ? 0.0 : c[i - 1];
    const double hi =
        i == c.size() ? std::numeric_limits<double>::infinity() : c[i];
    const double bad_from = i >= k ? std::max(lo, c[i - k] + window_s) : lo;
    if (bad_from >= hi || hi <= t0) continue;
    if (bad_from >= end || bad_from >= t0 + hold_s) break;
    t0 = hi;
  }
  if (t0 > end) return std::nullopt;
  return t0 - step;
}

}  // namespace perfbench
