#pragma once
// Open-loop load generation over any push/pop path.
//
// The generator thread sends each task at its due time on a fixed
// schedule (one or more constant-rate phases), sleeping until the next
// task is due and then sending every task already due; a slow system
// therefore meets the same arrivals as a fast one (no coordinated
// omission). A drain thread pops results and checks each one: it must be
// the next id in emission order, arrive once, and carry the payload the
// generator sent, byte for byte. Latency is timed from the due time.

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "rt/task.hpp"

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

/// One constant-rate stretch of a schedule.
struct Phase {
  double rate = 0.0;     ///< tasks per second
  double seconds = 0.0;  ///< length of the stretch
};

/// Seeded task contents. The same seed and id always give the same task.
class TaskSource {
 public:
  enum class Payload { U64, Bytes };

  /// `payload_bytes` applies to Bytes payloads; `work_s` > 0 gives each
  /// task a service demand drawn uniformly from work_s * [1-jitter, 1+jitter].
  TaskSource(std::uint64_t seed, Payload kind, std::size_t payload_bytes,
             double work_s = 0.0, double jitter = 0.0);

  bsk::rt::Task make(std::uint64_t id) const;
  /// True when `t` carries exactly the payload make(t.id) sent.
  bool matches(const bsk::rt::Task& t) const;

 private:
  std::uint64_t mix(std::uint64_t id) const;

  std::uint64_t seed_;
  Payload kind_;
  double work_s_;
  double jitter_;
  /// Bytes payloads cycle through a few seeded buffers so memory stays
  /// small while no two neighbouring tasks share content.
  std::vector<std::vector<std::uint8_t>> pool_;
};

/// The path under test, seen from the benchmark's two threads.
struct Path {
  std::function<bool(bsk::rt::Task)> push;  ///< false = refused
  std::function<void()> close;              ///< end of input
  std::function<bool(bsk::rt::Task&)> pop;  ///< false = output closed
};

/// One timed call, kept in memory and written out when the run ends.
struct Span {
  const char* name;
  std::uint64_t id;
  std::int64_t start_ns;
  std::int64_t dur_ns;
};

/// Everything one open-loop run observed, per task in id order.
struct RunLog {
  std::vector<std::int64_t> due_ns;    ///< relative to schedule time zero
  std::vector<std::int64_t> done_ns;   ///< likewise; -1 = never returned intact
  std::vector<std::int64_t> sent_ns;   ///< likewise: when push began
  std::vector<std::size_t> phase_end;  ///< first id after each phase
  std::size_t failed = 0;  ///< not returned exactly once, in order, intact
  double push_block_s = 0.0;       ///< time spent inside push()
  std::vector<double> late_us;     ///< generator lateness per task
  /// Push and pop spans (traced runs); start times on the steady clock.
  std::vector<Span> spans;
  bool aborted = false;  ///< stopped early: the generator fell max_late_s behind

  std::size_t size() const { return due_ns.size(); }
  /// Latencies (µs) from the due time of tasks [from, to) that returned.
  std::vector<double> latencies_us(std::size_t from, std::size_t to) const;
  /// Times (µs) from the start of push to the result, every returned task:
  /// the path's own cost, without the generator's wake-up lateness.
  std::vector<double> service_us() const;
  /// Completion times (s) of every returned task, sorted.
  std::vector<double> completions_s() const;
};

struct RunOptions {
  bool trace = false;  ///< record push/pop spans
  /// Called every tick_s from a third thread while the run lasts.
  std::function<void()> tick;
  double tick_s = 0.01;
  /// Stop sending once the generator is this far behind schedule (0 =
  /// never); the log then ends at the last task sent.
  double max_late_s = 0.0;
};

/// Drive `path` with `phases` of tasks from `src` and verify every result.
RunLog run_open_loop(const std::vector<Phase>& phases, const TaskSource& src,
                     Path& path, const RunOptions& opts = {});

/// q-quantile (0..1) by nearest rank; 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// Time from the start of phase `step_phase` until the delivered rate over
/// a trailing window of `window_s` reaches `contract` and then stays at or
/// above it for `hold_s` (or to the end of the log); nullopt when it never
/// does.
std::optional<double> reaction_s(const RunLog& log, std::size_t step_phase,
                                 double contract, double window_s,
                                 double hold_s);

}  // namespace perfbench
