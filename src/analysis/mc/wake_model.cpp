#include "analysis/mc/wake_model.hpp"

namespace bsk::analysis::mc {

namespace {

using Consumer = WakeModel::Consumer;
using Waker = WakeModel::Waker;

const char* consumer_step(std::uint8_t pc) {
  switch (pc) {
    case Consumer::Lock: return "lock (pop or see closed)";
    case Consumer::LoadSeq: return "load seq";
    case Consumer::Check: return "check ready/stop";
    case Consumer::Inc: return "waiters += 1";
    case Consumer::Recheck: return "re-check ready";
    case Consumer::Dec: return "waiters -= 1 (re-check ready)";
    case Consumer::Futex: return "FUTEX_WAIT";
    case Consumer::Leave: return "waiters -= 1 (EAGAIN)";
    default: return "?";
  }
}

const char* waker_step(std::uint8_t pc) {
  switch (pc) {
    case Waker::Lock: return "lock (publish)";
    case Waker::Bump: return "seq += 1";
    case Waker::LoadWaiters: return "load waiters";
    case Waker::Wake: return "FUTEX_WAKE";
    case Waker::Sub: return "waiters -= woken";
    default: return "?";
  }
}

std::size_t parked(const WakeModel::State& s) { return s.futex_queue.size(); }

/// park()'s loop top; with the LateSeq defect the seq load moves down to
/// the FUTEX_WAIT, after the checks.
Consumer::Pc loop_top(WakeDefect d) {
  return d == WakeDefect::LateSeq ? Consumer::Check : Consumer::LoadSeq;
}

}  // namespace

WakeModel::State WakeModel::initial() const {
  State s;
  s.consumers.resize(opt_.consumers);
  s.wakers.resize(opt_.pushes);
  if (opt_.close) {
    Waker c;
    c.closer = true;
    s.wakers.push_back(c);
  }
  return s;
}

std::vector<WakeModel::Action> WakeModel::enabled(const State& s) const {
  std::vector<Action> out;
  const std::size_t nc = s.consumers.size();
  for (std::size_t i = 0; i < nc; ++i) {
    const auto pc = s.consumers[i].pc;
    if (pc != Consumer::Parked && pc != Consumer::Done)
      out.push_back({static_cast<std::uint8_t>(i), 0, pc});
  }
  for (std::size_t j = 0; j < s.wakers.size(); ++j) {
    const Waker& w = s.wakers[j];
    if (w.pc == Waker::Done) continue;
    const auto t = static_cast<std::uint8_t>(nc + j);
    if (w.pc == Waker::Wake && !w.closer && !s.futex_queue.empty()) {
      for (std::size_t k = 0; k < s.futex_queue.size(); ++k)
        out.push_back({t, static_cast<std::uint8_t>(k), w.pc});
    } else {
      out.push_back({t, 0, w.pc});
    }
  }
  return out;
}

void WakeModel::step_consumer(State& s, std::size_t i) const {
  Consumer& c = s.consumers[i];
  const auto top = loop_top(opt_.defect);
  switch (c.pc) {
    case Consumer::Lock:
      if (s.items > 0) {
        --s.items;
        ++s.popped;
        c.pc = Consumer::Done;
      } else if (s.closed) {
        c.pc = Consumer::Done;
      } else {
        c.pc = top;
      }
      break;
    case Consumer::LoadSeq:
      c.loaded_seq = s.seq;
      c.pc = Consumer::Check;
      break;
    case Consumer::Check:
      c.pc = s.items > 0 || s.closed ? Consumer::Lock : Consumer::Inc;
      break;
    case Consumer::Inc:
      ++s.waiters;
      c.pc = Consumer::Recheck;
      break;
    case Consumer::Recheck:
      c.pc = s.items > 0 ? Consumer::Dec : Consumer::Futex;
      break;
    case Consumer::Dec:
    case Consumer::Leave:
      --s.waiters;
      c.pc = top;
      break;
    case Consumer::Futex:
      if (opt_.defect == WakeDefect::LateSeq) c.loaded_seq = s.seq;
      if (s.seq != c.loaded_seq) {
        c.pc = Consumer::Leave;
      } else {
        s.futex_queue.push_back(static_cast<std::uint8_t>(i));
        c.pc = Consumer::Parked;
      }
      break;
    default:
      break;
  }
}

void WakeModel::step_waker(State& s, std::size_t j, std::uint8_t pick) const {
  Waker& w = s.wakers[j];
  // A woken waiter resumes at park()'s loop top without touching the
  // count (its waker subtracts it); DoubleLeave makes it leave as well.
  const auto resume = [&](std::uint8_t id) {
    s.consumers[id].pc = opt_.defect == WakeDefect::DoubleLeave
                             ? Consumer::Leave
                             : loop_top(opt_.defect);
  };
  switch (w.pc) {
    case Waker::Lock:
      if (w.closer) {
        s.closed = true;
      } else if (s.closed) {
        w.pc = Waker::Done;  // push_until returns Closed without a wake
        break;
      } else {
        ++s.items;
        ++s.pushed;
      }
      w.pc = Waker::Bump;
      break;
    case Waker::Bump:
      ++s.seq;
      w.pc = Waker::LoadWaiters;
      break;
    case Waker::LoadWaiters:
      w.pc = s.waiters == 0 ? Waker::Done : Waker::Wake;
      break;
    case Waker::Wake:
      if (w.closer) {  // wake(INT_MAX)
        w.woken = static_cast<std::uint8_t>(s.futex_queue.size());
        for (std::uint8_t id : s.futex_queue) resume(id);
        s.futex_queue.clear();
      } else if (!s.futex_queue.empty()) {  // wake(1)
        const std::uint8_t id = s.futex_queue[pick];
        s.futex_queue.erase(s.futex_queue.begin() + pick);
        w.woken = 1;
        resume(id);
      }
      w.pc = w.woken > 0 ? Waker::Sub : Waker::Done;
      break;
    case Waker::Sub:
      s.waiters -= w.woken;
      w.woken = 0;
      w.pc = Waker::Done;
      break;
    default:
      break;
  }
}

std::optional<Violation> WakeModel::apply(State& s, const Action& a) const {
  if (a.thread < s.consumers.size())
    step_consumer(s, a.thread);
  else
    step_waker(s, a.thread - s.consumers.size(), a.pick);
  return std::nullopt;
}

std::optional<Violation> WakeModel::check(const State& s) const {
  if (s.waiters < static_cast<int>(parked(s)))
    return Violation{"parked waiter counted",
                     "waiters=" + std::to_string(s.waiters) + " with " +
                         std::to_string(parked(s)) + " parked"};
  if (!enabled(s).empty()) return std::nullopt;
  // Final state: everything that can run has run.
  if (parked(s) > 0 && (s.items > 0 || s.closed))
    return Violation{"no lost wake-up",
                     std::to_string(parked(s)) + " waiter(s) parked forever "
                     "with items=" + std::to_string(s.items) +
                         (s.closed ? " on a closed channel" : "")};
  if (s.waiters != static_cast<int>(parked(s)))
    return Violation{"no count leak",
                     "waiters=" + std::to_string(s.waiters) + " with " +
                         std::to_string(parked(s)) + " parked at the end"};
  return std::nullopt;
}

std::string WakeModel::fingerprint(const State& s) const {
  std::string f = std::to_string(s.items) + (s.closed ? "C" : "o") + "s" +
                  std::to_string(s.seq) + "w" + std::to_string(s.waiters) +
                  "q";
  for (std::uint8_t id : s.futex_queue) f += std::to_string(id) + ",";
  f += "|";
  for (const Consumer& c : s.consumers)
    f += std::to_string(c.pc) + ":" + std::to_string(c.loaded_seq) + ",";
  f += "|";
  for (const Waker& w : s.wakers)
    f += std::to_string(w.pc) + ":" + std::to_string(w.woken) + ",";
  return f;
}

std::uint64_t WakeModel::action_key(const Action& a) const {
  return static_cast<std::uint64_t>(a.thread) * 256 + a.pick;
}

bool WakeModel::independent(const Action&, const Action&) const {
  // Every step touches the shared words; claim no independence and let
  // state dedup keep the search small.
  return false;
}

std::string WakeModel::describe(const Action& a) const {
  if (a.thread < opt_.consumers)
    return "consumer " + std::to_string(a.thread) + ": " +
           consumer_step(a.pc);
  const std::size_t j = a.thread - opt_.consumers;
  std::string d = (j < opt_.pushes ? "producer " : "closer ") +
                  std::to_string(j) + ": " + waker_step(a.pc);
  if (a.pc == Waker::Wake && j < opt_.pushes)
    d += " (queue slot " + std::to_string(a.pick) + ")";
  return d;
}

ExploreResult run_wake_explore(const WakeOptions& opt) {
  WakeModel model(opt);
  ExploreOptions eo;
  eo.max_depth = opt.depth;
  eo.sleep_sets = false;
  return explore(model, model.initial(), eo);
}

}  // namespace bsk::analysis::mc
