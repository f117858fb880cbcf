// bsk-verify: exhaustive model checking of the cluster protocols, CRDT law
// checking, and lock-order deadlock analysis — all over the *shipped*
// protocol code (gossip_core, resume_core, MembershipTable), not a spec —
// plus a step model of the wait ladder's futex park/wake protocol.
//
//   bsk-verify                  # gossip + resume + wake explorers + CRDT
//   bsk-verify --gossip         # just the gossip explorer (+ law scripts)
//   bsk-verify --resume         # just the session-resume explorer
//   bsk-verify --crdt           # just the CRDT law checker
//   bsk-verify --wake           # just the park/wake explorer
//   bsk-verify --locks          # in-process fleet under the lock recorder
//   bsk-verify --defect <name>  # seed a historical bug; exit 1 iff caught
//   bsk-verify --n 3 --rounds 2 --depth 28 --drops 1 --dups 1 --departs 1
//   bsk-verify --tasks 3 --window 2 --kills 1   # resume model budgets
//
// Defect names: tombstone-gossip, delta-boundary, skip-repair (gossip core
// seams), lock-inversion (--locks), late-seq and double-leave (--wake). A
// defect run *inverts* the exit code contract: the verifier must FIND the
// bug (exit 0 when found, 1 when it slipped through) — the mutation
// fixtures in tests/ call it this way.
//
// Exit codes: 0 all checks passed (or seeded defect detected), 1 violation
// found (or seeded defect missed), 2 usage error.

#include <cstring>
#include <iostream>
#include <string>
#include <tuple>

#include "analysis/mc/crdt_check.hpp"
#include "analysis/mc/gossip_model.hpp"
#include "analysis/mc/lock_scenario.hpp"
#include "analysis/mc/resume_model.hpp"
#include "analysis/mc/wake_model.hpp"

namespace {

using namespace bsk::analysis::mc;

void print_stats(const char* what, const Stats& st) {
  std::cout << "  " << what << ": " << st.states_explored
            << " states, " << st.transitions << " transitions, "
            << st.deduped << " deduped, " << st.sleep_pruned
            << " sleep-pruned, max depth " << st.max_depth
            << (st.truncated ? " (depth-bounded)" : " (exhaustive)") << "\n";
}

void print_violation(const char* what, const ExploreResult& r) {
  std::cout << what << ": VIOLATION [" << r.violation.property << "] "
            << r.violation.detail << "\n";
  std::cout << "  trace (" << r.trace.size() << " steps):\n";
  for (const std::string& s : r.trace) std::cout << "    " << s << "\n";
}

int usage() {
  std::cout
      << "usage: bsk-verify [--gossip|--resume|--crdt|--locks|--wake]\n"
         "                  [--defect tombstone-gossip|delta-boundary|"
         "skip-repair|lock-inversion|late-seq|double-leave]\n"
         "                  [--n N] [--rounds N] [--depth N] [--drops N]\n"
         "                  [--dups N] [--departs N] [--tasks N] "
         "[--window N] [--kills N]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool do_gossip = false, do_resume = false, do_crdt = false,
       do_locks = false, do_wake = false;
  std::string defect;
  GossipOptions go;
  ResumeOptions ro;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto num = [&](std::size_t& out) {
      if (i + 1 >= argc) return false;
      out = static_cast<std::size_t>(std::stoul(argv[++i]));
      return true;
    };
    if (a == "--gossip") do_gossip = true;
    else if (a == "--resume") do_resume = true;
    else if (a == "--crdt") do_crdt = true;
    else if (a == "--locks") do_locks = true;
    else if (a == "--wake") do_wake = true;
    else if (a == "--defect" && i + 1 < argc) defect = argv[++i];
    else if (a == "--n") { if (!num(go.n)) return usage(); }
    else if (a == "--rounds") { if (!num(go.rounds)) return usage(); }
    else if (a == "--depth") {
      std::size_t d = 0;
      if (!num(d)) return usage();
      go.depth = d;
      ro.depth = d;
    }
    else if (a == "--drops") {
      std::size_t d = 0;
      if (!num(d)) return usage();
      go.drops = d;
      ro.drops = d;
    }
    else if (a == "--dups") {
      std::size_t d = 0;
      if (!num(d)) return usage();
      go.dups = d;
      ro.dups = d;
    }
    else if (a == "--departs") { if (!num(go.departs)) return usage(); }
    else if (a == "--tasks") { if (!num(ro.tasks)) return usage(); }
    else if (a == "--window") { if (!num(ro.window)) return usage(); }
    else if (a == "--kills") { if (!num(ro.kills)) return usage(); }
    else if (a == "--help" || a == "-h") { usage(); return 0; }
    else return usage();
  }
  if (!do_gossip && !do_resume && !do_crdt && !do_locks && !do_wake)
    do_gossip = do_resume = do_crdt = do_wake = true;

  bool defect_is_lock = defect == "lock-inversion";
  WakeDefect wake_defect = WakeDefect::None;
  if (defect == "late-seq")
    wake_defect = WakeDefect::LateSeq;
  else if (defect == "double-leave")
    wake_defect = WakeDefect::DoubleLeave;
  if (!defect.empty() && !defect_is_lock && wake_defect == WakeDefect::None) {
    if (defect == "tombstone-gossip")
      go.defect = bsk::cluster::GossipDefect::DropTombstones;
    else if (defect == "delta-boundary")
      go.defect = bsk::cluster::GossipDefect::DeltaBoundary;
    else if (defect == "skip-repair")
      go.defect = bsk::cluster::GossipDefect::SkipRepair;
    else
      return usage();
  }

  bool violated = false;

  if (do_locks) {
    LockScenarioOptions lo;
    lo.inversion_defect = defect_is_lock;
    std::cout << "lock-order scenario: fleet of " << lo.fleet
              << " under the acquisition recorder...\n";
    const LockScenarioResult lr = run_lock_scenario(lo);
    std::cout << "  " << lr.report.acquisitions << " named acquisitions, "
              << lr.report.edges.size() << " distinct order edges, "
              << lr.report.cycles.size() << " cycles"
              << (lr.converged ? "" : " [fleet did not converge]") << "\n";
    for (const auto& cyc : lr.report.cycles) {
      std::cout << "  cycle:";
      for (const std::string& n : cyc) std::cout << " " << n;
      std::cout << "\n";
    }
    if (!lr.converged) violated = true;
    if (!lr.report.ok()) violated = true;
  }

  if (do_gossip) {
    // The scripted law scenarios first: deterministic, instant, and they
    // reach the exact-boundary stamp the bounded explorer cannot.
    if (const auto v = run_gossip_laws(go.defect)) {
      std::cout << "gossip laws: VIOLATION [" << v->property << "] "
                << v->detail << "\n";
      violated = true;
    } else {
      std::cout << "gossip laws: ok (boundary, tombstone, repair)\n";
    }
    const ExploreResult r = run_gossip_explore(go);
    if (!r.ok) {
      print_violation("gossip explore", r);
      violated = true;
    } else {
      std::cout << "gossip explore: ok (n=" << go.n << ", rounds="
                << go.rounds << ", drops=" << go.drops << ", dups=" << go.dups
                << ", departs=" << go.departs << ")\n";
    }
    print_stats("gossip", r.stats);
  }

  if (do_resume) {
    const ExploreResult r = run_resume_explore(ro);
    if (!r.ok) {
      print_violation("resume explore", r);
      violated = true;
    } else {
      std::cout << "resume explore: ok (tasks=" << ro.tasks << ", window="
                << ro.window << ", drops=" << ro.drops << ", dups=" << ro.dups
                << ", kills=" << ro.kills << ")\n";
    }
    print_stats("resume", r.stats);
  }

  if (do_wake) {
    // Two shapes: wake(1) racing a wake-all close, and three waiters
    // sharing two single wakes.
    for (const auto& [consumers, pushes, close] :
         {std::tuple<std::size_t, std::size_t, bool>{2, 2, true},
          std::tuple<std::size_t, std::size_t, bool>{3, 2, false}}) {
      WakeOptions wo;
      wo.consumers = consumers;
      wo.pushes = pushes;
      wo.close = close;
      wo.defect = wake_defect;
      const ExploreResult r = run_wake_explore(wo);
      if (!r.ok) {
        print_violation("wake explore", r);
        violated = true;
      } else {
        std::cout << "wake explore: ok (consumers=" << consumers
                  << ", pushes=" << pushes << ", close=" << close << ")\n";
      }
      print_stats("wake", r.stats);
    }
  }

  if (do_crdt) {
    const CrdtResult r = run_crdt_check(CrdtOptions{});
    if (!r.ok) {
      std::cout << "crdt laws: VIOLATION [" << r.violation.property << "] "
                << r.violation.detail << "\n";
      violated = true;
    } else {
      std::cout << "crdt laws: ok (" << r.checks << " law instances)\n";
    }
  }

  if (!defect.empty()) {
    // Mutation-fixture contract: the seeded bug must have been caught.
    if (violated) {
      std::cout << "seeded defect '" << defect << "': DETECTED\n";
      return 0;
    }
    std::cout << "seeded defect '" << defect
              << "': MISSED — the verifier is blind to this bug class\n";
    return 1;
  }
  return violated ? 1 : 0;
}
