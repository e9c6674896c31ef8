// Bench-startup guard for the schedule-exploration controller: without
// CUSAN_SCHEDULE (or with `free` and no recording), every decision site must
// stay at the faultsim discipline — one relaxed atomic load
// (schedsim::Controller::armed()), nothing else. The guard mirrors
// obs_guard.hpp:
//
//   1. parity: Controller::armed() vs faultsim::Injector::armed(), the
//      codebase's canonical single-relaxed-load hook. A disarmed schedule
//      gate costing several times the reference load means someone added
//      work (a second load, a branch chain, a call) to the off path.
//   2. budget: the disarmed decision path (armed() check + skipped choose())
//      vs a representative guarded operation, same < 1% rule.
#pragma once

#include <chrono>
#include <cstdio>

#include "faultsim/injector.hpp"
#include "obs_guard.hpp"
#include "schedsim/controller.hpp"

namespace bench {

/// Runs the disarmed-controller guard against `op` (called `op_iters`
/// times). Returns 0 on pass or when a schedule strategy is armed (an
/// exploring run pays for its control by design), 1 on violation.
template <typename Op>
int sched_hook_overhead_guard(const char* op_name, Op&& op, int op_iters) {
  if (schedsim::Controller::armed()) {
    std::fprintf(stderr, "[sched-guard] CUSAN_SCHEDULE armed; skipping disarmed guard\n");
    return 0;
  }

  const double gate_ns = detail::time_hook_ns([] { detail::keep(schedsim::Controller::armed()); });
  const double ref_ns = detail::time_hook_ns([] { detail::keep(faultsim::Injector::armed()); });
  // The full disarmed site as call sites write it: gate, and only then the
  // mutex-taking choose(). Disarmed it must compile down to the gate alone.
  const double site_ns = detail::time_hook_ns([] {
    int chosen = 0;
    if (schedsim::Controller::armed()) {
      chosen = schedsim::Controller::instance().choose(schedsim::Site::kWaitany, 0, 2, 0);
    }
    detail::keep(chosen);
  });

  using clock = std::chrono::steady_clock;
  for (int i = 0; i < op_iters / 10 + 1; ++i) {
    op();
  }
  const auto o0 = clock::now();
  for (int i = 0; i < op_iters; ++i) {
    op();
  }
  const auto o1 = clock::now();
  const double op_ns = std::chrono::duration<double, std::nano>(o1 - o0).count() / op_iters;

  const double parity = ref_ns > 0.0 ? gate_ns / ref_ns : 0.0;
  const double budget = op_ns > 0.0 ? site_ns / op_ns : 0.0;
  std::fprintf(stderr,
               "[sched-guard] gate %.3f ns vs armed() %.3f ns (%.2fx, budget 4x); disarmed "
               "decision site %.3f ns vs %s %.1f ns/op -> %.4f%% overhead (budget 1%%)\n",
               gate_ns, ref_ns, parity, site_ns, op_name, op_ns, budget * 100.0);
  // Same thresholds as obs_guard.hpp: 4x plus an absolute 1 ns floor absorbs
  // timer noise on a sub-ns load.
  if (parity >= 4.0 && gate_ns - ref_ns > 1.0) {
    std::fprintf(stderr,
                 "[sched-guard] FAIL: Controller::armed() is no longer one relaxed load\n");
    return 1;
  }
  if (budget >= 0.01) {
    std::fprintf(stderr, "[sched-guard] FAIL: disarmed decision site costs >= 1%% of %s\n",
                 op_name);
    return 1;
  }
  return 0;
}

}  // namespace bench
