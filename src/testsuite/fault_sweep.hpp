// Differential fault sweep: run the full scenario matrix under randomized
// (but seed-deterministic) fault plans and check the three robustness
// invariants the checker stack promises when the substrate fails:
//
//   1. No crash and no hang — every run terminates (injected stalls resolve
//      through the MPI progress watchdog).
//   2. Runs in which no fault fired produce verdicts identical to the
//      unfaulted baseline (fault hooks are invisible until they fire).
//   3. Every fault that fired is *accounted for*: surfaced as an API error,
//      a sticky CUDA error, a MUST report, a DeadlockReport, or marked as a
//      pure perturbation (delay).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "faultsim/injector.hpp"
#include "faultsim/plan.hpp"
#include "mpisim/world.hpp"
#include "obs/metrics.hpp"

namespace testsuite {

struct SweepOptions {
  std::uint64_t seed{0x5eed};
  /// Number of random fault plans to sweep (plan i uses seed + i).
  int plans{3};
  /// Fault specs per generated plan.
  int faults_per_plan{4};
  /// Substring filter on scenario names (empty = all scenarios).
  std::string filter;
  /// MPI watchdog timeout for every run; keep small so stalls resolve fast.
  std::chrono::milliseconds watchdog{150};
  /// Print one line per (plan, scenario) run to stdout.
  bool verbose{false};
  /// Compose fault plans with schedule exploration: every (plan, scenario)
  /// pair first runs one free round, then a DPOR exploration
  /// (schedsim::Explorer) whose every executed schedule must satisfy the
  /// same invariants. The unfaulted baseline always runs on the free
  /// schedule — invariant 2 therefore also proves verdicts are
  /// schedule-independent.
  bool dpor{false};
  /// Execution bound per DPOR exploration (0 = explorer default).
  std::uint32_t dpor_bound{0};
  /// rank_kill specs appended to every generated plan (sigkill / sigabrt /
  /// hang at a random rank's n-th MPI operation). Only the proc backend
  /// probes rank_kill sites: under the thread backend the specs stay
  /// dormant, which invariant 2 then proves invisible. Under the proc
  /// backend every fired kill must surface as exactly one RankFailureReport
  /// (invariant 4 below).
  int rank_kills{0};
  /// Executor workers. Each scenario baseline and each (plan, scenario)
  /// pair runs as one svc::Session with a private injector, controller and
  /// metrics registry; stats and failure lines merge in (plan, scenario)
  /// order, so the outcome does not depend on the worker count.
  int jobs{1};
};

struct SweepStats {
  std::size_t scenarios{0};      ///< scenarios in the (filtered) matrix
  std::size_t runs{0};           ///< faulted runs executed (plans x scenarios)
  std::size_t faulted_runs{0};   ///< runs where at least one fault fired
  std::uint64_t faults_fired{0};
  std::uint64_t faults_unsurfaced{0};   ///< fired but never accounted — invariant 3 violation
  std::size_t verdict_mismatches{0};    ///< unfaulted run diverged from baseline — invariant 2
  std::size_t rank_kill_runs{0};        ///< runs in which a rank_kill fired (proc backend)
  std::size_t rank_failure_reports{0};  ///< supervisor RankFailureReports observed across runs
  std::uint64_t dpor_executions{0};     ///< schedules executed by DPOR explorations
  std::vector<std::string> failures;    ///< human-readable invariant violations
  obs::MetricsSnapshot metrics;         ///< summed metric deltas of every session

  [[nodiscard]] bool ok() const {
    return faults_unsurfaced == 0 && verdict_mismatches == 0 && failures.empty();
  }
};

/// Classify a finished run from its fired-fault ledger: "clean" (nothing
/// fired), "perturbed" (faults fired, no rank died), or the containment
/// outcome with the signal spelled out — "rank-killed (SIGKILL)",
/// "rank-killed (SIGABRT)", "rank-hang (heartbeat timeout, SIGKILL)".
[[nodiscard]] std::string classify_run(const std::vector<faultsim::FiredFault>& fired);

/// Seed-deterministic random plan: `faults` specs with concrete scopes and
/// site-valid actions, plus `rank_kills` rank_kill specs (the same seed
/// always yields the same plan).
[[nodiscard]] faultsim::FaultPlan make_random_plan(std::uint64_t seed, int faults,
                                                   int rank_kills = 0);

/// Why a sweep checked nothing ("" when it checked something): its plans
/// asked for faults but none fired in any faulted run, or, under the proc
/// backend, they asked for rank kills but none fired. Such a sweep holds
/// every invariant vacuously, so it is not a pass.
[[nodiscard]] std::string vacuous_reason(const SweepOptions& options, const SweepStats& stats,
                                         mpisim::Backend backend);

/// Run the sweep. Every run is an svc::Session, so the process instances
/// (faultsim::Injector::global() and friends) are left untouched.
[[nodiscard]] SweepStats run_fault_sweep(const SweepOptions& options);

}  // namespace testsuite
