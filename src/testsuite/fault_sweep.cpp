#include "testsuite/fault_sweep.hpp"

#include <csignal>
#include <cstdio>

#include "common/format.hpp"
#include "common/rng.hpp"
#include "faultsim/injector.hpp"
#include "mpisim/failure.hpp"
#include "obs/metrics.hpp"
#include "schedsim/controller.hpp"
#include "schedsim/explorer.hpp"
#include "svc/executor.hpp"
#include "testsuite/scenarios.hpp"

namespace testsuite {
namespace {

using faultsim::Action;
using faultsim::ScopeKind;
using faultsim::Site;

[[nodiscard]] bool is_mpi_site(Site site) {
  switch (site) {
    case Site::kSend:
    case Site::kRecv:
    case Site::kWait:
    case Site::kBarrier:
    case Site::kCollective:
      return true;
    default:
      return false;
  }
}

/// Draw one spec whose (site, scope, action) combination passes plan
/// validation. Concrete scopes only: scenario worlds are at least 2 ranks
/// (CUSAN_RANKS may widen them) with 1 device each, so dev0/rank0/rank1/
/// stream0..2 always exist.
[[nodiscard]] faultsim::FaultSpec random_spec(common::SplitMix64& rng) {
  static constexpr Site kSites[] = {Site::kMalloc, Site::kMemcpy, Site::kMemset,
                                    Site::kKernel, Site::kSend,   Site::kRecv,
                                    Site::kWait,   Site::kBarrier, Site::kCollective};
  faultsim::FaultSpec spec;
  spec.site = kSites[rng.next_below(sizeof(kSites) / sizeof(kSites[0]))];

  if (is_mpi_site(spec.site)) {
    switch (rng.next_below(3)) {
      case 0:
        spec.scope_kind = ScopeKind::kAny;
        break;
      default:
        spec.scope_kind = ScopeKind::kRank;
        spec.scope_id = static_cast<int>(rng.next_below(2));  // ranks 0..1
        break;
    }
    // stall is rationed: at most one per plan would still be fine, but its
    // cost is a full watchdog timeout per run, so keep it rare.
    const auto roll = rng.next_below(10);
    if (roll < 1) {
      spec.action = Action::kStall;
    } else if (roll < 5) {
      spec.action = Action::kDelay;
      spec.delay = std::chrono::microseconds(200 + 200 * rng.next_below(5));
    } else {
      spec.action = Action::kFail;
    }
  } else {
    switch (rng.next_below(3)) {
      case 0:
        spec.scope_kind = ScopeKind::kAny;
        break;
      case 1:
        spec.scope_kind = ScopeKind::kDevice;
        spec.scope_id = 0;  // each rank's only device
        break;
      default:
        spec.scope_kind = ScopeKind::kStream;
        spec.scope_id = static_cast<int>(rng.next_below(3));  // default + 2 user streams
        break;
    }
    if (spec.site == Site::kMalloc) {
      spec.action = rng.next_below(3) == 0 ? Action::kDelay : Action::kOom;
    } else if (spec.site == Site::kKernel) {
      spec.action = rng.next_below(2) == 0 ? Action::kAbort : Action::kFail;
    } else {
      const auto roll = rng.next_below(3);
      spec.action = roll == 0 ? Action::kAbort : (roll == 1 ? Action::kDelay : Action::kFail);
    }
    if (spec.action == Action::kDelay) {
      spec.delay = std::chrono::microseconds(200 + 200 * rng.next_below(5));
    }
  }

  // The nth draw stays for every action, so plans without a stall do not
  // change; a stall aims at #1 for the reason random_kill_spec does.
  spec.nth = 1 + rng.next_below(4);
  if (spec.action == Action::kStall) {
    spec.nth = 1;
  }
  if (rng.next_below(2) == 0) {
    spec.period = 2 + rng.next_below(5);
  }
  return spec;
}

/// One rank_kill spec: a concrete rank (0/1 always exist), one of the three
/// death modes, aimed at the victim's first posted MPI operation: every
/// corpus rank posts exactly one, so a later #n would never fire, and the
/// first one still lands while the victim's peers are mid-conversation. No
/// period: a killed process cannot die twice, and the supervisor declares
/// first-failure only.
[[nodiscard]] faultsim::FaultSpec random_kill_spec(common::SplitMix64& rng) {
  faultsim::FaultSpec spec;
  spec.site = Site::kRankKill;
  spec.scope_kind = ScopeKind::kRank;
  spec.scope_id = static_cast<int>(rng.next_below(2));
  switch (rng.next_below(3)) {
    case 0:
      spec.action = Action::kSigkill;
      break;
    case 1:
      spec.action = Action::kSigabrt;
      break;
    default:
      spec.action = Action::kHang;
      break;
  }
  spec.nth = 1;
  return spec;
}

/// Everything one (plan, scenario) pair contributes to the sweep stats.
/// Computed against the session's injector and controller and merged in
/// (plan, scenario) order by the caller.
struct RunPartial {
  std::size_t runs{0};
  std::size_t faulted_runs{0};
  std::uint64_t faults_fired{0};
  std::uint64_t faults_unsurfaced{0};
  std::size_t verdict_mismatches{0};
  std::size_t rank_kill_runs{0};
  std::size_t rank_failure_reports{0};
  std::uint64_t dpor_executions{0};
  std::vector<std::string> failures;
};

/// All rounds (free schedule + optional DPOR executions) of one plan against
/// one scenario, checking invariants 2-4 against the unfaulted baseline.
[[nodiscard]] RunPartial run_plan_rounds(const faultsim::FaultPlan& plan,
                                         const Scenario& scenario, std::size_t baseline_races,
                                         const SweepOptions& options, int p, bool fast) {
  auto& injector = faultsim::Injector::instance();
  obs::Counter& rank_failure_metric = obs::metric("mpisim.proc.rank_failures");
  RunPartial partial;

  // One faulted run under whatever schedule is configured, plus the
  // invariant checks against its fired-fault ledger. Round 0 is the free
  // schedule; under DPOR the explorer decides how many more rounds run.
  const auto one_run = [&](int round) -> std::size_t {
    injector.load(plan);  // resets match counters: every run sees the same schedule
    const std::uint64_t failures_before = rank_failure_metric.value();
    const std::size_t races = run_scenario_outcome(scenario, fast, options.watchdog).races;
    const std::uint64_t failures_reported = rank_failure_metric.value() - failures_before;
    const std::vector<faultsim::FiredFault> fired = injector.take_fired();
    ++partial.runs;
    partial.rank_failure_reports += failures_reported;
    if (fired.empty()) {
      // Invariant 2: fault hooks that never fire must be invisible — and
      // with schedules, verdicts must not depend on the interleaving.
      if (races != baseline_races) {
        ++partial.verdict_mismatches;
        partial.failures.push_back(common::format(
            "plan {} scenario {} round {}: no fault fired but verdict changed ({} races vs "
            "baseline {})",
            p, scenario.name, round, races, baseline_races));
      }
      return races;
    }
    ++partial.faulted_runs;
    partial.faults_fired += fired.size();
    std::size_t kills_fired = 0;
    for (const faultsim::FiredFault& f : fired) {
      // Invariant 3: every fired fault is accounted through some channel.
      if (f.surfaced == faultsim::Channel::kNone) {
        ++partial.faults_unsurfaced;
        partial.failures.push_back(
            common::format("plan {} scenario {} round {}: fault #{} ({} at {}) fired but was "
                           "never surfaced through any channel",
                           p, scenario.name, round, f.id, to_string(f.action),
                           to_string(f.site)));
      }
      if (f.site == Site::kRankKill) {
        ++kills_fired;
        // A fired kill may only ever surface as the supervisor's
        // structured failure report — any other channel means the death
        // leaked out through a side door.
        if (f.surfaced != faultsim::Channel::kFailureReport) {
          partial.failures.push_back(common::format(
              "plan {} scenario {} round {}: rank_kill #{} surfaced via '{}' instead of a "
              "RankFailureReport",
              p, scenario.name, round, f.id, to_string(f.surfaced)));
        }
      }
    }
    if (kills_fired > 0) {
      ++partial.rank_kill_runs;
      // Invariant 4: a run that killed ranks produces exactly one
      // RankFailureReport — the supervisor declares first-failure only,
      // and zero reports would mean an unnoticed death.
      if (failures_reported != 1) {
        partial.failures.push_back(common::format(
            "plan {} scenario {} round {}: {} rank_kill(s) fired but {} RankFailureReports "
            "were declared (expected exactly 1)",
            p, scenario.name, round, kills_fired, failures_reported));
      }
    }
    if (options.verbose) {
      std::printf("[sweep] plan %d round %d %-70s races=%zu fired=%zu outcome=%s\n", p, round,
                  scenario.name.c_str(), races, fired.size(), classify_run(fired).c_str());
    }
    return races;
  };

  if (!options.dpor) {
    (void)one_run(0);
    return partial;
  }
  // Round 0 runs the faulted plan on the free schedule, then the explorer
  // systematically covers the run's decision choices; every executed
  // schedule passes through the same invariant checks above.
  (void)one_run(0);
  schedsim::ExplorerOptions explorer_options;
  explorer_options.bound = options.dpor_bound;
  schedsim::Explorer explorer(explorer_options);
  int round = 0;
  (void)explorer.explore(schedsim::Controller::instance(), [&] { return one_run(++round); });
  partial.dpor_executions += explorer.stats().executions;
  return partial;
}

void merge_partial(SweepStats& stats, RunPartial& partial) {
  stats.runs += partial.runs;
  stats.faulted_runs += partial.faulted_runs;
  stats.faults_fired += partial.faults_fired;
  stats.faults_unsurfaced += partial.faults_unsurfaced;
  stats.verdict_mismatches += partial.verdict_mismatches;
  stats.rank_kill_runs += partial.rank_kill_runs;
  stats.rank_failure_reports += partial.rank_failure_reports;
  stats.dpor_executions += partial.dpor_executions;
  for (std::string& failure : partial.failures) {
    stats.failures.push_back(std::move(failure));
  }
}

}  // namespace

std::string classify_run(const std::vector<faultsim::FiredFault>& fired) {
  if (fired.empty()) {
    return "clean";
  }
  for (const faultsim::FiredFault& f : fired) {
    if (f.site != Site::kRankKill) {
      continue;
    }
    const std::string rank = "rank " + std::to_string(f.where.rank);
    switch (f.action) {
      case Action::kSigkill:
        return "rank-killed (" + rank + ", " + mpisim::signal_name(SIGKILL) + ")";
      case Action::kSigabrt:
        return "rank-killed (" + rank + ", " + mpisim::signal_name(SIGABRT) + ")";
      case Action::kHang:
        return "rank-hang (" + rank + ", heartbeat timeout, " + mpisim::signal_name(SIGKILL) +
               ")";
      default:
        break;
    }
  }
  return "perturbed";
}

faultsim::FaultPlan make_random_plan(std::uint64_t seed, int faults, int rank_kills) {
  common::SplitMix64 rng(seed);
  faultsim::FaultPlan plan;
  for (int i = 0; i < faults; ++i) {
    plan.add(random_spec(rng));
  }
  for (int i = 0; i < rank_kills; ++i) {
    plan.add(random_kill_spec(rng));
  }
  return plan;
}

std::string vacuous_reason(const SweepOptions& options, const SweepStats& stats,
                           mpisim::Backend backend) {
  if (options.faults_per_plan + options.rank_kills > 0 && stats.faulted_runs == 0) {
    return common::format("no fault fired in any of {} faulted runs", stats.runs);
  }
  if (backend == mpisim::Backend::kProc && options.rank_kills > 0 && stats.rank_kill_runs == 0) {
    return common::format("no rank_kill fired in any of {} faulted runs", stats.runs);
  }
  return {};
}

SweepStats run_fault_sweep(const SweepOptions& options) {
  SweepStats stats;

  std::vector<Scenario> scenarios;
  for (Scenario& sc : build_scenarios()) {
    if (options.filter.empty() || sc.name.find(options.filter) != std::string::npos) {
      scenarios.push_back(std::move(sc));
    }
  }
  stats.scenarios = scenarios.size();

  const bool fast = rsan::RuntimeConfig{}.use_shadow_fast_path;

  std::vector<faultsim::FaultPlan> plans;
  plans.reserve(static_cast<std::size_t>(options.plans));
  for (int p = 0; p < options.plans; ++p) {
    plans.push_back(make_random_plan(options.seed + static_cast<std::uint64_t>(p),
                                     options.faults_per_plan, options.rank_kills));
    if (options.verbose) {
      std::printf("[sweep] plan %d: %s\n", p, plans.back().to_string().c_str());
    }
  }

  // Every scenario baseline and every (plan, scenario) pair runs as its own
  // svc::Session, so each starts from a fresh injector, controller and
  // metrics registry. Results land in pre-sized slots and merge in (plan,
  // scenario) order, so the outcome is independent of the worker count.
  svc::Executor executor(svc::ExecutorOptions{.workers = options.jobs});
  std::vector<svc::SessionHandlePtr> handles;

  // Unfaulted baseline (also exercises the watchdog's no-false-positive
  // promise: a short timeout must not misfire on clean runs).
  std::vector<std::size_t> baseline(scenarios.size(), 0);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    svc::SessionSpec spec;
    spec.label = scenarios[i].name + "/baseline";
    spec.body = [&scenarios, &baseline, &options, fast, i] {
      baseline[i] = run_scenario_outcome(scenarios[i], fast, options.watchdog).races;
    };
    handles.push_back(executor.submit(std::move(spec)));
  }
  executor.wait_idle();

  std::vector<RunPartial> partials(plans.size() * scenarios.size());
  for (std::size_t p = 0; p < plans.size(); ++p) {
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      svc::SessionSpec spec;
      spec.label = scenarios[i].name + "/plan" + std::to_string(p);
      spec.body = [&plans, &scenarios, &baseline, &partials, &options, fast, p, i] {
        partials[p * scenarios.size() + i] = run_plan_rounds(
            plans[p], scenarios[i], baseline[i], options, static_cast<int>(p), fast);
      };
      handles.push_back(executor.submit(std::move(spec)));
    }
  }
  executor.wait_idle();

  for (RunPartial& partial : partials) {
    merge_partial(stats, partial);
  }
  for (const svc::SessionHandlePtr& handle : handles) {
    const svc::SessionResult& result = handle->result();
    if (!result.ok) {
      stats.failures.push_back(common::format("session {} failed: {}", result.label, result.error));
    }
    for (const auto& [name, value] : result.metric_deltas) {
      stats.metrics[name] += value;
    }
  }
  return stats;
}

}  // namespace testsuite
