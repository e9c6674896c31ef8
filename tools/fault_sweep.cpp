// Differential fault-sweep driver: runs the full §VI-C scenario matrix under
// N seed-deterministic random fault plans and enforces the three robustness
// invariants (no crash/hang, unfired plans are verdict-invisible, every fired
// fault is surfaced through some channel). See src/testsuite/fault_sweep.hpp.
//
// With --schedules dpor (optionally dpor;bound:<k>) every (plan, scenario)
// run is followed by a systematic DPOR exploration of the pair, so fault
// plans and schedule exploration compose: every schedule the explorer
// executes must satisfy the same invariants. The unfaulted
// baseline stays on the free schedule, making invariant 2 also a
// schedule-independence check.
//
// With --rank-kills N every plan additionally carries N rank_kill specs
// (sigkill/sigabrt/hang at a random rank's n-th MPI operation). These only
// fire under CUSAN_MPI_BACKEND=proc, where every fired kill must surface as
// exactly one supervisor RankFailureReport; under the thread backend they
// stay dormant and invariant 2 proves them invisible.
//
// Every baseline and (plan, scenario) run is one svc::Session (private
// injector, controller and metrics registry) on an executor with --jobs N
// workers (default 1). Stats merge in (plan, scenario) order, so the outcome
// and the --metrics file do not depend on N.
//
// A sweep whose plans asked for faults but fired none (or, under the proc
// backend, asked for rank kills but killed nothing) checked nothing: it
// prints VACUOUS and exits 3 instead of OK.
//
// Usage: fault_sweep [--plans N] [--faults N] [--seed N] [--filter SUBSTR]
//                    [--watchdog MS] [--metrics PATH]
//                    [--schedules dpor[;bound:K]] [--rank-kills N]
//                    [--jobs N] [--verbose]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "common/parse.hpp"
#include "mpisim/world.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "schedsim/controller.hpp"
#include "schedsim/explorer.hpp"
#include "testsuite/fault_sweep.hpp"

namespace {

/// Exit code of a sweep that held every invariant but fired nothing
/// (1: an invariant failed, 2: usage).
constexpr int kExitVacuous = 3;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--plans N] [--faults N] [--seed N] [--filter SUBSTR] "
               "[--watchdog MS] [--metrics PATH] [--schedules dpor[;bound:K]] "
               "[--rank-kills N] [--jobs N] [--verbose]\n",
               argv0);
  std::exit(2);
}

/// Most executor workers --jobs may ask for.
constexpr std::uint64_t kMaxJobs = 256;
constexpr std::uint64_t kMaxInt = std::numeric_limits<int>::max();
constexpr std::uint64_t kMaxSeed = std::numeric_limits<std::uint64_t>::max();

/// `value` of `flag` as plain decimal digits in [min, max]; anything else
/// (a sign, trailing junk, a value past max) is a usage error.
std::uint64_t parse_flag(const char* argv0, const char* flag, const char* value,
                         std::uint64_t min, std::uint64_t max) {
  if (value == nullptr) {
    std::fprintf(stderr, "%s requires a value\n", flag);
    usage(argv0);
  }
  std::uint64_t parsed = 0;
  if (!common::parse_uint(value, parsed, max) || parsed < min) {
    std::fprintf(stderr, "%s: expected an integer in [%llu, %llu], got '%s'\n", flag,
                 static_cast<unsigned long long>(min), static_cast<unsigned long long>(max),
                 value);
    usage(argv0);
  }
  return parsed;
}

}  // namespace

int main(int argc, char** argv) {
  testsuite::SweepOptions options;
  std::string metrics_path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (std::strcmp(arg, "--plans") == 0) {
      options.plans = static_cast<int>(parse_flag(argv[0], arg, value, 1, kMaxInt));
      ++i;
    } else if (std::strcmp(arg, "--faults") == 0) {
      options.faults_per_plan = static_cast<int>(parse_flag(argv[0], arg, value, 1, kMaxInt));
      ++i;
    } else if (std::strcmp(arg, "--seed") == 0) {
      options.seed = parse_flag(argv[0], arg, value, 0, kMaxSeed);
      ++i;
    } else if (std::strcmp(arg, "--filter") == 0) {
      if (value == nullptr) {
        usage(argv[0]);
      }
      options.filter = value;
      ++i;
    } else if (std::strcmp(arg, "--watchdog") == 0) {
      options.watchdog = std::chrono::milliseconds(parse_flag(argv[0], arg, value, 1, kMaxInt));
      ++i;
    } else if (std::strcmp(arg, "--metrics") == 0) {
      if (value == nullptr) {
        usage(argv[0]);
      }
      metrics_path = value;
      ++i;
    } else if (std::strcmp(arg, "--schedules") == 0) {
      if (value == nullptr) {
        usage(argv[0]);
      }
      schedsim::Config sched;
      std::string error;
      if (!schedsim::parse_schedule(value, &sched, &error) ||
          sched.mode != schedsim::Mode::kDpor) {
        std::fprintf(stderr, "--schedules: %s\n",
                     error.empty() ? "expected dpor[;bound:<k>]" : error.c_str());
        usage(argv[0]);
      }
      options.dpor = true;
      options.dpor_bound = sched.bound;
      ++i;
    } else if (std::strcmp(arg, "--rank-kills") == 0) {
      options.rank_kills = static_cast<int>(parse_flag(argv[0], arg, value, 0, kMaxInt));
      ++i;
    } else if (std::strcmp(arg, "--jobs") == 0) {
      options.jobs = static_cast<int>(parse_flag(argv[0], arg, value, 1, kMaxJobs));
      ++i;
    } else if (std::strcmp(arg, "--verbose") == 0) {
      options.verbose = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      usage(argv[0]);
    }
  }
  const std::uint32_t bound =
      options.dpor_bound != 0 ? options.dpor_bound : schedsim::ExplorerOptions::kDefaultBound;
  const std::string schedule = options.dpor
                                   ? "dpor exploration (bound " + std::to_string(bound) + ")"
                                   : std::string("free schedule");
  std::printf("fault sweep: %d plan(s) x %d fault(s) + %d rank-kill(s), seed %llu, "
              "watchdog %lld ms, %s\n",
              options.plans, options.faults_per_plan, options.rank_kills,
              static_cast<unsigned long long>(options.seed),
              static_cast<long long>(options.watchdog.count()), schedule.c_str());
  const testsuite::SweepStats stats = testsuite::run_fault_sweep(options);
  if (!metrics_path.empty()) {
    // The sessions' summed metric deltas (tool counters, fault ledger,
    // contention counters) as one flat JSON object.
    std::string error;
    if (!obs::write_file(metrics_path, obs::MetricsRegistry::to_json(stats.metrics), &error)) {
      std::fprintf(stderr, "--metrics: %s\n", error.c_str());
      return 2;
    }
  }

  std::printf(
      "\nSweep summary\n  Scenarios: %zu\n  Faulted runs executed: %zu (of %zu)\n  Faults "
      "fired: %llu\n  Faults unsurfaced: %llu\n  Unfaulted verdict mismatches: %zu\n",
      stats.scenarios, stats.faulted_runs, stats.runs,
      static_cast<unsigned long long>(stats.faults_fired),
      static_cast<unsigned long long>(stats.faults_unsurfaced), stats.verdict_mismatches);
  if (options.rank_kills > 0) {
    std::printf("  Rank-kill runs: %zu\n  RankFailureReports: %zu\n", stats.rank_kill_runs,
                stats.rank_failure_reports);
  }
  if (options.dpor) {
    std::printf("  DPOR executions: %llu\n",
                static_cast<unsigned long long>(stats.dpor_executions));
  }
  for (const std::string& failure : stats.failures) {
    std::printf("  VIOLATION: %s\n", failure.c_str());
  }
  if (stats.scenarios == 0) {
    std::fprintf(stderr, "no scenario matches filter '%s'\n", options.filter.c_str());
    return 2;
  }
  if (!stats.ok()) {
    std::printf("FAILED\n");
    return 1;
  }
  if (const std::string vacuous =
          testsuite::vacuous_reason(options, stats, mpisim::default_backend());
      !vacuous.empty()) {
    std::printf("VACUOUS: %s\n", vacuous.c_str());
    return kExitVacuous;
  }
  std::printf("OK: all robustness invariants hold\n");
  return 0;
}
