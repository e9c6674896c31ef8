// Checker-as-a-service throughput: sessions/second of the svc::Executor
// (many checked sessions multiplexed in one process on one FIFO worker pool)
// against the process-per-session baseline the executor replaces (one
// fork+exec of this binary per session, the llvm-lit / mpirun model, up to
// the same concurrency). The per-session work is one §VI-C scenario run; the
// baseline pays binary startup, static init and scenario-matrix construction
// per session while the executor pays them once per process.
//
// Also sweeps the executor saturation curve: sessions x workers, showing
// where adding workers stops helping (1 CPU: immediately for CPU-bound
// bodies; blocked bodies still overlap).
//
// Usage: bench_svc_throughput [--sessions N] [--scenario NAME] [--full]
//                             [--json PATH]
//   --sessions N   Concurrency for the baseline comparison (default 64).
//   --scenario     Scenario per session (default: a cheap clean sync one).
//   --full         Full saturation grid: sessions 1..4096 x workers 1..ncpu
//                  (default: a trimmed grid for CI).
//   --json PATH    Write BENCH_svc_throughput.json.
//
// (Internal: --one-session NAME runs a single scenario and exits; this is
// what the baseline children exec.)
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "svc/executor.hpp"
#include "testsuite/scenarios.hpp"

namespace {

[[nodiscard]] const std::vector<testsuite::Scenario>& scenario_matrix() {
  static const std::vector<testsuite::Scenario> scenarios = testsuite::build_scenarios();
  return scenarios;
}

[[nodiscard]] const testsuite::Scenario* find_scenario(const std::string& name) {
  for (const auto& scenario : scenario_matrix()) {
    if (scenario.name == name) {
      return &scenario;
    }
  }
  return nullptr;
}

/// One scenario, standalone — the body a baseline child process runs.
int one_session_main(const char* name) {
  const testsuite::Scenario* scenario = find_scenario(name);
  if (scenario == nullptr) {
    std::fprintf(stderr, "unknown scenario: %s\n", name);
    return 2;
  }
  const auto outcome = testsuite::run_scenario_outcome(*scenario, /*use_shadow_fast_path=*/true);
  return (outcome.races > 0) == scenario->expect_race ? 0 : 1;
}

/// fork+exec `self --one-session name` x sessions, at most `concurrent` live
/// at once. Returns sessions/second.
double run_process_baseline(const char* self, const std::string& name, int sessions,
                            int concurrent) {
  common::WallTimer timer;
  int live = 0;
  int launched = 0;
  int failures = 0;
  while (launched < sessions || live > 0) {
    while (launched < sessions && live < concurrent) {
      const pid_t pid = fork();
      if (pid == 0) {
        execl(self, self, "--one-session", name.c_str(), static_cast<char*>(nullptr));
        _exit(127);
      }
      if (pid < 0) {
        std::perror("fork");
        std::exit(2);
      }
      ++launched;
      ++live;
    }
    int status = 0;
    if (wait(&status) > 0) {
      --live;
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        ++failures;
      }
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "baseline: %d child session(s) failed\n", failures);
    std::exit(1);
  }
  return static_cast<double>(sessions) / timer.elapsed_seconds();
}

/// `sessions` executor sessions on `workers` workers. Returns sessions/second.
double run_executor(const testsuite::Scenario& scenario, int sessions, int workers) {
  svc::ExecutorOptions options;
  options.workers = workers;
  svc::Executor executor(options);
  std::vector<svc::SessionHandlePtr> handles;
  handles.reserve(static_cast<std::size_t>(sessions));
  common::WallTimer timer;
  for (int i = 0; i < sessions; ++i) {
    svc::SessionSpec spec;
    spec.label = scenario.name;
    spec.body = [&scenario] {
      (void)testsuite::run_scenario_outcome(scenario, /*use_shadow_fast_path=*/true);
    };
    handles.push_back(executor.submit(std::move(spec)));
  }
  executor.wait_idle();
  const double seconds = timer.elapsed_seconds();
  for (const auto& handle : handles) {
    if (!handle->result().ok) {
      std::fprintf(stderr, "executor session failed: %s\n", handle->result().error.c_str());
      std::exit(1);
    }
  }
  return static_cast<double>(sessions) / seconds;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--one-session") == 0) {
    return one_session_main(argv[2]);
  }
  std::string json_path;
  (void)bench::parse_json_flag(&argc, argv, &json_path);
  bench::JsonReport report("svc_throughput");

  int sessions = 64;
  bool full = false;
  std::string scenario_name = "cuda_to_mpi__device__default_stream__device_sync__ok";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
      sessions = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
      scenario_name = argv[++i];
    } else if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  const testsuite::Scenario* scenario = find_scenario(scenario_name);
  if (scenario == nullptr || sessions < 1) {
    std::fprintf(stderr, "unknown scenario or bad --sessions\n");
    return 2;
  }
  const int ncpu = std::max(1u, std::thread::hardware_concurrency());

  bench::print_header("Checker-as-a-service: executor vs process-per-session throughput",
                      "the fixed-cost amortization the svc executor exists for");
  std::printf("scenario %s, %d sessions, %d CPU(s)\n\n", scenario->name.c_str(), sessions, ncpu);

  // Head-to-head at the same concurrency. The baseline gets `sessions`
  // concurrent children (the mpirun-per-test model never throttles either).
  const double baseline = run_process_baseline(argv[0], scenario->name, sessions, sessions);
  const double executor = run_executor(*scenario, sessions, ncpu);
  bench::Table comparison(&report, "comparison",
                          {"mode", "sessions", "concurrency", "sessions_per_s", "speedup"});
  comparison.add_row({"process-per-session", std::to_string(sessions), std::to_string(sessions),
                      common::fixed(baseline, 1), "1.00"});
  comparison.add_row({"svc executor", std::to_string(sessions), std::to_string(ncpu),
                      common::fixed(executor, 1), common::fixed(executor / baseline, 2)});
  std::printf("%s\n", comparison.render().c_str());

  // Saturation curve: executor-only, sessions x workers.
  std::vector<int> session_counts;
  std::vector<int> worker_counts;
  if (full) {
    for (int n = 1; n <= 4096; n *= 4) {
      session_counts.push_back(n);
    }
    for (int w = 1; w <= ncpu; w *= 2) {
      worker_counts.push_back(w);
    }
    if (worker_counts.back() != ncpu) {
      worker_counts.push_back(ncpu);
    }
  } else {
    session_counts = {1, 16, 64, 256};
    worker_counts = {1, 2, 4};
  }
  bench::Table saturation(&report, "saturation", {"sessions", "workers", "sessions_per_s"});
  for (const int n : session_counts) {
    for (const int w : worker_counts) {
      saturation.add_row(
          {std::to_string(n), std::to_string(w), common::fixed(run_executor(*scenario, n, w), 1)});
    }
  }
  std::printf("%s\n", saturation.render().c_str());
  std::printf("expected: the executor amortizes process startup (exec, static init, scenario\n");
  std::printf("matrix build) across all sessions — >= 10x sessions/s at 64 concurrent here —\n");
  std::printf("and the saturation curve flattens once workers cover the available cores.\n");

  // A warning, not a failure: the achievable ratio is bounded by per-session
  // checking work / per-process exec cost, which is hardware-dependent (see
  // EXPERIMENTS.md).
  if (executor / baseline < 10.0) {
    std::printf("WARNING: executor speedup %.2fx below the 10x target\n", executor / baseline);
  }
  return bench::finish_json(report, json_path);
}
