// The benchmark's workloads and the workload child process that runs one.
//
// Every workload is a loop of rounds; a round runs the same inputs once
// uninstrumented (vanilla) and once under MUST & CuSan (checked), in an
// order the seed picks, and checks every output. The parent process
// (main.cpp) spawns the child, times its set-up and reads its report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace bench_e2e {

/// Workload names, in run order. BENCHMARK.json and README.md say why each
/// exists.
inline constexpr const char* kWorkloads[] = {
    "jacobi-track", "jacobi-elide", "tealeaf-calls", "suite-dpor", "svc-batch",
};

[[nodiscard]] bool is_workload(const std::string& name);

struct ChildOptions {
  std::string workload;
  std::uint64_t seed{1};
  /// Measuring budget; the child runs whole rounds until it is spent.
  double seconds{0.0};
  /// Input size factor (1 = full size; the smoke test runs at 0.02).
  double scale{1.0};
  /// Keep running rounds until at least this many checked units ran.
  std::size_t min_units{1};
  /// Skip the vanilla side of each round (per-layer runs).
  bool checked_only{false};
  /// Write the Chrome trace of the first measured round here.
  std::string trace_out;
};

/// The workload child: set up, run a discarded warmup round, report
/// readiness, measure, and write its report lines to `fd`. Returns the exit
/// code.
int run_child(const ChildOptions& options, int fd);

}  // namespace bench_e2e
