// Session driver: the equivalent of `mpirun -np N <flavored binary>` in the
// paper's harness. Spawns N ranks, builds each rank's tool stack, binds it
// to the rank thread, runs the application body and collects per-rank tool
// results.
#pragma once

#include <functional>
#include <string_view>
#include <vector>

#include "capi/context.hpp"
#include "capi/tool_config.hpp"
#include "cusim/profile.hpp"
#include "mpisim/world.hpp"

namespace capi {

struct SessionConfig {
  int ranks = 2;
  /// Simulated GPUs per rank (cudaSetDevice switches between them).
  int devices_per_rank = 1;
  ToolConfig tools{};
  cusim::DeviceProfile device_profile{};
  /// Shared type database (struct layouts registered up front). nullptr:
  /// each rank uses a builtin-only database.
  const typeart::TypeDB* typedb = nullptr;
  /// MPI progress-watchdog timeout for this session. Zero keeps the world's
  /// default (CUSAN_MPI_WATCHDOG_MS, or 1s); negative disables the watchdog.
  std::chrono::milliseconds watchdog_timeout{0};
};

/// What an application's per-rank body receives.
struct RankEnv {
  mpisim::Comm comm;
  ToolContext& tools;

  [[nodiscard]] int rank() const { return comm.rank(); }
  [[nodiscard]] int size() const { return comm.size(); }
};

using RankMain = std::function<void(RankEnv&)>;

/// World size for harness-driven sessions: the CUSAN_RANKS environment
/// variable (clamped to [2, 64]), or 2 when unset/invalid. Lets the whole
/// testsuite / fault sweep scale to wider worlds (CI runs it at 8) without
/// touching every call site.
[[nodiscard]] int default_ranks();

/// Run `rank_main` on every rank under the configured tool flavor and return
/// each rank's tool results (index == rank).
[[nodiscard]] std::vector<RankResult> run_session(const SessionConfig& config,
                                                  const RankMain& rank_main);

/// Convenience for the common "flavor + ranks" case.
[[nodiscard]] std::vector<RankResult> run_flavored(Flavor flavor, int ranks,
                                                   const RankMain& rank_main);

/// Sum of `name` over the ranks' RankResult::metrics.
[[nodiscard]] std::uint64_t sum_metric(const std::vector<RankResult>& results,
                                       std::string_view name);

/// Sum of races across ranks (the harness's pass/fail signal).
[[nodiscard]] std::size_t total_races(const std::vector<RankResult>& results);

}  // namespace capi
