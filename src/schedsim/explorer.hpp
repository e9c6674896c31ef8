// The multi-run DPOR driver: turns the single-run ScheduleController into a
// systematic explorer. Each iteration installs a pinned prefix on the
// controller (configure_prefix — replay:<path> generalized, recording on),
// executes one run via a harness-supplied callback, takes the run's decision
// log from the controller, and computes source-DPOR-style backtrack points.
// One rule:
// for every branchable decision in the run that is not part of the pinned
// prefix, every alternative candidate spawns a new prefix (the run's
// decisions up to the flipped one, plus the rest of the pinned prefix, so
// each child pins strictly more than its parent) unless the prefix is
// already in the sleep set. Both decision sites pick a value (which source
// matched, which request returned), so no decision commutes with the rest of
// the run and none is skipped.
//
// Equivalence is tracked per-stream, matching replay's semantics:
// two runs whose (rank, site) streams recorded identical decisions are the
// same execution regardless of how OS timing interleaved the lines, so the
// sleep set keys on a canonical (stream-sorted) signature. The frontier is
// one FIFO queue, which makes exploration breadth-first in flip depth —
// every single-flip perturbation is tried before any two-flip prefix, so
// verdict-revealing schedules surface early even under a tight `bound:<k>`.
//
// The explorer is harness-agnostic: check_cutests, fault_sweep and tests
// supply the run callback (typically a closure over run_scenario_outcome);
// the explorer owns only the controller choreography and the frontier.
// Per-exploration counters land in obs as sched.dpor_*.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "schedsim/decision_log.hpp"

namespace schedsim {

class Controller;

struct ExplorerOptions {
  /// Maximum executed schedules, baseline included (0 = kDefaultBound).
  std::uint32_t bound{0};

  static constexpr std::uint32_t kDefaultBound = 24;
};

/// One executed schedule.
struct Execution {
  std::size_t index{0};
  std::size_t pinned{0};            ///< decisions pinned by the prefix
  DecisionLog log;                  ///< the run's decisions: its replay record
  std::size_t races{0};             ///< harness-reported race count
  bool diverged{false};             ///< pinned prefix stopped matching
  double wall_ms{0.0};
};

struct ExplorerStats {
  std::uint64_t executions{0};
  std::uint64_t backtrack_points{0};  ///< prefixes pushed onto the frontier
  std::uint64_t sleep_prunes{0};      ///< prefixes already in the sleep set
  std::uint64_t redundant{0};         ///< executions equal to a previous one
  std::uint64_t graph_nodes{0};       ///< decisions recorded over all executions
  bool bound_hit{false};
};

class Explorer {
 public:
  /// Runs one schedule end-to-end and returns the number of races the
  /// harness observed (any other verdict data stays in the closure).
  using RunFn = std::function<std::size_t()>;

  explicit Explorer(ExplorerOptions options = {});

  /// Drive the exploration: repeatedly configure `controller` with a
  /// recording prefix, invoke `run`, and grow the frontier until it is
  /// empty or the bound is hit. Leaves the controller disarmed. Each call
  /// resets stats.
  std::vector<Execution> explore(Controller& controller, const RunFn& run);

  [[nodiscard]] const ExplorerStats& stats() const { return stats_; }

  /// Publish stats() into the current obs registry as sched.dpor_*.
  void publish_metrics() const;

  /// Canonical per-stream signature of a decision sequence: sorted by
  /// (stream, seq), so physically different interleavings of the same
  /// per-stream decisions compare equal.
  [[nodiscard]] static std::string signature(const std::vector<TraceEntry>& entries);

 private:
  ExplorerOptions options_;
  ExplorerStats stats_;
};

}  // namespace schedsim
