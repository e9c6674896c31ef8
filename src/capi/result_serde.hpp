// Serialization of a rank's session output for the proc backend: the child
// process packs its RankResult plus everything else that would otherwise be
// lost with its address space — obs metric deltas accumulated since fork,
// diagnostics it emitted, the obs ring events it emitted, its slice of the
// schedule-controller state and the faults it fired —
// into one blob published through mpisim::publish_result; the parent decodes
// and merges after World::run. Parent and child are the same forked binary,
// so fixed-layout structs travel as raw bytes (size-checked); variable parts
// are length-prefixed.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "capi/context.hpp"
#include "faultsim/injector.hpp"
#include "obs/diagnostics.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "schedsim/controller.hpp"

namespace capi::serde {

/// Everything a proc-backend rank ships back to the supervisor's process.
struct RankPayload {
  RankResult result;
  /// Per-metric increase in the child since fork (counters only move up
  /// within a rank; gauge-style entries ship their child-side value).
  obs::MetricsSnapshot metric_deltas;
  /// Diagnostics emitted in the child (re-emitted parent-side without
  /// re-bumping `diag.<id>` — the deltas above already carry those).
  std::vector<obs::Diagnostic> diagnostics;
  /// Event-ring entries the child emitted since the fork (CUSAN_TRACE),
  /// re-emitted parent-side so the exported timeline covers every rank.
  std::vector<obs::Event> events;
  /// Schedule slice: the decisions this rank's controller recorded (the
  /// session restarted its log before the fork), its controller stats, and
  /// its latched divergence, if any.
  std::vector<schedsim::TraceEntry> sched_decisions;
  schedsim::Stats sched_stats{};
  std::optional<schedsim::Divergence> sched_divergence;
  /// Fault-ledger entries the child fired since the fork, each with the
  /// channel it surfaced through (ids are not shipped: the parent's
  /// Injector::import_fired numbers them into its own sequence).
  std::vector<faultsim::FiredFault> fired_faults;
};

[[nodiscard]] std::vector<std::byte> encode(const RankPayload& payload);

/// False on a truncated/mismatched blob (`out` may be partially filled).
[[nodiscard]] bool decode(std::span<const std::byte> bytes, RankPayload* out);

}  // namespace capi::serde
