// One checked session as an object: private metrics registry, diagnostics
// hub, fault injector and schedule controller, bound to the running thread
// (and every thread it spawns) for the duration of run(). Everything the
// stack used to publish into process globals lands in the session's members
// instead, so thousands of sessions can share one process without bleeding
// verdicts, counters or reports into each other.
//
// The session body is an opaque callable (typically a closure over
// capi::run_session / testsuite::run_scenario_outcome): the scoping is
// transparent to it — the exact same code paths resolve to the session's
// state through each subsystem's thread-routed instance().
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "faultsim/injector.hpp"
#include "obs/diagnostics.hpp"
#include "obs/metrics.hpp"
#include "schedsim/controller.hpp"

namespace svc {

/// What to run, under which fault plan and schedule. The body runs with the
/// session bound; its own closure state is the place to put outputs beyond
/// the collected SessionResult (e.g. a scenario verdict struct).
struct SessionSpec {
  std::string label;                 ///< display handle, e.g. the scenario name
  std::function<void()> body;
  std::string fault_plan;            ///< CUSAN_FAULT_PLAN grammar; empty: none
  schedsim::Config schedule;         ///< default: free (disarmed); replay reads replay_path
};

struct SessionResult {
  std::string label;
  bool ok{false};             ///< body returned without throwing
  std::string error;          ///< exception message when !ok
  std::uint64_t duration_ns{0};
  obs::MetricsSnapshot metric_deltas;
  std::vector<obs::Diagnostic> diagnostics;
  std::vector<faultsim::FiredFault> fired_faults;
  schedsim::Stats sched_stats;
  std::optional<schedsim::Divergence> sched_divergence;
};

class Session {
 public:
  explicit Session(SessionSpec spec);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Run the body with all session state bound to the calling thread.
  /// Returns the collected result; never throws (body exceptions are
  /// captured into result.error).
  SessionResult run();

  [[nodiscard]] const SessionSpec& spec() const { return spec_; }

 private:
  SessionSpec spec_;
  obs::MetricsRegistry metrics_;
  obs::DiagnosticHub hub_;
  faultsim::Injector injector_;
  schedsim::Controller controller_;
};

}  // namespace svc
