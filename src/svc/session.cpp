#include "svc/session.hpp"

#include <exception>
#include <utility>

#include "common/clock.hpp"
#include "faultsim/plan.hpp"

namespace svc {

Session::Session(SessionSpec spec) : spec_(std::move(spec)) {
  // The session registry mirrors the global one's riders: the injector's
  // ledger provider reports *this* session's fired/unsurfaced counts.
  injector_.register_ledger_provider(metrics_);
}

SessionResult Session::run() {
  SessionResult result;
  result.label = spec_.label;

  // Bind every session-scoped subsystem to this thread; worlds and stream
  // workers spawned below inherit the bindings via common::ThreadContext.
  const obs::MetricsRegistry::Scope metrics_scope(&metrics_);
  const obs::DiagnosticHub::Scope hub_scope(&hub_);
  const faultsim::Injector::Scope injector_scope(&injector_);
  const schedsim::Controller::Scope controller_scope(&controller_);
  const schedsim::GraphRecorder::Scope recorder_scope(&recorder_);

  if (!spec_.fault_plan.empty()) {
    faultsim::FaultPlan plan;
    const faultsim::FaultPlan::ParseResult parsed =
        faultsim::FaultPlan::parse(spec_.fault_plan, plan);
    if (!parsed.ok) {
      result.error = "fault plan: " + parsed.error;
      return result;
    }
    injector_.load(std::move(plan));
  }
  controller_.configure(spec_.schedule);

  const obs::MetricsSnapshot baseline = metrics_.snapshot();
  const std::uint64_t start_ns = common::now_ns();
  try {
    spec_.body();
    result.ok = true;
  } catch (const std::exception& e) {
    result.error = e.what();
  } catch (...) {
    result.error = "unknown exception";
  }
  result.duration_ns = common::now_ns() - start_ns;

  result.metric_deltas = obs::MetricsRegistry::diff(metrics_.snapshot(), baseline);
  result.diagnostics = hub_.retained();
  result.fired_faults = injector_.fired_log();
  result.sched_stats = controller_.stats();
  result.sched_divergence = controller_.divergence();
  if (controller_.config().record || controller_.config().mode != schedsim::Mode::kFree) {
    result.sched_trace = controller_.trace_text();
  }

  // Observed resident footprint: the shadow bytes the session pinned — the
  // executor's admission EMA feeds on this.
  if (const auto it = result.metric_deltas.find("rsan.shadow_bytes");
      it != result.metric_deltas.end()) {
    result.peak_session_bytes = it->second;
  }
  return result;
}

}  // namespace svc
