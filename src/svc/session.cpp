#include "svc/session.hpp"

#include <exception>
#include <utility>

#include "common/clock.hpp"
#include "common/thread_context.hpp"
#include "faultsim/plan.hpp"

namespace svc {

Session::Session(SessionSpec spec) : spec_(std::move(spec)) {
  // The injector's ledger provider reports *this* session's fired/unsurfaced
  // counts. Process RSS stays on the global registry alone: a session's
  // share of one process's resident set is not a counter.
  injector_.register_ledger_provider(metrics_);
}

SessionResult Session::run() {
  SessionResult result;
  result.label = spec_.label;

  // Bind the session to this thread; worlds and stream workers spawned
  // below copy the binding (common/thread_context.hpp).
  const common::ThreadContext::Scope binding({.metrics = &metrics_,
                                              .hub = &hub_,
                                              .injector = &injector_,
                                              .controller = &controller_});

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
  if (std::string error; !controller_.load(spec_.schedule, &error)) {
    result.error = "schedule: " + error;
    return result;
  }

  const obs::MetricCounts baseline = metrics_.counts();
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

  // The one name-keyed map of the session: built here, from two flat values.
  result.metric_deltas = obs::MetricsRegistry::diff(metrics_.counts(), baseline);
  result.diagnostics = hub_.retained();
  result.fired_faults = injector_.fired_log();
  result.sched_stats = controller_.stats();
  result.sched_divergence = controller_.divergence();
  return result;
}

}  // namespace svc
