#include "capi/session.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "capi/result_serde.hpp"
#include "common/parse.hpp"
#include "common/thread_context.hpp"
#include "faultsim/injector.hpp"
#include "obs/diagnostics.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/ring.hpp"
#include "schedsim/controller.hpp"

namespace capi {

namespace {

/// Process-wide observability export config, parsed from CUSAN_TRACE /
/// CUSAN_METRICS on first session start (tracing is armed at the same time).
const obs::ExportConfig& obs_config() {
  static const obs::ExportConfig config = [] {
    std::string error;
    obs::ExportConfig parsed = obs::export_config_from_env(&error);
    if (!error.empty()) {
      std::fprintf(stderr, "cusan: %s\n", error.c_str());
    }
    if (parsed.trace_enabled) {
      // The env arms tracing but never owns the flag: a harness (or test)
      // that called set_tracing_enabled(true) itself keeps its timeline.
      obs::set_tracing_enabled(true);
    }
    return parsed;
  }();
  return config;
}

/// Post-session export: the trace covers the rings as recorded by the most
/// recent session (reset at each session start), the metrics snapshot is
/// cumulative across sessions.
void export_observability(const obs::ExportConfig& config) {
  std::string error;
  if (config.trace_enabled && !config.trace_path.empty()) {
    if (!obs::write_file(config.trace_path, obs::export_chrome_trace(), &error)) {
      std::fprintf(stderr, "cusan: trace export failed: %s\n", error.c_str());
    }
  }
  if (!config.metrics_path.empty()) {
    const auto snapshot = obs::MetricsRegistry::instance().snapshot();
    if (!obs::write_file(config.metrics_path, obs::MetricsRegistry::to_json(snapshot), &error)) {
      std::fprintf(stderr, "cusan: metrics export failed: %s\n", error.c_str());
    }
  }
}

}  // namespace

std::optional<int> parse_ranks(std::string_view value) {
  std::uint64_t ranks = 0;
  if (!common::parse_uint(value, ranks)) {
    return std::nullopt;
  }
  return static_cast<int>(std::clamp<std::uint64_t>(ranks, 2, 64));
}

int default_ranks() {
  // Parsed exactly once per process (thread-safe magic static): this is on
  // the per-session hot path of sweeps and the svc executor, and re-reading
  // the environment per call would also let a mid-run setenv change world
  // sizes between scenarios. tests/test_capi.cpp pins the cached semantics.
  static const int ranks = [] {
    const char* env = std::getenv("CUSAN_RANKS");
    if (env == nullptr || *env == '\0') {
      return 2;
    }
    if (const std::optional<int> parsed = parse_ranks(env)) {
      return *parsed;
    }
    std::fprintf(stderr,
                 "cusan: invalid CUSAN_RANKS value '%s' (expected a decimal rank count); "
                 "worlds keep 2 ranks\n",
                 env);
    return 2;
  }();
  return ranks;
}

std::vector<RankResult> run_session(const SessionConfig& config, const RankMain& rank_main) {
  // Arm the fault injector from CUSAN_FAULT_PLAN once per process; sessions
  // with an explicit programmatic plan (Injector::load) are unaffected
  // because an unset/empty env keeps the current state. The env targets the
  // *global* instances explicitly: a session-scoped run (svc executor) gets
  // its plan/schedule from its svc::SessionSpec, not the process environment.
  static std::once_flag env_once;
  std::call_once(env_once, [] {
    (void)faultsim::Injector::global().load_env();
    std::string sched_error;
    if (!schedsim::Controller::global().load_env(&sched_error)) {
      std::fprintf(stderr, "cusan: %s\n", sched_error.c_str());
    }
  });
  // Session-scoped runs skip the process-level observability plumbing: the
  // event rings stay process-global (tracing under the executor is a
  // process-level timeline) and svc::Session collects metrics/diagnostics
  // itself instead of the file exports.
  const bool scoped = common::ThreadContext::current().metrics != nullptr;
  schedsim::Controller& controller = schedsim::Controller::instance();
  // The decision log restarts with the session, like the controller's
  // decision streams, so its seqs run from 0 and a forked rank's whole log
  // is what it recorded after the fork.
  controller.begin_session();
  const obs::ExportConfig* obs_cfg = nullptr;
  if (!scoped) {
    obs_cfg = &obs_config();
    if (obs_cfg->trace_enabled) {
      // Each session records a fresh timeline; with multiple sessions per
      // process (the testsuite) the exported trace is the last session's.
      obs::reset_rings();
    }
  }

  mpisim::World world(config.ranks);
  if (config.watchdog_timeout.count() > 0) {
    world.set_watchdog_timeout(config.watchdog_timeout);
  } else if (config.watchdog_timeout.count() < 0) {
    world.set_watchdog_timeout(std::chrono::milliseconds(0));
  }
  const bool proc = world.backend() == mpisim::Backend::kProc;
  std::vector<RankResult> results(static_cast<std::size_t>(config.ranks));
  world.run([&](mpisim::Comm comm) {
    // Proc backend: the rank is a forked process, so anything its tool stack
    // produces must be shipped back explicitly. Baseline the fork-inherited
    // metrics, fired faults and ring events first; what the rank added
    // travels in the result blob. The inherited diagnostics are the
    // parent's own entries: drop them, so what the rank emits is exactly
    // what the store retains (an offset into a store already at its cap
    // would never move).
    obs::MetricCounts metrics_base;
    std::size_t fired_base = 0;
    obs::RingMarks ring_base{};
    if (proc) {
      metrics_base = obs::MetricsRegistry::instance().counts();
      obs::clear_diagnostics();
      fired_base = faultsim::Injector::instance().fired_count();
      ring_base = obs::ring_marks();
    }
    ToolContext ctx(comm.rank(), config.tools, config.device_profile, config.typedb,
                    config.devices_per_rank);
    ToolContext::Binder binder(ctx);
    RankEnv env{comm, ctx};
    rank_main(env);
    if (!proc) {
      // Collect results while the context is still alive; no barrier needed
      // since each rank only writes its own slot.
      results[static_cast<std::size_t>(comm.rank())] = ctx.finalize();
      return;
    }
    serde::RankPayload payload;
    payload.result = ctx.finalize();
    payload.metric_deltas =
        obs::MetricsRegistry::diff(obs::MetricsRegistry::instance().counts(), metrics_base);
    payload.diagnostics = obs::diagnostics();
    std::vector<faultsim::FiredFault> fired = faultsim::Injector::instance().fired_log();
    if (fired.size() > fired_base) {
      payload.fired_faults.assign(fired.begin() + static_cast<std::ptrdiff_t>(fired_base),
                                  fired.end());
    }
    payload.events = obs::events_since(ring_base);
    if (schedsim::Controller::armed()) {
      payload.sched_decisions = controller.log().decisions;
      payload.sched_stats = controller.stats();
      payload.sched_divergence = controller.divergence();
    }
    mpisim::publish_result(comm, serde::encode(payload));
  });
  if (proc) {
    for (int r = 0; r < config.ranks; ++r) {
      serde::RankPayload payload;
      const std::vector<std::byte>& blob = world.rank_result(r);
      if (blob.empty() || !serde::decode(blob, &payload)) {
        // The rank died (or was poisoned out) before finalize: its tool
        // results are gone; the supervisor's failure report and the
        // survivors' MUST reports carry the verdict.
        results[static_cast<std::size_t>(r)].rank = r;
        continue;
      }
      // The child's finalize added its rank counts into these deltas; they
      // are not added again from payload.result.metrics.
      obs::MetricsRegistry::instance().add(payload.metric_deltas);
      for (obs::Diagnostic& diagnostic : payload.diagnostics) {
        obs::reemit_imported_diagnostic(std::move(diagnostic));
      }
      faultsim::Injector::instance().import_fired(payload.fired_faults);
      for (const obs::Event& event : payload.events) {
        obs::emit_event(event);
      }
      if (schedsim::Controller::armed()) {
        controller.absorb_child(payload.sched_stats, payload.sched_divergence,
                                payload.sched_decisions);
      }
      results[static_cast<std::size_t>(r)] = std::move(payload.result);
    }
  }
  if (const schedsim::Config sched = controller.config();
      sched.record && !sched.record_path.empty()) {
    // Like the Perfetto trace: the exported file is the last session's.
    std::string error;
    if (!obs::write_file(sched.record_path, schedsim::serialize_log(controller.log()), &error)) {
      std::fprintf(stderr, "cusan: decision log export failed: %s\n", error.c_str());
    }
  }
  if (!scoped) {
    export_observability(*obs_cfg);
  }
  return results;
}

std::vector<RankResult> run_flavored(Flavor flavor, int ranks, const RankMain& rank_main) {
  SessionConfig config;
  config.ranks = ranks;
  config.tools = make_tool_config(flavor);
  return run_session(config, rank_main);
}

std::uint64_t sum_metric(const std::vector<RankResult>& results, std::string_view name) {
  std::uint64_t total = 0;
  for (const auto& result : results) {
    total += obs::value_of(result.metrics, name);
  }
  return total;
}

std::size_t total_races(const std::vector<RankResult>& results) {
  return sum_metric(results, "rsan.races_detected");
}

}  // namespace capi
