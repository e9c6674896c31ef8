// The artifact's `make check-cutests` analog: runs the §VI-C correctness
// test suite and prints llvm-lit style output, e.g.
//
//   PASS: CuSanTest :: cuda_to_mpi/device__default_stream__no_sync__racy (1 of 56) [tracked 81.9 KiB] [fastpath 12 hits / 2048 granules] [elided 0 launches / 0.0 KiB]
//
// Each line reports the scenario's tracked-byte volume (rsan read_range +
// write_range bytes over both ranks) — the metric the interval-precision
// scenarios shrink — and the shadow fast-path hit counters. Every scenario is
// run twice, with the shadow fast path enabled and disabled; any divergence
// in the race verdict between the two modes is a failure in itself (the fast
// path must be detection-invisible). Exit code 0 iff every scenario is
// classified correctly (racy programs produce at least one report, correct
// programs produce none) in both modes.
//
// Fault-plan aware: with CUSAN_FAULT_PLAN set, scenarios whose runs had a
// fault fire are tagged FAULT and exempt from classification/divergence
// checks (injected failures legitimately change verdicts) — but every fired
// fault must still be surfaced through some channel, and no run may crash or
// hang (pair with CUSAN_MPI_WATCHDOG_MS). This is the CI resilience leg.
//
// Schedule-exploration aware: with --schedules dpor[;bound:<k>] each
// scenario is explored systematically after its baseline runs — a
// schedsim::Explorer drives source-DPOR prefix pinning over the controller,
// executing only schedules that differ under the recorded happens-before
// graph — and every executed schedule's verdict is classified against the
// free-schedule baseline:
//
//   identical      same race/no-race verdict — the expected outcome, since
//                  verdicts must not depend on the explored interleaving
//   new-true-race  a known-racy scenario whose race the default schedule
//                  missed but this execution exposed (a detection win)
//   divergence-bug a false positive in a race-free scenario or a lost race —
//                  schedule-dependent verdicts; counted as failures
//
// Non-identical executions can save their execution graph as a
// deterministic reproducer (--schedule-dir=DIR writes one .graph file per
// such execution; each replays with CUSAN_SCHEDULE=replay:FILE, zero
// divergence, and lints with trace_lint --graph). Fault plans compose: an
// execution with a fired fault is tagged `fault` and exempt from
// classification, exactly like the baseline.
//
// With --json[=PATH] the same run is reported as one machine-readable JSON
// document (per-scenario verdicts, a summary block and the sessions' summed
// metric deltas), written to PATH or stdout.
//
// Every scenario runs as one svc::Session (private metrics registry,
// diagnostics hub, fault injector and schedule controller) on an executor
// with --jobs=N workers (default 1). Records print in scenario order as their
// sessions complete; records, summary and exit code do not depend on N.
// CUSAN_FAULT_PLAN and CUSAN_SCHEDULE are parsed once here and handed to
// every session, so a plan counts its matches per scenario and a faulted
// scenario reproduces when run alone by filter. The totals and the
// CUSAN_METRICS export are the sums of the sessions' ledgers and metric
// deltas; CUSAN_TRACE exports the process timeline of all sessions.
//
// Usage: check_cutests [--json[=PATH]] [--schedules=dpor[;bound:K]]
//                      [--schedule-dir=DIR] [--jobs=N] [filter-substring]
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "faultsim/injector.hpp"
#include "faultsim/plan.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "schedsim/controller.hpp"
#include "schedsim/explorer.hpp"
#include "svc/executor.hpp"
#include "testsuite/fault_sweep.hpp"
#include "testsuite/scenarios.hpp"

namespace {

/// One DPOR-explored execution of a scenario.
struct ScheduleRun {
  std::uint64_t execution{0};    ///< index in exploration order
  std::size_t races{0};
  std::uint64_t decisions{0};    ///< choice points answered by the controller
  std::uint64_t pinned{0};       ///< decisions pinned by the prefix
  double wall_ms{0.0};           ///< wall time of this schedule's run
  const char* cls{"identical"};  ///< identical | new-true-race | divergence-bug | fault
  std::string reproducer_path;   ///< saved reproducer (--schedule-dir), if any
};

struct ScenarioRecord {
  const testsuite::Scenario* scenario{nullptr};
  testsuite::ScenarioOutcome fast{};
  testsuite::ScenarioOutcome slow{};
  std::size_t faults_fired{0};
  /// Run classification when faults fired: "perturbed" for surviving
  /// injections, or the containment outcome with the signal spelled out
  /// ("rank-killed (rank 1, SIGKILL)", "rank-hang (...)").
  std::string fault_outcome;
  bool diverged{false};
  bool ok{true};
  std::vector<ScheduleRun> schedule_runs;
  std::size_t schedule_bugs{0};
  std::size_t schedule_new_races{0};
  /// DPOR exploration stats for this scenario (--schedules dpor).
  schedsim::ExplorerStats explorer_stats{};
};

/// What one scenario run needs to know beyond the scenario itself.
struct RunConfig {
  bool dpor{false};
  std::uint32_t dpor_bound{0};  ///< 0 = explorer default
  std::string schedule_dir;
};

/// Parse the --schedules value: `dpor[;bound:<k>]` (the CUSAN_SCHEDULE
/// grammar restricted to the dpor mode).
[[nodiscard]] bool parse_schedules_arg(const char* value, RunConfig* config) {
  schedsim::Config sched;
  std::string error;
  if (!schedsim::parse_schedule(value, &sched, &error) || sched.mode != schedsim::Mode::kDpor) {
    std::fprintf(stderr, "--schedules: %s\n",
                 error.empty() ? "expected dpor[;bound:<k>]" : error.c_str());
    return false;
  }
  config->dpor = true;
  config->dpor_bound = sched.bound;
  return true;
}

/// Classify one explored execution's verdict against the free-schedule
/// baseline.
[[nodiscard]] const char* classify_schedule_run(const testsuite::Scenario& scenario,
                                                std::size_t baseline_races, std::size_t races) {
  const bool baseline_racy = baseline_races > 0;
  const bool racy = races > 0;
  if (baseline_racy == racy) {
    return "identical";
  }
  if (racy && scenario.expect_race) {
    return "new-true-race";
  }
  return "divergence-bug";
}

/// File-system safe scenario name for reproducer graph paths.
[[nodiscard]] std::string sanitize_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '/' || c == ' ' || c == ':') {
      c = '_';
    }
  }
  return out;
}

/// Run one scenario — fast/slow passes, fault accounting, optional DPOR
/// exploration — as the body of its svc::Session, against the session's
/// injector and controller. No printing here: main prints in scenario order
/// from the returned record.
[[nodiscard]] ScenarioRecord run_scenario_record(const testsuite::Scenario& scenario,
                                                 const RunConfig& config) {
  auto& injector = faultsim::Injector::instance();
  auto& controller = schedsim::Controller::instance();
  ScenarioRecord record;
  record.scenario = &scenario;
  const std::size_t fired_before = injector.fired_count();
  record.fast = testsuite::run_scenario_outcome(scenario, /*use_shadow_fast_path=*/true);
  record.slow = testsuite::run_scenario_outcome(scenario, /*use_shadow_fast_path=*/false);
  record.faults_fired = injector.fired_count() - fired_before;
  if (record.faults_fired > 0) {
    // Faults fired into this scenario: the verdict may legitimately differ
    // from the fault-free expectation. Surfacing is checked at the end.
    // Classify how the run ended — "perturbed" (all ranks survived) vs a
    // contained rank death, named by its signal.
    const auto& fired_log = injector.fired_log();
    record.fault_outcome = testsuite::classify_run(std::vector<faultsim::FiredFault>(
        fired_log.begin() + static_cast<std::ptrdiff_t>(fired_before), fired_log.end()));
    return record;
  }
  record.diverged = record.fast.races != record.slow.races;
  record.ok = !record.diverged && testsuite::classified_correctly(scenario, record.fast.races);
  if (!config.dpor) {
    return record;
  }
  // Systematic exploration: the explorer owns the controller for the
  // scenario, installing one pinned prefix per executed schedule, and leaves
  // it disarmed.
  schedsim::ExplorerOptions options;
  options.bound = config.dpor_bound;
  schedsim::Explorer explorer(options);
  std::vector<std::uint64_t> fired_per_execution;
  const auto executions = explorer.explore(controller, [&]() -> std::size_t {
    const std::uint64_t before = injector.fired_count();
    const testsuite::ScenarioOutcome outcome =
        testsuite::run_scenario_outcome(scenario, /*use_shadow_fast_path=*/true);
    fired_per_execution.push_back(injector.fired_count() - before);
    return outcome.races;
  });
  explorer.publish_metrics();
  record.explorer_stats = explorer.stats();
  for (const schedsim::Execution& execution : executions) {
    ScheduleRun run;
    run.execution = execution.index;
    run.races = execution.races;
    run.decisions = execution.trace.size();
    run.pinned = execution.pinned;
    run.wall_ms = execution.wall_ms;
    if (fired_per_execution[execution.index] != 0) {
      run.cls = "fault";  // injected failures legitimately change verdicts
    } else {
      run.cls = classify_schedule_run(scenario, record.fast.races, execution.races);
    }
    if (std::strcmp(run.cls, "divergence-bug") == 0) {
      ++record.schedule_bugs;
    } else if (std::strcmp(run.cls, "new-true-race") == 0) {
      ++record.schedule_new_races;
    }
    if (std::strcmp(run.cls, "identical") != 0 && std::strcmp(run.cls, "fault") != 0 &&
        !config.schedule_dir.empty()) {
      // Save the execution graph: CUSAN_SCHEDULE=replay:FILE reproduces it.
      const std::string path = config.schedule_dir + "/" + sanitize_name(scenario.name) +
                               ".dpor" + std::to_string(execution.index) + ".graph";
      std::string error;
      if (!obs::write_file(path, schedsim::serialize_graph(execution.graph), &error)) {
        std::fprintf(stderr, "--schedule-dir: %s\n", error.c_str());
      } else {
        run.reproducer_path = path;
      }
    }
    record.schedule_runs.push_back(run);
  }
  if (record.schedule_bugs > 0) {
    record.ok = false;
  }
  return record;
}

/// The llvm-lit style per-scenario lines (non-JSON mode).
void print_record(const ScenarioRecord& record, std::size_t index, std::size_t total) {
  const testsuite::Scenario& scenario = *record.scenario;
  if (record.faults_fired > 0) {
    std::printf("FAULT: CuSanTest :: %s (%zu of %zu) [%zu fault(s) fired: %s]\n",
                scenario.name.c_str(), index, total, record.faults_fired,
                record.fault_outcome.c_str());
    return;
  }
  const char* detail = "";
  if (record.diverged) {
    detail = "  [fast/slow shadow divergence]";
  } else if (record.schedule_bugs > 0) {
    detail = "  [schedule-dependent verdict]";
  } else if (!record.ok) {
    detail = scenario.expect_race ? "  [expected a race, none reported]"
                                  : "  [false positive report]";
  }
  std::string sched_note;
  if (!record.schedule_runs.empty()) {
    sched_note = " [dpor " + std::to_string(record.schedule_runs.size()) + " execution(s): ";
    if (record.schedule_bugs == 0 && record.schedule_new_races == 0) {
      sched_note += "identical";
    } else {
      sched_note += std::to_string(record.schedule_bugs) + " bug(s), " +
                    std::to_string(record.schedule_new_races) + " new race(s)";
    }
    sched_note += record.explorer_stats.bound_hit ? "; bound hit" : "; frontier drained";
    sched_note += ", " + std::to_string(record.explorer_stats.hb_prunes) + " hb-pruned]";
  }
  std::printf(
      "%s: CuSanTest :: %s (%zu of %zu) [tracked %.1f KiB] [fastpath %llu hits / %llu "
      "granules] [elided %llu launches / %.1f KiB]%s%s\n",
      record.ok ? "PASS" : "FAIL", scenario.name.c_str(), index, total,
      static_cast<double>(record.fast.tracked_bytes) / 1024.0,
      static_cast<unsigned long long>(record.fast.fastpath_hits),
      static_cast<unsigned long long>(record.fast.fastpath_granules_elided),
      static_cast<unsigned long long>(record.fast.elided_launches),
      static_cast<double>(record.fast.elided_bytes) / 1024.0, sched_note.c_str(), detail);
  for (const ScheduleRun& run : record.schedule_runs) {
    if (!run.reproducer_path.empty()) {
      std::printf("  reproducer: %s\n", run.reproducer_path.c_str());
    }
  }
  if (record.diverged) {
    std::printf("  fast path: %zu race(s); reference path: %zu race(s)\n", record.fast.races,
                record.slow.races);
  }
}

[[nodiscard]] const char* verdict(const ScenarioRecord& r) {
  if (r.faults_fired > 0) {
    return "fault";
  }
  return r.ok ? "pass" : "fail";
}

[[nodiscard]] std::string append_fixed(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  return buf;
}

[[nodiscard]] std::string to_json(const std::vector<ScenarioRecord>& records,
                                  const obs::MetricsSnapshot& metrics_delta, int world_ranks,
                                  std::size_t failures, std::size_t divergences,
                                  std::size_t faulted, std::size_t unsurfaced,
                                  const RunConfig& config, std::size_t schedule_bugs,
                                  std::size_t schedule_new_races) {
  std::string out = "{\n  \"world_ranks\": " + std::to_string(world_ranks) +
                    ",\n  \"schedule_mode\": \"" + (config.dpor ? "dpor" : "off") + "\"" +
                    ",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ScenarioRecord& r = records[i];
    out += "    {\"name\": \"" + obs::escape_json(r.scenario->name);
    out += "\", \"verdict\": \"";
    out += verdict(r);
    out += "\", \"expect_race\": ";
    out += r.scenario->expect_race ? "true" : "false";
    out += ", \"races\": " + std::to_string(r.fast.races);
    out += ", \"races_reference\": " + std::to_string(r.slow.races);
    out += ", \"tracked_bytes\": " + std::to_string(r.fast.tracked_bytes);
    out += ", \"fastpath_hits\": " + std::to_string(r.fast.fastpath_hits);
    out += ", \"fastpath_granules_elided\": " + std::to_string(r.fast.fastpath_granules_elided);
    out += ", \"elided_launches\": " + std::to_string(r.fast.elided_launches);
    out += ", \"elided_bytes\": " + std::to_string(r.fast.elided_bytes);
    out += ", \"faults_fired\": " + std::to_string(r.faults_fired);
    if (!r.fault_outcome.empty()) {
      out += ", \"fault_outcome\": \"";
      out += obs::escape_json(r.fault_outcome);
      out += "\"";
    }
    if (!r.schedule_runs.empty()) {
      out += ", \"schedule_executions\": " + std::to_string(r.schedule_runs.size());
      out += ", \"schedule_runs\": [";
      for (std::size_t s = 0; s < r.schedule_runs.size(); ++s) {
        const ScheduleRun& run = r.schedule_runs[s];
        out += "{\"execution\": " + std::to_string(run.execution);
        out += ", \"races\": " + std::to_string(run.races);
        out += ", \"decisions\": " + std::to_string(run.decisions);
        out += ", \"pinned\": " + std::to_string(run.pinned);
        out += ", \"wall_ms\": " + append_fixed(run.wall_ms);
        out += ", \"class\": \"";
        out += run.cls;
        out += "\"}";
        out += s + 1 < r.schedule_runs.size() ? ", " : "";
      }
      out += "]";
    }
    if (r.explorer_stats.executions > 0) {
      out += ", \"dpor\": {\"executions\": " + std::to_string(r.explorer_stats.executions);
      out += ", \"backtracks\": " + std::to_string(r.explorer_stats.backtrack_points);
      out += ", \"sleep_prunes\": " + std::to_string(r.explorer_stats.sleep_prunes);
      out += ", \"hb_prunes\": " + std::to_string(r.explorer_stats.hb_prunes);
      out += ", \"redundant\": " + std::to_string(r.explorer_stats.redundant);
      out += ", \"graph_nodes\": " + std::to_string(r.explorer_stats.graph_nodes);
      out += ", \"graph_edges\": " + std::to_string(r.explorer_stats.graph_edges);
      out += ", \"bound_hit\": ";
      out += r.explorer_stats.bound_hit ? "true" : "false";
      out += "}";
    }
    out += "}";
    out += i + 1 < records.size() ? ",\n" : "\n";
  }
  out += "  ],\n  \"summary\": {\"scenarios\": " + std::to_string(records.size());
  out += ", \"failed\": " + std::to_string(failures);
  out += ", \"diverged\": " + std::to_string(divergences);
  out += ", \"faulted\": " + std::to_string(faulted);
  out += ", \"faults_unsurfaced\": " + std::to_string(unsurfaced);
  std::size_t schedule_runs = 0;
  for (const auto& r : records) {
    schedule_runs += r.schedule_runs.size();
  }
  out += ", \"schedule_runs\": " + std::to_string(schedule_runs);
  out += ", \"schedule_bugs\": " + std::to_string(schedule_bugs);
  out += ", \"schedule_new_races\": " + std::to_string(schedule_new_races);
  if (config.dpor) {
    schedsim::ExplorerStats totals;
    for (const auto& r : records) {
      totals.executions += r.explorer_stats.executions;
      totals.backtrack_points += r.explorer_stats.backtrack_points;
      totals.sleep_prunes += r.explorer_stats.sleep_prunes;
      totals.hb_prunes += r.explorer_stats.hb_prunes;
      totals.redundant += r.explorer_stats.redundant;
      totals.graph_nodes += r.explorer_stats.graph_nodes;
      totals.graph_edges += r.explorer_stats.graph_edges;
    }
    out += ", \"dpor_executions\": " + std::to_string(totals.executions);
    out += ", \"dpor_backtracks\": " + std::to_string(totals.backtrack_points);
    out += ", \"dpor_sleep_prunes\": " + std::to_string(totals.sleep_prunes);
    out += ", \"dpor_hb_prunes\": " + std::to_string(totals.hb_prunes);
    out += ", \"dpor_redundant\": " + std::to_string(totals.redundant);
    out += ", \"dpor_graph_nodes\": " + std::to_string(totals.graph_nodes);
    out += ", \"dpor_graph_edges\": " + std::to_string(totals.graph_edges);
  }
  out += "},\n  \"metrics\": ";
  out += obs::MetricsRegistry::to_json(metrics_delta);
  out += "\n}\n";
  return out;
}

/// Write the CUSAN_TRACE / CUSAN_METRICS exports: the process timeline and
/// the sessions' summed metric deltas.
[[nodiscard]] bool write_exports(const obs::ExportConfig& exports,
                                 const obs::MetricsSnapshot& metrics) {
  std::string error;
  if (exports.trace_enabled && !exports.trace_path.empty() &&
      !obs::write_file(exports.trace_path, obs::export_chrome_trace(), &error)) {
    std::fprintf(stderr, "CUSAN_TRACE: %s\n", error.c_str());
    return false;
  }
  if (!exports.metrics_path.empty() &&
      !obs::write_file(exports.metrics_path, obs::MetricsRegistry::to_json(metrics), &error)) {
    std::fprintf(stderr, "CUSAN_METRICS: %s\n", error.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string json_path;
  RunConfig config;
  int jobs = 1;
  const char* filter = nullptr;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--json") == 0) {
      json = true;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      json = true;
      json_path = arg + 7;
    } else if (std::strncmp(arg, "--schedules=", 12) == 0) {
      if (!parse_schedules_arg(arg + 12, &config)) {
        return 2;
      }
    } else if (std::strcmp(arg, "--schedules") == 0 && i + 1 < argc) {
      if (!parse_schedules_arg(argv[++i], &config)) {
        return 2;
      }
    } else if (std::strncmp(arg, "--schedule-dir=", 15) == 0) {
      config.schedule_dir = arg + 15;
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      jobs = std::atoi(arg + 7);
    } else if (std::strcmp(arg, "--jobs") == 0 && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else {
      filter = arg;
    }
  }
  if (jobs < 1) {
    std::fprintf(stderr, "--jobs must be >= 1\n");
    return 2;
  }

  // The environment is read once, here, and handed to every session.
  const char* env_plan = std::getenv("CUSAN_FAULT_PLAN");
  const std::string plan_text = env_plan != nullptr ? env_plan : "";
  faultsim::FaultPlan plan;
  if (const auto parsed = faultsim::FaultPlan::parse(plan_text, plan); !parsed.ok) {
    std::fprintf(stderr, "CUSAN_FAULT_PLAN: %s\n", parsed.error.c_str());
    return 2;
  }
  // --schedules dpor leaves each session's schedule free: the explorer owns
  // the controller and configures it per executed schedule.
  schedsim::Config schedule;
  if (const char* env = std::getenv("CUSAN_SCHEDULE");
      env != nullptr && *env != '\0' && !config.dpor) {
    std::string error;
    if (!schedsim::parse_schedule(env, &schedule, &error)) {
      std::fprintf(stderr, "CUSAN_SCHEDULE: %s\n", error.c_str());
      return 2;
    }
  }
  std::string obs_error;
  const obs::ExportConfig exports = obs::export_config_from_env(&obs_error);
  if (!obs_error.empty()) {
    std::fprintf(stderr, "%s\n", obs_error.c_str());
    return 2;
  }
  if (exports.trace_enabled) {
    obs::set_tracing_enabled(true);
  }

  // Scenarios run pairwise on every rank pair of the world (CUSAN_RANKS).
  const int world_ranks = capi::default_ranks();
  if (!json) {
    if (!plan.empty()) {
      std::printf("-- fault plan: %s\n", plan.to_string().c_str());
    }
    std::printf("-- world: %d ranks\n", world_ranks);
    if (config.dpor) {
      std::printf("-- schedules: dpor exploration (bound %u per scenario)\n",
                  config.dpor_bound != 0 ? config.dpor_bound
                                         : schedsim::ExplorerOptions::kDefaultBound);
    }
    std::printf("-- jobs: %d session worker(s)\n", jobs);
  }

  const auto scenarios = testsuite::build_scenarios();

  std::vector<const testsuite::Scenario*> selected;
  for (const auto& scenario : scenarios) {
    if (filter == nullptr || scenario.name.find(filter) != std::string::npos) {
      selected.push_back(&scenario);
    }
  }
  if (selected.empty()) {
    std::fprintf(stderr, "no scenario matches filter '%s'\n", filter != nullptr ? filter : "");
    return 2;
  }

  // One svc::Session per scenario, each body writing only its own record.
  // Declared after everything the bodies reference: the executor's
  // destructor drains the queue before those go away.
  std::vector<ScenarioRecord> records(selected.size());
  svc::Executor executor(svc::ExecutorOptions{.workers = jobs});
  std::vector<svc::SessionHandlePtr> handles;
  handles.reserve(selected.size());
  for (std::size_t i = 0; i < selected.size(); ++i) {
    svc::SessionSpec spec;
    spec.label = selected[i]->name;
    spec.fault_plan = plan_text;
    spec.schedule = schedule;
    spec.body = [&records, &selected, &config, i] {
      records[i] = run_scenario_record(*selected[i], config);
    };
    handles.push_back(executor.submit(std::move(spec)));
  }

  std::size_t failures = 0;
  std::size_t divergences = 0;
  std::size_t faulted = 0;
  std::size_t schedule_bugs = 0;
  std::size_t schedule_new_races = 0;
  std::uint64_t total_tracked = 0;
  std::uint64_t total_hits = 0;
  std::uint64_t total_elided_launches = 0;
  std::uint64_t total_elided_bytes = 0;
  std::uint64_t fired_total = 0;
  std::vector<std::string> unsurfaced_lines;
  obs::MetricsSnapshot metrics;
  for (std::size_t i = 0; i < records.size(); ++i) {
    handles[i]->wait();
    const svc::SessionResult& result = handles[i]->result();
    if (!result.ok) {
      std::fprintf(stderr, "session %s failed: %s\n", result.label.c_str(),
                   result.error.c_str());
      return 2;
    }
    for (const auto& [key, value] : result.metric_deltas) {
      metrics[key] += value;
    }
    fired_total += result.fired_faults.size();
    for (const faultsim::FiredFault& f : result.fired_faults) {
      if (f.surfaced == faultsim::Channel::kNone) {
        unsurfaced_lines.push_back("  UNSURFACED: fault #" + std::to_string(f.id) + " " +
                                   to_string(f.action) + " at " + to_string(f.site) + " in " +
                                   result.label);
      }
    }
    const ScenarioRecord& record = records[i];
    if (!json) {
      print_record(record, i + 1, records.size());
    }
    total_tracked += record.fast.tracked_bytes;
    total_hits += record.fast.fastpath_hits;
    total_elided_launches += record.fast.elided_launches;
    total_elided_bytes += record.fast.elided_bytes;
    if (record.faults_fired > 0) {
      ++faulted;
    } else if (!record.ok) {
      ++failures;
    }
    if (record.diverged) {
      ++divergences;
    }
    schedule_bugs += record.schedule_bugs;
    schedule_new_races += record.schedule_new_races;
  }
  const std::size_t unsurfaced = unsurfaced_lines.size();

  if (json) {
    const std::string doc =
        to_json(records, metrics, world_ranks, failures, divergences, faulted, unsurfaced,
                config, schedule_bugs, schedule_new_races);
    if (json_path.empty()) {
      std::fputs(doc.c_str(), stdout);
    } else {
      std::string error;
      if (!obs::write_file(json_path, doc, &error)) {
        std::fprintf(stderr, "--json: %s\n", error.c_str());
        return 2;
      }
    }
  } else {
    std::printf(
        "\nTesting Time: done\n  Passed: %zu\n  Failed: %zu\n  Diverged: %zu\n  Tracked: %.1f "
        "KiB\n  Fast-path hits: %llu\n  Elided launches: %llu\n  Elided bytes: %.1f KiB\n",
        selected.size() - failures - faulted, failures, divergences,
        static_cast<double>(total_tracked) / 1024.0, static_cast<unsigned long long>(total_hits),
        static_cast<unsigned long long>(total_elided_launches),
        static_cast<double>(total_elided_bytes) / 1024.0);
    if (config.dpor) {
      std::size_t executed = 0;
      schedsim::ExplorerStats totals;
      std::size_t bounded = 0;
      for (const ScenarioRecord& record : records) {
        executed += record.schedule_runs.size();
        totals.backtrack_points += record.explorer_stats.backtrack_points;
        totals.sleep_prunes += record.explorer_stats.sleep_prunes;
        totals.hb_prunes += record.explorer_stats.hb_prunes;
        totals.graph_nodes += record.explorer_stats.graph_nodes;
        totals.graph_edges += record.explorer_stats.graph_edges;
        bounded += record.explorer_stats.bound_hit ? 1 : 0;
      }
      std::printf("  Schedule runs: %zu\n  Schedule bugs: %zu\n  New races found: %zu\n",
                  executed, schedule_bugs, schedule_new_races);
      std::printf("  DPOR: %llu backtrack(s), %llu sleep-prune(s), %llu hb-prune(s), "
                  "graph %llu nodes / %llu edges, %zu scenario(s) hit the bound\n",
                  static_cast<unsigned long long>(totals.backtrack_points),
                  static_cast<unsigned long long>(totals.sleep_prunes),
                  static_cast<unsigned long long>(totals.hb_prunes),
                  static_cast<unsigned long long>(totals.graph_nodes),
                  static_cast<unsigned long long>(totals.graph_edges), bounded);
    }
    if (!plan.empty()) {
      std::printf("  Faulted: %zu\n  Faults fired: %llu\n  Faults unsurfaced: %zu\n", faulted,
                  static_cast<unsigned long long>(fired_total), unsurfaced);
      for (const std::string& line : unsurfaced_lines) {
        std::printf("%s\n", line.c_str());
      }
    }
  }
  if (!write_exports(exports, metrics)) {
    return 2;
  }
  return failures == 0 && unsurfaced == 0 ? 0 : 1;
}
