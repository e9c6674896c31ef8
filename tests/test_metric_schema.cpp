// The fixed counter schema (obs/metric_schema.hpp) against what the stack
// really publishes: every corpus scenario, on both MPI backends, with
// prove-and-elide off and full, run the way check_cutests runs it (one
// svc::Session per scenario, fast and slow shadow). The sessions' summed
// deltas must name nothing outside the schema but the per-kernel
// prove-elide counts, and their CUSAN_METRICS export must list exactly the
// keys the string-keyed registry listed before the schema.

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cusan/runtime.hpp"
#include "mpisim/world.hpp"
#include "obs/jsonlint.hpp"
#include "obs/metrics.hpp"
#include "svc/session.hpp"
#include "testsuite/scenarios.hpp"

namespace {

using mpisim::Backend;

struct CorpusRun {
  obs::MetricsSnapshot summed;               ///< every session's deltas, summed
  std::set<std::string> proc_names_listed;   ///< mpisim.proc.* names any session listed
};

CorpusRun run_corpus(Backend backend, cusan::ProveElide prove_elide) {
  const mpisim::ScopedBackend scoped(backend);
  CorpusRun run;
  for (const testsuite::Scenario& scenario : testsuite::build_scenarios()) {
    svc::SessionSpec spec;
    spec.label = scenario.name;
    spec.body = [&scenario, prove_elide] {
      for (const bool fast : {true, false}) {
        (void)testsuite::run_scenario_outcome(scenario, fast, std::chrono::milliseconds(0),
                                              prove_elide);
      }
    };
    svc::Session session(std::move(spec));
    const svc::SessionResult result = session.run();
    EXPECT_TRUE(result.ok) << scenario.name << ": " << result.error;
    for (const auto& [name, value] : result.metric_deltas) {
      run.summed[name] += value;
      if (name.starts_with("mpisim.proc.")) {
        run.proc_names_listed.insert(name);
      }
    }
  }
  return run;
}

/// The keys of a metrics JSON export.
std::set<std::string> json_keys(const obs::MetricsSnapshot& snapshot) {
  obs::jsonlint::Value root;
  std::string error;
  EXPECT_TRUE(obs::jsonlint::parse(obs::MetricsRegistry::to_json(snapshot), &root, &error))
      << error;
  std::set<std::string> keys;
  for (const auto& [key, value] : root.object) {
    keys.insert(key);
  }
  return keys;
}

/// The CUSAN_METRICS key set of check_cutests over the corpus as the
/// string-keyed registry produced it (identical at 2 and 8 ranks), less
/// `process.rss_bytes`/`process.rss_peak_bytes`: a session registry carries
/// no RSS provider, since its clamped RSS deltas summed over sessions never
/// read as the process's resident set.
std::set<std::string> expected_keys(Backend backend, cusan::ProveElide prove_elide) {
  std::set<std::string> keys = {
      "cusan.event_records",          "cusan.events_created",
      "cusan.hb_after",               "cusan.hb_before",
      "cusan.kernel_annotation_calls", "cusan.kernel_launches",
      "cusan.memcpys",                "cusan.streams_created",
      "cusan.sync_calls",             "cusan.whole_range_kernel_args",
      "diag.rsan.race",               "faultsim.ledger_fired",
      "faultsim.ledger_unsurfaced",   "must.calls_intercepted",
      "must.request_fibers_created",  "rsan.cell_pages",
      "rsan.fastpath_block_hits",     "rsan.fastpath_granules_elided",
      "rsan.fiber_switches",          "rsan.hb_after",
      "rsan.hb_before",               "rsan.races_detected",
      "rsan.read_range_bytes",        "rsan.read_range_calls",
      "rsan.shadow_bytes",            "rsan.write_range_bytes",
      "rsan.write_range_calls"};
  if (prove_elide == cusan::ProveElide::kOff) {
    keys.insert({"cusan.interval_bytes_annotated", "cusan.interval_bytes_elided",
                 "cusan.interval_kernel_args"});
  } else {
    keys.insert({"cusan.proof_elided_args", "cusan.proof_elided_bytes",
                 "cusan.proof_elided_launches", "cusan.prove_elide.suite_head_reader.launches",
                 "cusan.prove_elide.suite_head_writer.launches",
                 "cusan.prove_elide.suite_tail_reader.launches",
                 "cusan.prove_elide.suite_tail_writer.launches", "rsan.proven_block_skips",
                 "rsan.proven_bytes", "rsan.proven_range_calls", "rsan.proven_scan_blocks",
                 "rsan.region_checks"});
  }
  if (backend == Backend::kThread) {
    keys.insert({"mpisim.any_source_scans", "mpisim.collective_messages",
                 "mpisim.mailbox_locks", "mpisim.wakeups_broadcast",
                 "mpisim.wakeups_delivered", "mpisim.wakeups_spurious"});
  } else {
    keys.insert({"mpisim.proc.eager_msgs", "mpisim.proc.rendezvous_msgs",
                 "mpisim.proc.ring_full_backoffs", "mpisim.proc.sends_dropped_dead"});
  }
  return keys;
}

struct Config {
  Backend backend;
  cusan::ProveElide prove_elide;
};

class MetricSchemaCorpusTest : public ::testing::TestWithParam<Config> {};

TEST_P(MetricSchemaCorpusTest, CorpusPublishesOnlySchemaNamesAndTheOldKeySet) {
  const Config config = GetParam();
  const CorpusRun run = run_corpus(config.backend, config.prove_elide);
  for (const auto& [name, value] : run.summed) {
    EXPECT_TRUE(obs::MetricId::find(name).has_value() ||
                name.starts_with("cusan.prove_elide."))
        << name << " is outside obs::kMetricSchema";
  }
  if (config.backend == Backend::kThread) {
    EXPECT_TRUE(run.proc_names_listed.empty())
        << "a thread-backend session listed " << *run.proc_names_listed.begin();
  }
  EXPECT_EQ(json_keys(run.summed), expected_keys(config.backend, config.prove_elide));
}

INSTANTIATE_TEST_SUITE_P(
    BothBackendsBothElideModes, MetricSchemaCorpusTest,
    ::testing::Values(Config{Backend::kThread, cusan::ProveElide::kOff},
                      Config{Backend::kThread, cusan::ProveElide::kFull},
                      Config{Backend::kProc, cusan::ProveElide::kOff},
                      Config{Backend::kProc, cusan::ProveElide::kFull}),
    [](const ::testing::TestParamInfo<Config>& param_info) {
      return std::string(param_info.param.backend == Backend::kThread ? "Thread" : "Proc") +
             (param_info.param.prove_elide == cusan::ProveElide::kOff ? "ElideOff" : "ElideFull");
    });

// -- the schema itself ----------------------------------------------------------

TEST(MetricSchemaTest, RuntimeLookupAgreesWithCompileTimeIds) {
  for (std::size_t i = 0; i < obs::kMetricCount; ++i) {
    const std::optional<obs::MetricId> id = obs::MetricId::find(obs::kMetricSchema[i]);
    ASSERT_TRUE(id.has_value()) << obs::kMetricSchema[i];
    EXPECT_EQ(id->index(), i);
  }
  constexpr obs::MetricId races = "rsan.races_detected";
  EXPECT_EQ(obs::kMetricSchema[races.index()], "rsan.races_detected");
  EXPECT_FALSE(obs::MetricId::find("rsan.no_such_counter").has_value());
  EXPECT_FALSE(obs::MetricId::find("").has_value());
}

TEST(MetricSchemaTest, SlotsShowOnceNonzeroOrListed) {
  obs::MetricsRegistry registry;
  registry.slot("rsan.plain_reads").add(0);
  EXPECT_EQ(registry.snapshot().count("rsan.plain_reads"), 0u);
  registry.slot("rsan.plain_reads").add(2);
  EXPECT_EQ(registry.snapshot().at("rsan.plain_reads"), 2u);
  // A handle taken by name lists the slot at zero, like find-or-create did.
  (void)registry.counter("must.type_errors");
  EXPECT_EQ(registry.snapshot().at("must.type_errors"), 0u);
  // The same name reaches the same slot either way.
  EXPECT_EQ(&registry.counter("rsan.plain_reads"), &registry.slot("rsan.plain_reads"));
  // Names outside the schema get overflow counters of their own.
  registry.counter("test.schema.extra").add(5);
  EXPECT_EQ(registry.snapshot().at("test.schema.extra"), 5u);
  EXPECT_EQ(registry.counts().extra.at("test.schema.extra"), 5u);
}

TEST(MetricSchemaTest, CountsAddSlotBySlotAndListOnlyNonzero) {
  obs::MetricsRegistry rank;
  rank.slot("cusan.memcpys").add(3);
  (void)rank.counter("must.type_errors");  // listed at zero in the rank registry
  rank.counter("cusan.prove_elide.k.launches").add(1);
  const obs::MetricCounts counts = rank.counts();
  EXPECT_EQ(counts["cusan.memcpys"], 3u);
  EXPECT_EQ(obs::value_of(counts, "cusan.prove_elide.k.launches"), 1u);

  obs::MetricsRegistry session;
  session.add(counts);
  session.add(counts);
  const obs::MetricsSnapshot snapshot = session.snapshot();
  EXPECT_EQ(snapshot.at("cusan.memcpys"), 6u);
  EXPECT_EQ(snapshot.at("cusan.prove_elide.k.launches"), 2u);
  EXPECT_EQ(snapshot.count("must.type_errors"), 0u);
}

TEST(MetricSchemaTest, FlatDiffKeepsTheLaterKeySet) {
  obs::MetricsRegistry registry;
  registry.slot("rsan.plain_reads").add(4);
  const obs::MetricCounts before = registry.counts();
  registry.slot("rsan.plain_reads").add(3);
  registry.add("sched.dpor_redundant", 0);
  registry.counter("test.schema.diff").add(2);
  const obs::MetricsSnapshot delta = obs::MetricsRegistry::diff(registry.counts(), before);
  EXPECT_EQ(delta, obs::MetricsRegistry::diff(registry.snapshot(), before.snapshot()));
  EXPECT_EQ(delta.at("rsan.plain_reads"), 3u);
  EXPECT_EQ(delta.at("sched.dpor_redundant"), 0u);
  EXPECT_EQ(delta.at("test.schema.diff"), 2u);
}

}  // namespace
