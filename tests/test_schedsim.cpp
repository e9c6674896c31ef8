// Schedule-exploration engine tests: the CUSAN_SCHEDULE grammar, the
// decision log as the replay record (its entries and the checks its
// decoder makes), the controller's strategy semantics (free / prefix /
// replay with per-(rank, site) decision streams), and the three end-to-end
// properties the engine promises:
//
//   1. Differential replay oracle — replay the logs of DPOR-flipped
//      executions over the scenario corpus and the waitany program
//      (waitany_program.hpp) and get bit-identical verdicts and diagnostics
//      with zero divergences; a tampered log is detected and reported,
//      never silently skipped.
//   2. Exploration soundness — known-racy programs report their race under
//      every DPOR-explored schedule; race-free programs stay clean across
//      the whole exploration (verdicts are schedule-independent).
//   3. A `record:` config writes each session's decision log to its path at
//      the session's end, and that file replays the run.
#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "capi/session.hpp"
#include "obs/diagnostics.hpp"
#include "schedsim/controller.hpp"
#include "schedsim/decision_log.hpp"
#include "schedsim/explorer.hpp"
#include "testsuite/scenarios.hpp"
#include "waitany_program.hpp"

namespace {

using schedsim::Config;
using schedsim::Controller;
using schedsim::DecisionLog;
using schedsim::Explorer;
using schedsim::Mode;
using schedsim::Site;
using schedsim::TraceEntry;

/// Every test leaves the process-global controller disarmed.
class SchedsimTest : public ::testing::Test {
 protected:
  void TearDown() override { Controller::instance().clear(); }
};

/// The controller's recorded decisions as replay text.
[[nodiscard]] std::string recording() {
  return schedsim::serialize_log(Controller::instance().log());
}

// ---------------------------------------------------------------- grammar --

TEST_F(SchedsimTest, ParseScheduleGrammar) {
  Config config;
  std::string error;

  EXPECT_TRUE(schedsim::parse_schedule("", &config, &error));
  EXPECT_EQ(config.mode, Mode::kFree);
  EXPECT_FALSE(config.record);
  EXPECT_TRUE(schedsim::parse_schedule("off", &config, &error));
  EXPECT_EQ(config.mode, Mode::kFree);
  EXPECT_TRUE(schedsim::parse_schedule("free", &config, &error));
  EXPECT_EQ(config.mode, Mode::kFree);

  EXPECT_TRUE(schedsim::parse_schedule("dpor;bound:8", &config, &error));
  EXPECT_EQ(config.mode, Mode::kDpor);
  EXPECT_EQ(config.bound, 8u);

  EXPECT_TRUE(schedsim::parse_schedule("free,record:/tmp/t.graph", &config, &error));
  EXPECT_TRUE(config.record);
  EXPECT_EQ(config.record_path, "/tmp/t.graph");

  EXPECT_TRUE(schedsim::parse_schedule("replay:/tmp/t.graph", &config, &error));
  EXPECT_EQ(config.mode, Mode::kReplay);
  EXPECT_EQ(config.replay_path, "/tmp/t.graph");

  EXPECT_FALSE(schedsim::parse_schedule("bogus:1", &config, &error));
  EXPECT_FALSE(schedsim::parse_schedule("dpor;free", &config, &error));
  EXPECT_FALSE(schedsim::parse_schedule("replay:", &config, &error));
  EXPECT_FALSE(schedsim::parse_schedule("record:", &config, &error));
  EXPECT_FALSE(schedsim::parse_schedule("bound:0", &config, &error));
  EXPECT_FALSE(schedsim::parse_schedule("8", &config, &error));

  // Retired clauses — the randomized strategy and its tuning knobs, and the
  // separate graph recording (record: writes the decision log) — are rejected
  // as unknown clauses, never run as a free schedule.
  for (const char* retired : {"seed:7", "pct:4", "horizon:64", "graph", "graph:/tmp/g.graph"}) {
    error.clear();
    EXPECT_FALSE(schedsim::parse_schedule(retired, &config, &error)) << retired;
    EXPECT_NE(error.find("unknown clause"), std::string::npos) << retired << ": " << error;
  }
}

TEST_F(SchedsimTest, MutatedSchedulesAreRejectedOrParseExactly) {
  // CUSAN_SCHEDULE comes from outside the program: a mangled schedule must be
  // rejected with a message or parse to a config that round-trips through
  // to_string, and a bound is read back exactly or rejected — never wrapped
  // into another bound or into 0, which means the explorer default.
  const auto parse_or_reject = [](const std::string& text) -> std::optional<Config> {
    Config config;
    std::string error;
    bool ok = false;
    EXPECT_NO_THROW(ok = schedsim::parse_schedule(text, &config, &error)) << text;
    if (!ok) {
      EXPECT_FALSE(error.empty()) << text;
      return std::nullopt;
    }
    const std::string printed = schedsim::to_string(config);
    Config reparsed;
    EXPECT_TRUE(schedsim::parse_schedule(printed, &reparsed, &error)) << text << ": " << error;
    EXPECT_EQ(schedsim::to_string(reparsed), printed) << text;
    EXPECT_TRUE(reparsed == config) << text << " -> " << printed;
    return config;
  };
  const auto schedule = [](const std::string& bound) {
    return "dpor;bound:" + bound + ";record:/tmp/g.graph";
  };

  const std::string text = schedule("24");
  const std::optional<Config> parsed = parse_or_reject(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->mode, Mode::kDpor);
  EXPECT_EQ(parsed->bound, 24u);
  EXPECT_EQ(parsed->record_path, "/tmp/g.graph");

  for (std::size_t len = 0; len < text.size(); ++len) {
    (void)parse_or_reject(text.substr(0, len));
  }

  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  const std::array<std::pair<std::string, std::optional<std::uint32_t>>, 12> numbers = {{
      {"1", 1u},
      {"007", 7u},
      {"4294967295", kMax},
      {"0", std::nullopt},
      {"4294967296", std::nullopt},  // 2^32: wrapped to 0, the explorer default
      {"8589934599", std::nullopt},  // 2^33 + 7: wrapped to 7
      {"18446744073709551615", std::nullopt},
      {"18446744073709551616", std::nullopt},  // strtoull saturated it to UINT32_MAX
      {"-1", std::nullopt},
      {"+5", std::nullopt},
      {" 7", std::nullopt},
      {"7 ", std::nullopt},
  }};
  for (const auto& [number, value] : numbers) {
    const std::optional<Config> config = parse_or_reject(schedule(number));
    ASSERT_EQ(config.has_value(), value.has_value()) << schedule(number);
    if (config.has_value()) {
      EXPECT_EQ(config->bound, *value) << "misread: " << schedule(number);
    }
  }

  std::mt19937 rng(20261019);
  for (std::size_t at = 0; at < text.size(); ++at) {
    for (int flip = 0; flip < 4; ++flip) {
      std::string mutated = text;
      mutated[at] = static_cast<char>(mutated[at] ^ static_cast<char>(1 + rng() % 255));
      (void)parse_or_reject(mutated);
    }
  }
}

// --------------------------------------------------- log as replay record --

[[nodiscard]] DecisionLog sample_log() {
  DecisionLog log;
  log.strategy = "dpor execution 3";
  log.decisions = {{0, 0, Site::kMatchRecv, 3, 1},
                   {1, 0, Site::kWaitany, 2, 1},
                   {0, 0, Site::kWaitany, 3, 2},
                   {0, 1, Site::kMatchRecv, 2, 0},
                   {1, 1, Site::kWaitany, 2, 0}};
  return log;
}

TEST_F(SchedsimTest, DecisionLogRoundTrip) {
  const DecisionLog log = sample_log();
  DecisionLog parsed;
  std::string error;
  ASSERT_TRUE(schedsim::parse_log(schedsim::serialize_log(log), &parsed, &error)) << error;
  EXPECT_EQ(parsed.strategy, "dpor execution 3");
  const std::vector<TraceEntry>& want = log.decisions;
  const std::vector<TraceEntry>& got = parsed.decisions;
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].rank, want[i].rank) << i;
    EXPECT_EQ(got[i].seq, want[i].seq) << i;
    EXPECT_EQ(got[i].site, want[i].site) << i;
    EXPECT_EQ(got[i].candidates, want[i].candidates) << i;
    EXPECT_EQ(got[i].chosen, want[i].chosen) << i;
  }
}

TEST_F(SchedsimTest, DecisionLogParseRejectsMalformedDocuments) {
  DecisionLog parsed;
  std::string error;
  EXPECT_FALSE(schedsim::parse_log("", &parsed, &error));
  EXPECT_FALSE(schedsim::parse_log("not a log\n", &parsed, &error));
  // The retired formats are not read: the decision trace, and the execution
  // graph with its rsan sync nodes, which is named in the error.
  EXPECT_FALSE(schedsim::parse_log("# cusan-schedule-trace v1\nd 0:h 0 waitany 2 0\n",
                                   &parsed, &error));
  EXPECT_FALSE(schedsim::parse_log("# cusan-execution-graph v1\nn 0 d 0:h waitany 0 2 0\n",
                                   &parsed, &error));
  EXPECT_NE(error.find("'cusan-execution-graph v1' is a retired format"), std::string::npos)
      << error;

  const std::string header = "# cusan-decision-log v2\n";
  EXPECT_TRUE(schedsim::parse_log(header, &parsed, &error)) << error;

  EXPECT_FALSE(schedsim::parse_log(header + "0 nonsense 0 2 0\n", &parsed, &error));
  EXPECT_TRUE(error.find("unknown site") != std::string::npos) << error;
  // The retired sites, which only reordered commuting work, are no longer
  // decision streams; the error names the site.
  for (const char* retired : {"pre_park_yield", "stream_op", "wake_order", "waitall_order"}) {
    EXPECT_FALSE(schedsim::parse_log(header + "0 " + retired + " 0 2 1\n", &parsed, &error))
        << retired;
    EXPECT_TRUE(error.find(std::string("unknown site '") + retired + "'") != std::string::npos)
        << error;
  }
  // A rank is -1 (unattributed) or an int rank below INT_MAX, in plain
  // digits; the old `<rank>:h` actor spelling is gone with the lanes.
  for (const char* rank : {"0:h", "-2", "+1", "2147483647", "4294967296", "badrank"}) {
    EXPECT_FALSE(schedsim::parse_log(header + rank + " waitany 0 2 0\n", &parsed, &error))
        << rank;
    EXPECT_TRUE(error.find("bad rank") != std::string::npos) << rank << ": " << error;
  }
  EXPECT_FALSE(schedsim::parse_log(header + "0 waitany 0 2 2\n", &parsed, &error));
  EXPECT_TRUE(error.find("outside") != std::string::npos) << error;
  EXPECT_FALSE(schedsim::parse_log(header + "0 waitany 0 0 0\n", &parsed, &error));
  EXPECT_TRUE(error.find("candidates must be >= 1") != std::string::npos) << error;
  for (const char* fields : {"0 waitany -1 2 0", "0 waitany 0 2 -1", "0 waitany 0 2147483648 0",
                             "0 waitany 0 2", "0 waitany x 2 0"}) {
    EXPECT_FALSE(schedsim::parse_log(header + fields + "\n", &parsed, &error)) << fields;
    EXPECT_TRUE(error.find("malformed") != std::string::npos) << fields << ": " << error;
  }
  // A stream's seqs run 0, 1, 2, ...: a gap or a repeat is rejected.
  EXPECT_FALSE(schedsim::parse_log(header + "0 waitany 1 2 0\n", &parsed, &error));
  EXPECT_TRUE(error.find("out of order") != std::string::npos) << error;
  EXPECT_FALSE(schedsim::parse_log(header + "0 waitany 0 2 0\n0 waitany 0 2 0\n", &parsed,
                                   &error));
  EXPECT_TRUE(error.find("out of order") != std::string::npos) << error;
  EXPECT_FALSE(schedsim::parse_log(header + "0 waitany 0 2 0 junk\n", &parsed, &error));
  EXPECT_TRUE(error.find("trailing") != std::string::npos) << error;

  // Distinct sites and distinct ranks are distinct streams: each starts at
  // seq 0.
  EXPECT_TRUE(schedsim::parse_log(header +
                                      "0 waitany 0 2 0\n"
                                      "0 match_recv 0 2 1\n"
                                      "-1 waitany 0 3 2\n"
                                      "0 waitany 1 2 1\n",
                                  &parsed, &error))
      << error;
  EXPECT_EQ(parsed.decisions.size(), 4u);
}

// ------------------------------------------------------ controller basics --

/// A fixed synthetic query workload spanning several ranks and sites.
struct Query {
  Site site;
  int rank;
  int candidates;
  int default_index;
};

[[nodiscard]] std::vector<Query> synthetic_queries() {
  std::vector<Query> queries;
  for (int round = 0; round < 50; ++round) {
    queries.push_back({Site::kMatchRecv, 0, 3, 1});
    queries.push_back({Site::kWaitany, 1, 2, 0});
    queries.push_back({Site::kWaitany, 2, 4, 0});
    queries.push_back({Site::kMatchRecv, 1, 3, 0});
    queries.push_back({Site::kWaitany, 0, 5, 0});
  }
  return queries;
}

[[nodiscard]] std::vector<int> run_queries(const std::vector<Query>& queries) {
  auto& controller = Controller::instance();
  std::vector<int> answers;
  answers.reserve(queries.size());
  for (const Query& q : queries) {
    answers.push_back(controller.choose(q.site, q.rank, q.candidates, q.default_index));
  }
  return answers;
}

TEST_F(SchedsimTest, DisarmedControllerReturnsDefaults) {
  Controller::instance().clear();
  EXPECT_FALSE(Controller::armed());
  for (const Query& q : synthetic_queries()) {
    EXPECT_EQ(Controller::instance().choose(q.site, q.rank, q.candidates, q.default_index),
              q.default_index);
  }
  EXPECT_EQ(Controller::instance().stats().decisions, 0u);  // never counted while disarmed
}

TEST_F(SchedsimTest, FreeWithRecordingKeepsDefaultsButRecords) {
  Config config;
  config.record = true;
  Controller::instance().configure(config);
  EXPECT_TRUE(Controller::armed());
  const auto queries = synthetic_queries();
  const auto answers = run_queries(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(answers[i], queries[i].default_index) << i;
  }
  DecisionLog parsed;
  std::string error;
  ASSERT_TRUE(schedsim::parse_log(recording(), &parsed, &error)) << error;
  EXPECT_EQ(parsed.decisions.size(), queries.size());
}

/// A prefix pinning a non-default answer for every query of the first
/// `rounds` rounds of synthetic_queries() (each stream asks once per round).
[[nodiscard]] std::vector<TraceEntry> non_default_prefix(const std::vector<Query>& queries,
                                                         std::uint64_t rounds,
                                                         int shift = 0) {
  std::vector<TraceEntry> prefix;
  for (std::size_t i = 0; i < queries.size() && i / 5 < rounds; ++i) {
    const Query& q = queries[i];
    const std::uint64_t round = i / 5;
    const int offset = 1 + static_cast<int>((round + static_cast<std::uint64_t>(shift)) %
                                            static_cast<std::uint64_t>(q.candidates - 1));
    const int answer = (q.default_index + offset) % q.candidates;
    prefix.push_back({q.rank, round, q.site, q.candidates, answer});
  }
  return prefix;
}

TEST_F(SchedsimTest, PrefixPinningIsDeterministicAndFallsBackToDefaults) {
  const auto queries = synthetic_queries();
  const auto prefix = non_default_prefix(queries, /*rounds=*/25);

  Controller::instance().configure_prefix(prefix);
  const auto first = run_queries(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (i < prefix.size()) {
      EXPECT_EQ(first[i], prefix[i].chosen) << i;  // pinned slice obeyed
    } else {
      EXPECT_EQ(first[i], queries[i].default_index) << i;  // free past it
    }
  }
  EXPECT_EQ(Controller::instance().stats().replayed, prefix.size());
  EXPECT_EQ(Controller::instance().stats().underruns, queries.size() - prefix.size());
  EXPECT_FALSE(Controller::instance().divergence().has_value());
  // The recorded run is prefix + free suffix, decision for decision.
  const auto recorded = Controller::instance().log().decisions;
  ASSERT_EQ(recorded.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(recorded[i].chosen, first[i]) << i;
  }

  Controller::instance().configure_prefix(prefix);
  EXPECT_EQ(run_queries(queries), first);  // same prefix, same answers

  Controller::instance().configure_prefix(non_default_prefix(queries, 25, /*shift=*/1));
  EXPECT_NE(run_queries(queries), first);  // a different pin, different answers
}

TEST_F(SchedsimTest, ReplayAnswersIndependentOfArrivalInterleaving) {
  const auto queries = synthetic_queries();
  Controller::instance().configure_prefix(non_default_prefix(queries, /*rounds=*/50));
  const auto forward = run_queries(queries);
  const std::string trace = recording();

  // Re-issue with the global arrival order permuted (stream-by-stream):
  // per-stream answers must be unchanged, because each stream's decisions
  // are numbered by its own counter, not by global arrival.
  std::string error;
  ASSERT_TRUE(Controller::instance().configure_replay_text(trace, &error)) << error;
  std::vector<int> reordered(queries.size());
  for (std::size_t start = 0; start < 5; ++start) {
    for (std::size_t i = start; i < queries.size(); i += 5) {
      reordered[i] = Controller::instance().choose(queries[i].site, queries[i].rank,
                                                   queries[i].candidates,
                                                   queries[i].default_index);
    }
  }
  EXPECT_EQ(reordered, forward);
  EXPECT_FALSE(Controller::instance().divergence().has_value());
  EXPECT_EQ(Controller::instance().stats().replayed, queries.size());
}

TEST_F(SchedsimTest, RecordThenReplayRoundTrips) {
  // Pin a non-default answer for every query through a prefix (the
  // explorer's seam), record the run, and replay the recording.
  const auto queries = synthetic_queries();
  const auto prefix = non_default_prefix(queries, /*rounds=*/50);
  std::vector<int> pinned;
  for (const TraceEntry& entry : prefix) {
    pinned.push_back(entry.chosen);
  }
  Controller::instance().configure_prefix(prefix);
  const auto recorded_answers = run_queries(queries);
  EXPECT_EQ(recorded_answers, pinned);
  const std::string trace = recording();

  std::string error;
  ASSERT_TRUE(Controller::instance().configure_replay_text(trace, &error)) << error;
  EXPECT_EQ(run_queries(queries), recorded_answers);
  EXPECT_FALSE(Controller::instance().divergence().has_value());
  EXPECT_EQ(Controller::instance().stats().replayed, queries.size());
  EXPECT_EQ(Controller::instance().stats().underruns, 0u);
}

TEST_F(SchedsimTest, ReplayToleratesUnderrunPastTraceEnd) {
  Config config;
  config.record = true;
  Controller::instance().configure(config);
  const auto queries = synthetic_queries();
  (void)run_queries(queries);
  const std::string trace = recording();

  std::string error;
  ASSERT_TRUE(Controller::instance().configure_replay_text(trace, &error)) << error;
  (void)run_queries(queries);
  // Extra queries past every stream's recording fall back to the default.
  for (const Query& q : synthetic_queries()) {
    EXPECT_EQ(Controller::instance().choose(q.site, q.rank, q.candidates, q.default_index),
              q.default_index);
  }
  EXPECT_FALSE(Controller::instance().divergence().has_value());
  EXPECT_GT(Controller::instance().stats().underruns, 0u);
}

TEST_F(SchedsimTest, TamperedLogIsReportedAsDivergence) {
  Config config;
  config.record = true;
  Controller::instance().configure(config);
  const auto queries = synthetic_queries();
  (void)run_queries(queries);
  std::string trace = recording();

  // Tamper: rank 2's waitany stream recorded 4-candidate decisions; claim 3
  // (still a well-formed document — only replay can catch the mismatch).
  const std::size_t pos = trace.find("2 waitany 0 4 ");
  ASSERT_NE(pos, std::string::npos);
  trace.replace(pos, std::strlen("2 waitany 0 4 "), "2 waitany 0 3 ");

  obs::clear_diagnostics();
  std::string error;
  ASSERT_TRUE(Controller::instance().configure_replay_text(trace, &error)) << error;
  (void)run_queries(queries);

  const auto divergence = Controller::instance().divergence();
  ASSERT_TRUE(divergence.has_value());
  EXPECT_EQ(divergence->site, Site::kWaitany);
  EXPECT_EQ(divergence->expected_candidates, 3);
  EXPECT_EQ(divergence->got_candidates, 4);
  EXPECT_GT(Controller::instance().stats().divergences, 0u);

  bool reported = false;
  for (const obs::Diagnostic& d : obs::diagnostics()) {
    if (d.id == "sched.divergence") {
      reported = true;
      EXPECT_EQ(d.severity, obs::Severity::kError);
      EXPECT_TRUE(d.message.find("waitany") != std::string::npos) << d.message;
    }
  }
  EXPECT_TRUE(reported);
}

// --------------------------------------- satellite 1: differential replay --

/// Sorted diagnostic ids of everything emitted since the last clear — the
/// "same reports, stable ids" half of verdict identity. Order is dropped
/// because ranks emit concurrently; identity of the multiset is the promise.
[[nodiscard]] std::vector<std::string> diagnostic_ids() {
  std::vector<std::string> ids;
  for (const obs::Diagnostic& d : obs::diagnostics()) {
    ids.push_back(d.id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST_F(SchedsimTest, DifferentialReplayOracleOverScenarioCorpus) {
  auto& controller = Controller::instance();

  /// What one DPOR execution observed, indexed by execution order.
  struct Observed {
    testsuite::ScenarioOutcome outcome;
    std::vector<std::string> ids;
  };

  std::size_t flipped = 0;
  const auto explore_and_replay = [&](const std::string& name,
                                      const std::function<testsuite::ScenarioOutcome()>& program) {
    std::vector<Observed> observed;
    Explorer explorer;
    const auto executions = explorer.explore(controller, [&]() -> std::size_t {
      obs::clear_diagnostics();
      Observed run;
      run.outcome = program();
      run.ids = diagnostic_ids();
      observed.push_back(run);
      return run.outcome.races;
    });
    ASSERT_EQ(observed.size(), executions.size()) << name;

    // Replay every explored execution — the flipped ones are the point:
    // their logs pin non-default decisions the free schedule never takes.
    for (const schedsim::Execution& execution : executions) {
      flipped += execution.pinned > 0 ? 1 : 0;
      std::string error;
      ASSERT_TRUE(
          controller.configure_replay_text(schedsim::serialize_log(execution.log), &error))
          << name << ": " << error;
      obs::clear_diagnostics();
      const testsuite::ScenarioOutcome replayed = program();

      const Observed& recorded = observed[execution.index];
      EXPECT_FALSE(controller.divergence().has_value())
          << name << ": " << controller.divergence()->to_string();
      EXPECT_EQ(replayed.races, recorded.outcome.races) << name;
      EXPECT_EQ(replayed.tracked_bytes, recorded.outcome.tracked_bytes) << name;
      EXPECT_EQ(replayed.elided_launches, recorded.outcome.elided_launches) << name;
      EXPECT_EQ(replayed.elided_bytes, recorded.outcome.elided_bytes) << name;
      EXPECT_EQ(diagnostic_ids(), recorded.ids) << name;
      controller.clear();
    }
  };

  for (const testsuite::Scenario& scenario : testsuite::build_scenarios()) {
    explore_and_replay(scenario.name, [&] {
      return testsuite::run_scenario_outcome(scenario, /*use_shadow_fast_path=*/true);
    });
  }
  // The corpus makes no branchable decision; the waitany program's
  // waitany decisions give the oracle non-default schedules to replay.
  for (const bool racy : {true, false}) {
    explore_and_replay(waitany_program::name(racy), [racy] {
      testsuite::ScenarioOutcome outcome;
      outcome.races = waitany_program::run(racy);
      return outcome;
    });
  }
  EXPECT_GT(flipped, 0u);  // the oracle replayed non-default schedules
}

// ------------------------------------ satellite 2: exploration soundness --

TEST_F(SchedsimTest, DporExecutionsKeepVerdictsScheduleIndependent) {
  // Every execution of a racy program reports its race, every execution of
  // a clean one stays clean: over the whole corpus, and over a racy and a
  // race-free program whose explorations must branch.
  auto& controller = Controller::instance();

  bool racy_branched = false;
  bool clean_branched = false;
  const auto explore = [&](const std::string& name, bool expect_race,
                           const std::function<std::size_t()>& program) {
    Explorer explorer;
    const auto executions = explorer.explore(controller, program);
    for (const schedsim::Execution& execution : executions) {
      EXPECT_EQ(execution.races > 0, expect_race)
          << name << " execution " << execution.index << " (" << execution.races << " races)";
    }
    if (executions.size() > 1) {
      (expect_race ? racy_branched : clean_branched) = true;
    }
  };

  for (const auto& scenario : testsuite::build_scenarios()) {
    explore(scenario.name, scenario.expect_race, [&] {
      return testsuite::run_scenario_outcome(scenario, /*use_shadow_fast_path=*/true).races;
    });
  }
  for (const bool racy : {true, false}) {
    explore(waitany_program::name(racy), racy, [racy] { return waitany_program::run(racy); });
  }
  EXPECT_TRUE(racy_branched);
  EXPECT_TRUE(clean_branched);
}

// ------------------------------------ satellite 3: record to a file --

TEST_F(SchedsimTest, RecordConfigWritesTheSessionLogAndItReplays) {
  // A `record:` config records each capi session's decisions and writes
  // the log to the record path at the session's end.
  auto& controller = Controller::instance();
  const std::string record_path = ::testing::TempDir() + "waitany_record.graph";
  std::remove(record_path.c_str());
  Config config;
  config.record = true;
  config.record_path = record_path;
  controller.configure(config);
  const auto program = [](capi::RankEnv& env) { waitany_program::rank_main(env, /*racy=*/true); };

  const auto recorded = capi::run_flavored(capi::Flavor::kMustCusan, 2, program);
  const DecisionLog recorded_log = controller.log();
  std::ifstream file(record_path);
  std::stringstream file_text;
  file_text << file.rdbuf();
  EXPECT_EQ(file_text.str(), schedsim::serialize_log(recorded_log)) << record_path;
  // Each rank's waitany picks between its two completed requests.
  ASSERT_EQ(recorded_log.decisions.size(), 2u) << file_text.str();
  for (const TraceEntry& entry : recorded_log.decisions) {
    EXPECT_EQ(entry.site, Site::kWaitany);
    EXPECT_EQ(entry.candidates, 2);
  }

  // The written file is the reproducer: replaying it takes every answer
  // from the recording and reports the same races.
  std::string error;
  ASSERT_TRUE(controller.configure_replay_text(file_text.str(), &error)) << error;
  const auto replayed = capi::run_flavored(capi::Flavor::kMustCusan, 2, program);
  EXPECT_FALSE(controller.divergence().has_value()) << controller.divergence()->to_string();
  EXPECT_EQ(controller.stats().replayed, 2u);
  EXPECT_EQ(capi::total_races(replayed), capi::total_races(recorded));
  EXPECT_GT(capi::total_races(replayed), 0u);
}

}  // namespace
