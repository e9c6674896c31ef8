// DPOR explorer tests: the exact-enumeration property on a synthetic choice
// tree (every full schedule executed once, none twice), the decision-log
// artifact (serialize / parse round trip, a proc child's decisions absorbed
// in rank order, a long run's log kept whole, a decoder that survives
// mutated input), a controller answering from its own strategy, and the two
// end-to-end promises from the roadmap:
//
//   1. Differential coverage — per scenario and for the waitany program
//      (waitany_program.hpp), DPOR executes exactly the schedules an
//      exhaustive enumeration of every choice sequence runs, and reaches
//      the same set of (race count, diagnostic ids) verdicts.
//   2. Reproducibility — every DPOR execution's recorded log replays via
//      the ordinary replay machinery with zero divergence and the same
//      verdict.
#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <random>
#include <set>
#include <string>
#include <utility>
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

using schedsim::Controller;
using schedsim::DecisionLog;
using schedsim::Explorer;
using schedsim::ExplorerOptions;
using schedsim::Site;
using schedsim::TraceEntry;

/// Every test leaves the process-global controller disarmed.
class ExplorerTest : public ::testing::Test {
 protected:
  void TearDown() override { Controller::instance().clear(); }
};

// ------------------------------------------------ exact enumeration ------

TEST_F(ExplorerTest, TwoValueSitesEnumerateExactProductOnceEach) {
  // A run with one 2-way waitany and one 3-way match decision has exactly
  // 2 * 3 = 6 schedules. The explorer must execute each exactly once: no
  // redundant runs (the pinned-prefix check keeps already-covered flips out
  // of the backtrack scan) and a drained frontier (no bound hit).
  auto& controller = Controller::instance();
  std::set<std::pair<int, int>> combos;
  const auto run = [&]() -> std::size_t {
    const int w = controller.choose(Site::kWaitany, 0, 2, 0);
    const int m = controller.choose(Site::kMatchRecv, 1, 3, 0);
    combos.emplace(w, m);
    return 0;
  };

  Explorer explorer;
  const auto executions = explorer.explore(controller, run);
  EXPECT_EQ(executions.size(), 6u);
  EXPECT_EQ(combos.size(), 6u);
  EXPECT_EQ(explorer.stats().redundant, 0u);
  EXPECT_FALSE(explorer.stats().bound_hit);
  EXPECT_FALSE(Controller::armed());  // explore() leaves the controller clear
}

TEST_F(ExplorerTest, BoundCapsExecutions) {
  auto& controller = Controller::instance();
  const auto run = [&]() -> std::size_t {
    for (std::uint64_t i = 0; i < 4; ++i) {
      (void)controller.choose(Site::kWaitany, 0, 2, 0);
    }
    return 0;
  };

  ExplorerOptions options;
  options.bound = 5;  // 2^4 = 16 schedules exist
  Explorer explorer(options);
  const auto executions = explorer.explore(controller, run);
  EXPECT_EQ(executions.size(), 5u);
  EXPECT_TRUE(explorer.stats().bound_hit);
}

// ------------------------------------------------ decision log artifact --

TEST_F(ExplorerTest, DecisionLogSerializeParseRoundTrip) {
  auto& controller = Controller::instance();
  controller.configure_prefix({});  // a free run that records its decisions
  EXPECT_EQ(controller.choose(Site::kWaitany, 0, 2, 1), 1);
  EXPECT_EQ(controller.choose(Site::kMatchRecv, 1, 3, 2), 2);
  const DecisionLog log = controller.log();
  ASSERT_EQ(log.decisions.size(), 2u);
  EXPECT_EQ(log.strategy, "prefix:0;record");
  const std::string text = serialize_log(log);

  DecisionLog parsed;
  std::string error;
  ASSERT_TRUE(parse_log(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.strategy, log.strategy);
  ASSERT_EQ(parsed.decisions.size(), log.decisions.size());
  EXPECT_EQ(parsed.decisions[1].rank, 1);
  EXPECT_EQ(parsed.decisions[1].site, Site::kMatchRecv);
  EXPECT_EQ(parsed.decisions[1].candidates, 3);
  EXPECT_EQ(parsed.decisions[1].chosen, 2);
  EXPECT_EQ(serialize_log(parsed), text);  // canonical form is stable
}

TEST_F(ExplorerTest, ProcChildDecisionsAbsorbInRankOrder) {
  // A forked rank ships the decisions it recorded; the parent appends each
  // child's in rank order. Seqs count per (rank, site) stream, so nothing
  // is renumbered, and the merged log parses and replays both ranks.
  std::vector<TraceEntry> children[2];
  for (int rank = 0; rank < 2; ++rank) {
    Controller child;
    child.configure_prefix({});
    (void)child.choose(Site::kWaitany, rank, 2, 1);
    (void)child.choose(Site::kWaitany, rank, 3, 2 - rank);
    children[rank] = child.log().decisions;
  }
  Controller parent;
  parent.configure_prefix({});
  for (const std::vector<TraceEntry>& decisions : children) {
    parent.absorb_child({}, std::nullopt, decisions);
  }
  const DecisionLog log = parent.log();
  ASSERT_EQ(log.decisions.size(), 4u);
  const int ranks[] = {0, 0, 1, 1};
  const std::uint64_t seqs[] = {0, 1, 0, 1};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(log.decisions[i].rank, ranks[i]) << i;
    EXPECT_EQ(log.decisions[i].seq, seqs[i]) << i;
  }
  auto& controller = Controller::instance();
  std::string error;
  ASSERT_TRUE(controller.configure_replay_text(serialize_log(log), &error)) << error;
  EXPECT_EQ(controller.choose(Site::kWaitany, 1, 2, 0), 1);
  EXPECT_EQ(controller.choose(Site::kWaitany, 1, 3, 0), 1);
  EXPECT_EQ(controller.choose(Site::kWaitany, 0, 2, 0), 1);
  EXPECT_EQ(controller.choose(Site::kWaitany, 0, 3, 0), 2);
  EXPECT_FALSE(controller.divergence().has_value());

  // A parent that does not record keeps none of its children's decisions.
  Controller idle;
  idle.absorb_child({}, std::nullopt, children[0]);
  EXPECT_TRUE(idle.log().decisions.empty());
}

TEST_F(ExplorerTest, ControllerAnswersFromItsOwnStrategy) {
  // choose() answers from the controller it is called on, not from the
  // calling thread's current one (Controller::instance()). This thread is
  // bound to no session, so its current controller is the global one.
  ASSERT_FALSE(Controller::armed());
  Controller pinned;
  pinned.configure_prefix({{0, 0, Site::kWaitany, 3, 2}});
  EXPECT_EQ(pinned.choose(Site::kWaitany, 0, 3, 0), 2);
  EXPECT_EQ(pinned.stats().replayed, 1u);
  const DecisionLog log = pinned.log();
  ASSERT_EQ(log.decisions.size(), 1u);
  EXPECT_EQ(log.decisions[0].chosen, 2);
  EXPECT_FALSE(Controller::armed());

  // A disarmed controller answers the default and counts nothing, even
  // while the thread's current controller is armed.
  Controller::instance().configure_prefix({});
  Controller idle;
  EXPECT_EQ(idle.choose(Site::kWaitany, 0, 3, 1), 1);
  EXPECT_EQ(idle.stats().decisions, 0u);
  EXPECT_EQ(Controller::instance().stats().decisions, 0u);
}

TEST_F(ExplorerTest, LongRecordingKeepsAndReplaysEveryDecision) {
  // The log has no cap: every decision of a long run is recorded, survives
  // serialize / parse, and replays in its (rank, site) stream.
  constexpr std::uint64_t kDecisions = (std::uint64_t{1} << 18) + 1;
  const auto rank_of = [](std::uint64_t i) { return static_cast<int>(i % 2); };
  const auto pick_of = [](std::uint64_t i) { return static_cast<int>(i % 3); };
  Controller recorder;
  recorder.configure_prefix({});
  for (std::uint64_t i = 0; i < kDecisions; ++i) {
    ASSERT_EQ(recorder.choose(Site::kMatchRecv, rank_of(i), 3, pick_of(i)), pick_of(i));
  }
  const std::string text = serialize_log(recorder.log());

  DecisionLog parsed;
  std::string error;
  ASSERT_TRUE(parse_log(text, &parsed, &error)) << error;
  ASSERT_EQ(parsed.decisions.size(), kDecisions);
  Controller replayer;
  ASSERT_TRUE(replayer.configure_replay_text(text, &error)) << error;
  std::uint64_t mismatches = 0;
  for (std::uint64_t i = 0; i < kDecisions; ++i) {
    mismatches += replayer.choose(Site::kMatchRecv, rank_of(i), 3, 0) != pick_of(i) ? 1 : 0;
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(replayer.stats().replayed, kDecisions);
  EXPECT_EQ(replayer.stats().underruns, 0u);
  EXPECT_FALSE(replayer.divergence().has_value());
}

TEST_F(ExplorerTest, MutatedDecisionLogsAreRejectedWithoutThrowing) {
  // A decision log comes from disk (replay, trace_lint): a corrupt document
  // must parse to false or to some log, and load into a controller or be
  // refused, never throw or crash. The golden input is the racy waitany
  // program's recorded log.
  auto& controller = Controller::instance();
  controller.configure_prefix({});  // a free run that records its decisions
  (void)waitany_program::run(/*racy=*/true);
  const std::string golden = serialize_log(controller.log());
  controller.clear();
  ASSERT_NE(golden.find(" waitany "), std::string::npos) << golden;

  const auto decodes_or_rejects = [](const std::string& text) {
    DecisionLog parsed;
    bool ok = false;
    EXPECT_NO_THROW(ok = parse_log(text, &parsed));
    Controller sink;
    bool loaded = false;
    EXPECT_NO_THROW(loaded = sink.configure_replay_text(text));
    EXPECT_EQ(loaded, ok);
  };

  for (std::size_t len = 0; len < golden.size(); ++len) {
    SCOPED_TRACE(len);
    decodes_or_rejects(golden.substr(0, len));
  }

  // Each decimal number in the document (the header's version, ranks,
  // seqs, counts and choices) set to a value past every field's range.
  for (const char* value : {"1099511627776", "-1", "18446744073709551615"}) {
    for (std::size_t at = 0; at < golden.size();) {
      if (std::isdigit(static_cast<unsigned char>(golden[at])) == 0) {
        ++at;
        continue;
      }
      std::size_t end = at;
      while (end < golden.size() && std::isdigit(static_cast<unsigned char>(golden[end])) != 0) {
        ++end;
      }
      SCOPED_TRACE(at);
      decodes_or_rejects(golden.substr(0, at) + value + golden.substr(end));
      at = end;
    }
  }

  std::mt19937 rng(20261019);
  for (std::size_t at = 0; at < golden.size(); ++at) {
    for (int flip = 0; flip < 4; ++flip) {
      std::string mutated = golden;
      mutated[at] = static_cast<char>(mutated[at] ^ static_cast<char>(1 + rng() % 255));
      SCOPED_TRACE(at);
      decodes_or_rejects(mutated);
    }
  }
}

// ------------------------------------------------ exploration order ------

TEST_F(ExplorerTest, DecisionArrivalOrderDoesNotRepeatSchedules) {
  // Two value decisions on different host lanes whose arrival order flips
  // from run to run, as two ranks' waitany decisions do. A child prefix
  // keeps its parent's pins wherever they land in the new run's order, so
  // the 2 x 2 product runs once per schedule and no execution repeats one.
  auto& controller = Controller::instance();
  std::size_t run_no = 0;
  const auto alternating = [&]() -> std::size_t {
    const bool rank0_first = (run_no++ % 2) == 1;
    for (int k = 0; k < 2; ++k) {
      const int rank = (k == 0) == rank0_first ? 0 : 1;
      (void)controller.choose(Site::kWaitany, rank, 2, 0);
    }
    return 0;
  };
  Explorer explorer;
  std::set<std::string> schedules;
  for (const schedsim::Execution& execution : explorer.explore(controller, alternating)) {
    schedules.insert(Explorer::signature(execution.log.decisions));
  }
  EXPECT_EQ(schedules.size(), 4u);
  EXPECT_EQ(explorer.stats().executions, 4u);
  EXPECT_EQ(explorer.stats().redundant, 0u);
}

// ------------------------------------------------ end-to-end promises ----

/// What one execution of a scenario observed: its race count and the sorted
/// ids of every diagnostic it emitted.
using Verdict = std::pair<std::size_t, std::vector<std::string>>;

[[nodiscard]] Verdict run_for_verdict(const std::function<std::size_t()>& program) {
  obs::clear_diagnostics();
  const std::size_t races = program();
  std::vector<std::string> ids;
  for (const obs::Diagnostic& d : obs::diagnostics()) {
    ids.push_back(d.id);
  }
  std::sort(ids.begin(), ids.end());
  return {races, std::move(ids)};
}

/// The reference DPOR is checked against: a depth-first enumeration of every
/// choice sequence through Controller::configure_prefix, with no sleep set.
/// Each run's children flip every unpinned branchable decision to every
/// alternative, keeping the decisions recorded before it and everything the
/// parent pinned, so each child pins strictly more than its parent and the
/// search ends. Returns false once more than `cap` runs would be needed.
[[nodiscard]] bool enumerate_all(Controller& controller, const std::function<Verdict()>& run,
                                 std::size_t cap, std::set<Verdict>* verdicts,
                                 std::size_t* runs) {
  std::vector<std::vector<TraceEntry>> stack{{}};
  *runs = 0;
  while (!stack.empty()) {
    if (*runs == cap) {
      controller.clear();
      return false;
    }
    const std::vector<TraceEntry> prefix = std::move(stack.back());
    stack.pop_back();
    controller.configure_prefix(prefix);
    verdicts->insert(run());
    ++*runs;
    const std::vector<TraceEntry> trace = controller.log().decisions;

    std::set<std::pair<std::uint64_t, std::uint64_t>> pinned;
    for (const TraceEntry& e : prefix) {
      pinned.emplace(schedsim::stream_key(e.rank, e.site), e.seq);
    }
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const TraceEntry& e = trace[i];
      if (e.candidates <= 1 || pinned.contains({schedsim::stream_key(e.rank, e.site), e.seq})) {
        continue;
      }
      for (int alt = 0; alt < e.candidates; ++alt) {
        if (alt == e.chosen) {
          continue;
        }
        std::vector<TraceEntry> child(trace.begin(),
                                      trace.begin() + static_cast<std::ptrdiff_t>(i) + 1);
        child.back().chosen = alt;
        std::set<std::pair<std::uint64_t, std::uint64_t>> in_child;
        for (const TraceEntry& c : child) {
          in_child.emplace(schedsim::stream_key(c.rank, c.site), c.seq);
        }
        // Parent pins recorded after position i (or never reached) stay
        // pinned; per stream they follow the child's entries in seq order.
        for (const TraceEntry& p : prefix) {
          if (!in_child.contains({schedsim::stream_key(p.rank, p.site), p.seq})) {
            child.push_back(p);
          }
        }
        stack.push_back(std::move(child));
      }
    }
  }
  controller.clear();
  return true;
}

TEST_F(ExplorerTest, DporReachesEveryVerdictOfExhaustiveEnumeration) {
  // Runs per program the enumeration may spend, far above the widest
  // program today (the waitany program, 4 runs). A program that needs more
  // has grown a new choice point, and that fails the test rather than
  // skipping the program.
  constexpr std::size_t kEnumerationCap = 512;
  ASSERT_EQ(capi::default_ranks(), 2) << "the oracle enumerates the 2-rank corpus (CUSAN_RANKS=2)";
  const auto scenarios = testsuite::build_scenarios();
  auto& controller = Controller::instance();

  std::size_t enumerated_runs = 0;
  std::size_t widest = 0;  ///< most runs one program's enumeration took
  std::size_t dpor_runs = 0;
  const auto compare = [&](const std::string& name, const std::function<std::size_t()>& program) {
    std::set<Verdict> exhaustive;
    std::size_t runs = 0;
    const bool complete = enumerate_all(
        controller, [&] { return run_for_verdict(program); }, kEnumerationCap, &exhaustive,
        &runs);
    EXPECT_TRUE(complete) << name << ": enumeration exceeded " << kEnumerationCap << " runs";
    enumerated_runs += runs;
    widest = std::max(widest, runs);

    std::set<Verdict> explored;
    Explorer explorer;
    const auto executions = explorer.explore(controller, [&]() -> std::size_t {
      const Verdict verdict = run_for_verdict(program);
      explored.insert(verdict);
      return verdict.first;
    });
    dpor_runs += executions.size();
    // Nothing is pruned but repeats: DPOR runs each enumerated schedule once.
    EXPECT_EQ(executions.size(), runs) << name;
    EXPECT_EQ(explored, exhaustive) << name;
  };

  for (const testsuite::Scenario& scenario : scenarios) {
    compare(scenario.name, [&] {
      return testsuite::run_scenario_outcome(scenario, /*use_shadow_fast_path=*/true).races;
    });
  }
  // The corpus makes no branchable decision; the waitany program's
  // waitany decisions give both searches a choice tree to walk.
  for (const bool racy : {true, false}) {
    compare(waitany_program::name(racy), [racy] { return waitany_program::run(racy); });
  }
  EXPECT_EQ(scenarios.size(), 86u);
  std::printf(
      "[oracle] %zu scenarios + waitany program: %zu enumerated runs (widest %zu), %zu DPOR "
      "executions\n",
      scenarios.size(), enumerated_runs, widest, dpor_runs);
}

TEST_F(ExplorerTest, DporDecisionLogsReplayWithoutDivergence) {
  // Walk racy scenarios until three DPOR-discovered logs (beyond each
  // scenario's baseline, when its exploration found more than one class)
  // have replayed verdict-identically through the ordinary replay path.
  const auto scenarios = testsuite::build_scenarios();
  auto& controller = Controller::instance();

  std::size_t checked = 0;
  for (const auto& scenario : scenarios) {
    if (checked >= 3) {
      break;
    }
    if (!scenario.expect_race) {
      continue;
    }
    Explorer explorer;
    const auto executions = explorer.explore(controller, [&]() -> std::size_t {
      return testsuite::run_scenario_outcome(scenario, /*use_shadow_fast_path=*/true).races;
    });
    ASSERT_FALSE(executions.empty()) << scenario.name;

    for (const auto& execution : executions) {
      if (checked >= 3) {
        break;
      }
      ++checked;
      std::string error;
      ASSERT_TRUE(controller.configure_replay_text(serialize_log(execution.log), &error))
          << error;
      const auto replayed =
          testsuite::run_scenario_outcome(scenario, /*use_shadow_fast_path=*/true);
      EXPECT_FALSE(controller.divergence().has_value())
          << scenario.name << ": " << controller.divergence()->to_string();
      EXPECT_EQ(replayed.races, execution.races) << scenario.name;
      controller.clear();
    }
  }
  EXPECT_EQ(checked, 3u);
}

}  // namespace
