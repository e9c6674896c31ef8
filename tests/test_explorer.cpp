// DPOR explorer tests: the exact-enumeration property on a synthetic choice
// tree (every full schedule executed once, none twice), the execution-graph
// artifact (serialize / parse / validate round trip, tamper rejection, a
// decoder that survives mutated input), and the two end-to-end promises
// from the roadmap:
//
//   1. Differential coverage — per scenario and for the waitall program
//      (waitall_program.hpp), DPOR executes exactly the schedules an
//      exhaustive enumeration of every choice sequence runs, and reaches
//      the same set of (race count, diagnostic ids) verdicts.
//   2. Reproducibility — every DPOR execution's recorded graph replays via
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
#include "schedsim/execution_graph.hpp"
#include "schedsim/explorer.hpp"
#include "testsuite/scenarios.hpp"
#include "waitall_program.hpp"

namespace {

using schedsim::Controller;
using schedsim::ExecutionGraph;
using schedsim::Explorer;
using schedsim::ExplorerOptions;
using schedsim::GraphRecorder;
using schedsim::Site;
using schedsim::TraceEntry;

/// Every test leaves the process-global controller and recorder disarmed.
class ExplorerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Controller::instance().clear();
    GraphRecorder::instance().arm(false);
  }
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

// ------------------------------------------------ graph artifact ---------

TEST_F(ExplorerTest, GraphSerializeParseValidateRoundTrip) {
  GraphRecorder& recorder = GraphRecorder::instance();
  recorder.begin_run();
  recorder.arm(true);
  int key = 0;
  recorder.record_decision(0, Site::kWaitallOrder, 0, 2, 1);
  recorder.record_release(0, 1, &key);
  recorder.record_acquire(1, 2, &key);
  recorder.record_decision(1, Site::kMatchRecv, 0, 3, 2);
  recorder.arm(false);

  const ExecutionGraph graph = recorder.take_graph();
  ASSERT_EQ(graph.nodes.size(), 4u);
  const std::string text = serialize_graph(graph);

  ExecutionGraph parsed;
  std::string error;
  ASSERT_TRUE(parse_graph(text, &parsed, &error)) << error;
  EXPECT_TRUE(validate_graph(parsed, &error)) << error;
  EXPECT_EQ(parsed.nodes.size(), graph.nodes.size());
  EXPECT_EQ(parsed.edges.size(), graph.edges.size());
  EXPECT_EQ(serialize_graph(parsed), text);  // canonical form is stable
}

TEST_F(ExplorerTest, RecorderCapNeverDropsDecisions) {
  // Past the node cap the recorder drops sync nodes, but a decision node is
  // the replay record: it is still appended, and it replays.
  GraphRecorder recorder;
  int key = 0;
  for (std::size_t i = 0; i < GraphRecorder::kMaxRecordedNodes; ++i) {
    recorder.record_acquire(0, 1, &key);
  }
  recorder.record_acquire(0, 1, &key);
  ASSERT_EQ(recorder.node_count(), GraphRecorder::kMaxRecordedNodes);
  recorder.record_decision(0, Site::kWaitany, 0, 3, 2);
  EXPECT_EQ(recorder.node_count(), GraphRecorder::kMaxRecordedNodes + 1);

  const ExecutionGraph graph = recorder.take_graph();
  const std::string text = serialize_graph(graph);
  const std::string decision_line =
      std::to_string(GraphRecorder::kMaxRecordedNodes) + " d 0:h waitany 0 3 2\n";
  EXPECT_NE(text.find(decision_line), std::string::npos);  // the artifact keeps it
  const std::vector<TraceEntry> decisions = schedsim::decision_entries(graph);
  ASSERT_EQ(decisions.size(), 1u);
  // Replay it (prefix pinning shares the replay path; parsing a million
  // sync lines back would only test the parser's memory).
  auto& controller = Controller::instance();
  controller.configure_prefix(decisions);
  EXPECT_EQ(controller.choose(Site::kWaitany, 0, 3, 0), 2);
  EXPECT_FALSE(controller.divergence().has_value());
  EXPECT_EQ(controller.stats().replayed, 1u);
}

TEST_F(ExplorerTest, ProcChildGraphAbsorbsWithOffsetIds) {
  // A forked rank ships the graph it recorded; the parent appends each
  // child in rank order with its ids moved past what is already there.
  std::string children[2];
  for (int rank = 0; rank < 2; ++rank) {
    GraphRecorder child;
    int key = 0;
    child.record_release(rank, 1, &key);
    child.record_acquire(rank, 2, &key);
    child.record_decision(rank, Site::kWaitallOrder, 0, 2, 1);
    children[rank] = serialize_graph(child.snapshot());
  }
  GraphRecorder parent;
  std::string error;
  for (const std::string& text : children) {
    ASSERT_TRUE(parent.absorb(text, &error)) << error;
  }
  const ExecutionGraph graph = parent.take_graph();
  ASSERT_EQ(graph.nodes.size(), 6u);
  EXPECT_TRUE(validate_graph(graph, &error)) << error;
  for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
    EXPECT_EQ(graph.nodes[i].id, i);
  }
  EXPECT_EQ(graph.nodes[2].rank, 0);
  EXPECT_EQ(graph.nodes[5].rank, 1);
  // Each child's edges connect its own nodes.
  using Edges = std::set<std::pair<std::uint32_t, std::uint32_t>>;
  Edges sync;
  Edges po;
  for (const schedsim::GraphEdge& e : graph.edges) {
    (e.kind == schedsim::GraphEdge::Kind::kSync ? sync : po).emplace(e.from, e.to);
  }
  EXPECT_EQ(sync, (Edges{{0, 1}, {3, 4}}));
  EXPECT_EQ(po, (Edges{{0, 1}, {1, 2}, {3, 4}, {4, 5}}));

  // A child document with a dangling edge is rejected whole.
  const std::string dangling = "# cusan-execution-graph v1\nn 0 d 0:h waitany 0 2 0\ne 0 1 po\n";
  EXPECT_FALSE(parent.absorb(dangling, &error));
  EXPECT_NE(error.find("dangling"), std::string::npos) << error;
  EXPECT_EQ(parent.node_count(), 0u);
}

TEST_F(ExplorerTest, GraphValidationRejectsTampering) {
  ExecutionGraph graph;
  graph.nodes.push_back({0, schedsim::NodeKind::kRelease, 0, Site::kWaitallOrder, 0, 1, 0,
                         /*ctx=*/1, /*key=*/0x10});
  graph.nodes.push_back({1, schedsim::NodeKind::kAcquire, 1, Site::kWaitallOrder, 0, 1, 0,
                         /*ctx=*/2, /*key=*/0x10});
  graph.edges.push_back({0, 1, schedsim::GraphEdge::Kind::kSync});

  std::string error;
  EXPECT_TRUE(validate_graph(graph, &error)) << error;

  ExecutionGraph dangling = graph;
  dangling.edges[0].to = 99;
  EXPECT_FALSE(validate_graph(dangling, &error));
  EXPECT_NE(error.find("dangling"), std::string::npos) << error;

  ExecutionGraph cyclic = graph;
  cyclic.edges.push_back({1, 0, schedsim::GraphEdge::Kind::kProgram});
  EXPECT_FALSE(validate_graph(cyclic, &error));
  EXPECT_NE(error.find("cycle"), std::string::npos) << error;

  ExecutionGraph no_magic;
  EXPECT_FALSE(parse_graph("not a graph file\n", &no_magic, &error));
}

TEST_F(ExplorerTest, MutatedGraphsAreRejectedWithoutThrowing) {
  // A graph file comes from disk (replay, trace_lint) or from a forked
  // rank (absorb): a corrupt document must parse to false or to some graph,
  // and validate to true or false, never throw or crash. The golden input
  // is the racy waitall program's recorded graph: decision, release and
  // acquire nodes and both edge kinds.
  auto& controller = Controller::instance();
  controller.configure_prefix({});  // a free run that records its decisions
  GraphRecorder& recorder = GraphRecorder::instance();
  recorder.begin_run();
  recorder.arm(true);
  (void)waitall_program::run(/*racy=*/true);
  recorder.arm(false);
  controller.clear();
  const std::string golden = serialize_graph(recorder.take_graph());
  ASSERT_NE(golden.find(" d "), std::string::npos) << golden;
  ASSERT_NE(golden.find(" r "), std::string::npos) << golden;
  ASSERT_NE(golden.find(" a "), std::string::npos) << golden;
  ASSERT_NE(golden.find(" sync"), std::string::npos) << golden;

  const auto decodes_or_rejects = [](const std::string& text) {
    ExecutionGraph parsed;
    bool ok = false;
    EXPECT_NO_THROW(ok = parse_graph(text, &parsed));
    if (ok) {
      EXPECT_NO_THROW((void)validate_graph(parsed));
    }
    GraphRecorder sink;
    EXPECT_NO_THROW((void)sink.absorb(text));
  };

  for (std::size_t len = 0; len < golden.size(); ++len) {
    SCOPED_TRACE(len);
    decodes_or_rejects(golden.substr(0, len));
  }

  // Each decimal number in the document (ids, ranks, seqs, counts, ctx,
  // edge endpoints, and the digits inside sync keys) set to a value past
  // every field's range.
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
  // from run to run, as two ranks' waitall decisions do. A child prefix
  // keeps its parent's pins wherever they land in the new run's order, so
  // the 2 x 2 product runs once per schedule and no execution repeats one.
  auto& controller = Controller::instance();
  std::size_t run_no = 0;
  const auto alternating = [&]() -> std::size_t {
    const bool rank0_first = (run_no++ % 2) == 1;
    for (int k = 0; k < 2; ++k) {
      const int rank = (k == 0) == rank0_first ? 0 : 1;
      (void)controller.choose(Site::kWaitallOrder, rank, 2, 0);
    }
    return 0;
  };
  Explorer explorer;
  std::set<std::string> schedules;
  for (const schedsim::Execution& execution : explorer.explore(controller, alternating)) {
    schedules.insert(Explorer::signature(execution.trace));
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
    GraphRecorder& recorder = GraphRecorder::instance();
    recorder.begin_run();
    recorder.arm(true);
    verdicts->insert(run());
    recorder.arm(false);
    ++*runs;
    const std::vector<TraceEntry> trace = schedsim::decision_entries(recorder.take_graph());

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
  // program today (the waitall program, 4 runs). A program that needs more
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
  // The corpus makes no branchable decision; the waitall program's
  // waitall_order decisions give both searches a choice tree to walk.
  for (const bool racy : {true, false}) {
    compare(waitall_program::name(racy), [racy] { return waitall_program::run(racy); });
  }
  EXPECT_EQ(scenarios.size(), 86u);
  std::printf(
      "[oracle] %zu scenarios + waitall program: %zu enumerated runs (widest %zu), %zu DPOR "
      "executions\n",
      scenarios.size(), enumerated_runs, widest, dpor_runs);
}

TEST_F(ExplorerTest, DporExecutionGraphsReplayWithoutDivergence) {
  // Walk racy scenarios until three DPOR-discovered graphs (beyond each
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
      ASSERT_TRUE(controller.configure_replay_text(serialize_graph(execution.graph), &error))
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
