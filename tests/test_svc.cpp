// svc: the session executor behind --jobs. Covers the FIFO executor
// (lifecycle, worker count, submission order, exception capture), what a
// session collects into its result, and cross-session isolation
// (concurrent racy/clean scenarios with distinct fault plans must match
// their solo runs verdict-for-verdict).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/diagnostics.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "schedsim/controller.hpp"
#include "svc/executor.hpp"
#include "testsuite/scenarios.hpp"

namespace {

// -- executor -----------------------------------------------------------------

TEST(SvcExecutor, RunsSubmittedSessionsAndCollectsResults) {
  svc::ExecutorOptions options;
  options.workers = 4;
  svc::Executor executor(options);
  std::atomic<int> ran{0};
  std::vector<svc::SessionHandlePtr> handles;
  for (int i = 0; i < 32; ++i) {
    svc::SessionSpec spec;
    spec.label = "s" + std::to_string(i);
    spec.body = [&ran] { ran.fetch_add(1, std::memory_order_relaxed); };
    handles.push_back(executor.submit(std::move(spec)));
  }
  executor.wait_idle();
  EXPECT_EQ(ran.load(), 32);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    EXPECT_TRUE(handles[i]->done());
    EXPECT_TRUE(handles[i]->result().ok) << handles[i]->result().error;
    EXPECT_EQ(handles[i]->result().label, "s" + std::to_string(i));
  }
  const svc::ExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.submitted, 32u);
  EXPECT_EQ(stats.completed, 32u);
}

TEST(SvcExecutor, BodyExceptionIsCapturedNotFatal) {
  svc::Executor executor(svc::ExecutorOptions{.workers = 1});
  svc::SessionSpec spec;
  spec.label = "throws";
  spec.body = [] { throw std::runtime_error("session body exploded"); };
  auto handle = executor.submit(std::move(spec));
  handle->wait();
  EXPECT_TRUE(handle->done());
  EXPECT_FALSE(handle->result().ok);
  EXPECT_EQ(handle->result().error, "session body exploded");
}

TEST(SvcExecutor, ZeroWorkersMeansHardwareConcurrency) {
  // With workers = 0 the executor runs one worker per hardware thread: that
  // many sessions can be in their bodies at once.
  const int expected = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  svc::Executor executor(svc::ExecutorOptions{.workers = 0});
  std::mutex mutex;
  std::condition_variable cv;
  int inside = 0;
  int peak = 0;
  std::vector<svc::SessionHandlePtr> handles;
  for (int i = 0; i < expected; ++i) {
    svc::SessionSpec spec;
    spec.label = "w" + std::to_string(i);
    spec.body = [&] {
      std::unique_lock<std::mutex> lock(mutex);
      peak = std::max(peak, ++inside);
      cv.notify_all();
      // Bounded wait: a short-staffed executor fails the check below
      // instead of hanging the test.
      cv.wait_for(lock, std::chrono::seconds(10), [&] { return inside == expected; });
    };
    handles.push_back(executor.submit(std::move(spec)));
  }
  executor.wait_idle();
  EXPECT_EQ(peak, expected);
  EXPECT_EQ(executor.stats().completed, static_cast<std::uint64_t>(expected));
}

TEST(SvcExecutor, QueuedSessionWaitsForTheBusyWorker) {
  // One worker, held by a blocker: the queued sessions stay not-done until
  // the blocker returns, then run in submission order (check_cutests prints
  // records as their handles complete, in that order).
  svc::Executor executor(svc::ExecutorOptions{.workers = 1});
  std::mutex mutex;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  svc::SessionSpec blocker;
  blocker.label = "blocker";
  blocker.body = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  auto running = executor.submit(std::move(blocker));
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return started; });
  }
  std::vector<std::string> order;  // written by the one worker only
  std::vector<svc::SessionHandlePtr> waiting;
  for (const char* label : {"first", "second", "third"}) {
    svc::SessionSpec queued;
    queued.label = label;
    queued.body = [&order, label] { order.emplace_back(label); };
    waiting.push_back(executor.submit(std::move(queued)));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(running->done());
  for (const auto& handle : waiting) {
    EXPECT_FALSE(handle->done());
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  executor.wait_idle();
  EXPECT_TRUE(running->done());
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second", "third"}));
  EXPECT_EQ(waiting.back()->result().label, "third");
}

TEST(SvcExecutor, DestructorDrainsSubmittedSessions) {
  std::atomic<int> ran{0};
  std::vector<svc::SessionHandlePtr> handles;
  {
    svc::Executor executor(svc::ExecutorOptions{.workers = 2});
    for (int i = 0; i < 16; ++i) {
      svc::SessionSpec spec;
      spec.label = "d" + std::to_string(i);
      spec.body = [&ran] { ran.fetch_add(1, std::memory_order_relaxed); };
      handles.push_back(executor.submit(std::move(spec)));
    }
  }
  EXPECT_EQ(ran.load(), 16);
  for (const auto& handle : handles) {
    EXPECT_TRUE(handle->done());
    EXPECT_TRUE(handle->result().ok);
  }
}

// -- session results ----------------------------------------------------------

TEST(SvcSession, CollectsDiagnosticsAndMetricsIntoResult) {
  svc::Executor executor(svc::ExecutorOptions{.workers = 1});
  svc::SessionSpec spec;
  spec.label = "emit";
  spec.body = [] {
    obs::emit_diagnostic({.id = "test.svc.result",
                          .severity = obs::Severity::kWarning,
                          .rank = 0,
                          .message = "collected into the session result"});
    obs::metric("test.svc.counter").add(9);
  };
  auto handle = executor.submit(std::move(spec));
  handle->wait();
  const svc::SessionResult& result = handle->result();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.label, "emit");
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].id, "test.svc.result");
  EXPECT_EQ(result.diagnostics[0].rank, 0);
  ASSERT_TRUE(result.metric_deltas.count("test.svc.counter"));
  EXPECT_EQ(result.metric_deltas.at("test.svc.counter"), 9u);
  // Every diagnostic also bumps its diag.<id> counter.
  ASSERT_TRUE(result.metric_deltas.count("diag.test.svc.result"));
  EXPECT_EQ(result.metric_deltas.at("diag.test.svc.result"), 1u);
}

TEST(SvcSession, MalformedFaultPlanFailsBeforeTheBody) {
  bool ran = false;
  svc::SessionSpec spec;
  spec.label = "bad-plan";
  spec.fault_plan = "this is not a fault plan";
  spec.body = [&ran] { ran = true; };
  svc::Session session(std::move(spec));
  const svc::SessionResult result = session.run();
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(ran) << "a session with an unparseable plan must not run";
  EXPECT_EQ(result.error.rfind("fault plan: ", 0), 0u) << result.error;
  EXPECT_EQ(result.label, "bad-plan");
}

TEST(SvcSession, ReplayScheduleReadsItsGraphFile) {
  // A replay schedule in the spec loads its graph like CUSAN_SCHEDULE does;
  // an unreadable graph fails the session before the body runs.
  const std::string path = ::testing::TempDir() + "svc_replay.graph";
  schedsim::ExecutionGraph graph;
  graph.strategy = "free";
  std::string error;
  ASSERT_TRUE(obs::write_file(path, schedsim::serialize_graph(graph), &error)) << error;

  bool ran = false;
  svc::SessionSpec spec;
  spec.label = "replay";
  ASSERT_TRUE(schedsim::parse_schedule("replay:" + path, &spec.schedule, &error)) << error;
  spec.body = [&ran] {
    ran = true;
    EXPECT_EQ(schedsim::Controller::instance().config().mode, schedsim::Mode::kReplay);
  };
  EXPECT_TRUE(svc::Session(spec).run().ok);
  EXPECT_TRUE(ran);

  ran = false;
  ASSERT_TRUE(
      schedsim::parse_schedule("replay:" + path + ".missing", &spec.schedule, &error)) << error;
  const svc::SessionResult missing = svc::Session(spec).run();
  EXPECT_FALSE(missing.ok);
  EXPECT_FALSE(ran);
  EXPECT_EQ(missing.error.rfind("schedule: replay: cannot read", 0), 0u) << missing.error;
}

// -- cross-session isolation --------------------------------------------------

struct ScenarioRun {
  std::size_t races{0};
  std::uint64_t tracked_bytes{0};
  std::vector<std::string> diagnostic_ids;
  std::size_t fired_faults{0};
  bool ok{false};
};

/// One scenario as an svc session; collects the verdict-relevant outputs
/// (counters like fastpath hits are timing-dependent and deliberately
/// excluded — the suite's own sequential runs wobble on them).
ScenarioRun run_in_executor(svc::Executor& executor, const testsuite::Scenario& scenario,
                            const std::string& fault_plan) {
  ScenarioRun run;
  svc::SessionSpec spec;
  spec.label = scenario.name;
  spec.fault_plan = fault_plan;
  auto* out = &run;
  spec.body = [out, &scenario] {
    const auto outcome =
        testsuite::run_scenario_outcome(scenario, /*use_shadow_fast_path=*/true);
    out->races = outcome.races;
    out->tracked_bytes = outcome.tracked_bytes;
  };
  auto handle = executor.submit(std::move(spec));
  handle->wait();
  run.ok = handle->result().ok;
  run.fired_faults = handle->result().fired_faults.size();
  for (const auto& diagnostic : handle->result().diagnostics) {
    run.diagnostic_ids.push_back(diagnostic.id);
  }
  return run;
}

TEST(SvcIsolation, ConcurrentSessionsMatchTheirSoloRuns) {
  const auto scenarios = testsuite::build_scenarios();
  // A racy and a clean scenario, interleaved concurrently with distinct
  // fault plans; each must reproduce its solo verdict, diagnostics and
  // fault ledger exactly (no bleed through any formerly-global sink).
  std::vector<std::pair<const testsuite::Scenario*, std::string>> mix;
  const testsuite::Scenario* racy = nullptr;
  const testsuite::Scenario* clean = nullptr;
  for (const auto& scenario : scenarios) {
    if (racy == nullptr && scenario.expect_race) {
      racy = &scenario;
    }
    if (clean == nullptr && !scenario.expect_race) {
      clean = &scenario;
    }
  }
  ASSERT_NE(racy, nullptr);
  ASSERT_NE(clean, nullptr);
  // Exact-once delay faults: deterministic ledger, verdict-neutral action.
  const std::string racy_plan = "send@rank0#1=delay:1ms";
  const std::string clean_plan = "recv@rank1#1=delay:1ms";

  svc::Executor solo(svc::ExecutorOptions{.workers = 1});
  const ScenarioRun racy_solo = run_in_executor(solo, *racy, racy_plan);
  const ScenarioRun clean_solo = run_in_executor(solo, *clean, clean_plan);
  ASSERT_TRUE(racy_solo.ok);
  ASSERT_TRUE(clean_solo.ok);
  EXPECT_GT(racy_solo.races, 0u);
  EXPECT_EQ(clean_solo.races, 0u);

  svc::ExecutorOptions options;
  options.workers = 4;
  svc::Executor executor(options);
  constexpr int kRounds = 4;
  std::vector<ScenarioRun> racy_runs(kRounds);
  std::vector<ScenarioRun> clean_runs(kRounds);
  std::vector<std::thread> submitters;
  submitters.reserve(2 * kRounds);
  for (int i = 0; i < kRounds; ++i) {
    submitters.emplace_back([&, i] { racy_runs[i] = run_in_executor(executor, *racy, racy_plan); });
    submitters.emplace_back(
        [&, i] { clean_runs[i] = run_in_executor(executor, *clean, clean_plan); });
  }
  for (auto& thread : submitters) {
    thread.join();
  }
  for (int i = 0; i < kRounds; ++i) {
    EXPECT_TRUE(racy_runs[i].ok);
    EXPECT_EQ(racy_runs[i].races, racy_solo.races) << "round " << i;
    EXPECT_EQ(racy_runs[i].tracked_bytes, racy_solo.tracked_bytes) << "round " << i;
    EXPECT_EQ(racy_runs[i].diagnostic_ids, racy_solo.diagnostic_ids) << "round " << i;
    EXPECT_EQ(racy_runs[i].fired_faults, racy_solo.fired_faults) << "round " << i;
    EXPECT_TRUE(clean_runs[i].ok);
    EXPECT_EQ(clean_runs[i].races, 0u) << "round " << i << ": clean scenario saw a bleed race";
    EXPECT_EQ(clean_runs[i].tracked_bytes, clean_solo.tracked_bytes) << "round " << i;
    EXPECT_EQ(clean_runs[i].diagnostic_ids, clean_solo.diagnostic_ids) << "round " << i;
    EXPECT_EQ(clean_runs[i].fired_faults, clean_solo.fired_faults) << "round " << i;
  }
}

TEST(SvcIsolation, SessionMetricDeltasStayPrivate) {
  // Two concurrent sessions bump differently-named counters; each session's
  // delta must contain exactly its own.
  svc::ExecutorOptions options;
  options.workers = 2;
  svc::Executor executor(options);
  svc::SessionSpec a;
  a.label = "a";
  a.body = [] { obs::metric("test.svc.a").add(3); };
  svc::SessionSpec b;
  b.label = "b";
  b.body = [] { obs::metric("test.svc.b").add(5); };
  auto ha = executor.submit(std::move(a));
  auto hb = executor.submit(std::move(b));
  executor.wait_idle();
  const auto& da = ha->result().metric_deltas;
  const auto& db = hb->result().metric_deltas;
  ASSERT_TRUE(da.count("test.svc.a"));
  EXPECT_EQ(da.at("test.svc.a"), 3u);
  EXPECT_FALSE(da.count("test.svc.b")) << "counter bled between sessions";
  ASSERT_TRUE(db.count("test.svc.b"));
  EXPECT_EQ(db.at("test.svc.b"), 5u);
  EXPECT_FALSE(db.count("test.svc.a")) << "counter bled between sessions";
}

}  // namespace
