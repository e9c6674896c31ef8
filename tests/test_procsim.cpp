// Process-backend test suite: the shared-memory transport's building blocks
// (SPSC rings, segment GC), end-to-end proc worlds (pingpong, allreduce,
// result publication, no rank re-emitting the parent's buffered stdout),
// crash containment (rank_kill x {sigkill, sigabrt, hang} must yield exactly
// one RankFailureReport, poisoned survivors and a prompt return),
// supervisor-side deadlock detection, the RankPayload serde,
// and thread/proc equality on a scenario subset: verdicts, and the DPOR
// exploration that the shipped execution-graph nodes drive.
//
// A global test environment reaps stale cusan.* segments before the suite
// runs (the in-process analog of `tools/shm_gc`), and the kill tests assert
// the zero-leak invariant afterwards: a crashed rank must not leave its
// rendezvous or result segments behind.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "capi/result_serde.hpp"
#include "capi/session.hpp"
#include "faultsim/injector.hpp"
#include "faultsim/plan.hpp"
#include "mpisim/datatype.hpp"
#include "mpisim/failure.hpp"
#include "mpisim/proc_comm.hpp"
#include "mpisim/shm.hpp"
#include "mpisim/shm_ring.hpp"
#include "mpisim/world.hpp"
#include "obs/diagnostics.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "schedsim/controller.hpp"
#include "schedsim/decision_log.hpp"
#include "schedsim/explorer.hpp"
#include "testsuite/fault_sweep.hpp"
#include "testsuite/scenarios.hpp"
#include "waitany_program.hpp"

#include <pthread.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

namespace {

using mpisim::Backend;
using mpisim::Comm;
using mpisim::Datatype;
using mpisim::FailureKind;
using mpisim::MpiError;
using mpisim::ScopedBackend;
using mpisim::Status;
using mpisim::World;

/// Test-harness setup: reap stale cusan.* segments left by earlier crashed
/// runs so leak assertions below start from a clean /dev/shm.
class ShmGcEnvironment : public ::testing::Environment {
 public:
  void SetUp() override { (void)mpisim::shm::gc_stale_segments(/*remove=*/true); }
};
const auto* const kShmGcEnvironment =
    ::testing::AddGlobalTestEnvironment(new ShmGcEnvironment());

/// Zero-leak invariant: no provably-orphaned cusan.* segment may exist.
/// (Alive segments of concurrently running test binaries are not leaks.)
void expect_no_stale_segments(const char* when) {
  const mpisim::shm::GcStats stats = mpisim::shm::gc_stale_segments(/*remove=*/false);
  EXPECT_EQ(stats.stale, 0) << when << ": leaked shm segments, e.g. "
                            << (stats.stale_names.empty() ? std::string("?")
                                                          : stats.stale_names.front());
}

// ---------------------------------------------------------------------------
// SPSC ring units
// ---------------------------------------------------------------------------

struct TestRing {
  std::vector<std::byte> storage;
  mpisim::shmring::Ring ring;

  explicit TestRing(std::uint32_t capacity)
      : storage(mpisim::shmring::ring_footprint(capacity)) {
    ring = mpisim::shmring::ring_at(storage.data());
    mpisim::shmring::init(ring, capacity);
  }
};

[[nodiscard]] bool publish_bytes(mpisim::shmring::Ring ring, std::int32_t tag,
                                 const std::string& body) {
  mpisim::shmring::RecordHdr hdr{};
  hdr.kind = mpisim::shmring::RecordKind::kMessage;
  hdr.tag = tag;
  hdr.comm_id = 0;
  hdr.payload_bytes = body.size();
  return mpisim::shmring::try_publish(ring, hdr, {},
                                      std::as_bytes(std::span(body.data(), body.size())));
}

TEST(ShmRingTest, PublishDrainRoundTrip) {
  TestRing tr(256);
  ASSERT_TRUE(publish_bytes(tr.ring, 7, "hello"));
  std::vector<std::string> seen;
  const int consumed = mpisim::shmring::drain(
      tr.ring, [&](const mpisim::shmring::RecordHdr& hdr, const std::byte*, const std::byte* body) {
        EXPECT_EQ(hdr.tag, 7);
        seen.emplace_back(reinterpret_cast<const char*>(body), hdr.payload_bytes);
      });
  EXPECT_EQ(consumed, 1);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "hello");
}

TEST(ShmRingTest, FullRingRejectsPublishUntilDrained) {
  // Capacity 256; each record with a ~50-byte body occupies 128 bytes, so
  // two fit and the third must be refused until the consumer drains.
  TestRing tr(256);
  const std::string body(50, 'x');
  ASSERT_TRUE(publish_bytes(tr.ring, 0, body));
  ASSERT_TRUE(publish_bytes(tr.ring, 1, body));
  EXPECT_FALSE(publish_bytes(tr.ring, 2, body));
  EXPECT_EQ(mpisim::shmring::drain(tr.ring,
                                   [](const mpisim::shmring::RecordHdr&, const std::byte*,
                                      const std::byte*) {}),
            2);
  EXPECT_TRUE(publish_bytes(tr.ring, 2, body));
}

TEST(ShmRingTest, WraparoundPublishesPadRecordAndKeepsRecordsContiguous) {
  TestRing tr(256);
  const auto drain_all = [&](std::vector<std::int32_t>* tags) {
    return mpisim::shmring::drain(
        tr.ring,
        [&](const mpisim::shmring::RecordHdr& hdr, const std::byte*, const std::byte* body) {
          if (tags != nullptr) {
            tags->push_back(hdr.tag);
            // Contiguity: the whole body is readable at `body` in one piece.
            EXPECT_EQ(std::string(reinterpret_cast<const char*>(body), hdr.payload_bytes),
                      std::string(hdr.payload_bytes, 'w'));
          }
        });
  };
  // Advance head/tail to offset 192, then publish a 128-byte record: only 64
  // contiguous bytes remain, so the producer must emit a pad record and wrap.
  ASSERT_TRUE(publish_bytes(tr.ring, 0, std::string(1, 'w')));     // 64 bytes
  ASSERT_TRUE(publish_bytes(tr.ring, 1, std::string(50, 'w')));    // 128 bytes
  ASSERT_EQ(drain_all(nullptr), 2);
  std::vector<std::int32_t> tags;
  ASSERT_TRUE(publish_bytes(tr.ring, 2, std::string(50, 'w')));    // wraps via pad
  ASSERT_EQ(drain_all(&tags), 1);
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0], 2);
  // The ring stays usable after the wrap.
  ASSERT_TRUE(publish_bytes(tr.ring, 3, std::string(50, 'w')));
  tags.clear();
  ASSERT_EQ(drain_all(&tags), 1);
  EXPECT_EQ(tags[0], 3);
}

// ---------------------------------------------------------------------------
// Segment GC units
// ---------------------------------------------------------------------------

TEST(ShmGcTest, ClassifiesDeadOwnersAndOtherBootsAsStale) {
  std::string error;
  // Alive: owned by this (running) process.
  mpisim::shm::Segment mine =
      mpisim::shm::Segment::create(mpisim::shm::segment_name(getpid(), "gct"), 4096, &error);
  ASSERT_TRUE(mine.valid()) << error;
  // Stale: a previous boot's segment (boot-id 00000000 never matches).
  mpisim::shm::Segment other =
      mpisim::shm::Segment::create("/cusan.00000000.54321.gct", 4096, &error);
  ASSERT_TRUE(other.valid()) << error;
  other.reset();  // keep the name, drop the mapping

  const mpisim::shm::GcStats listed = mpisim::shm::gc_stale_segments(/*remove=*/false);
  EXPECT_GE(listed.scanned, 2);
  EXPECT_GE(listed.stale, 1);
  EXPECT_EQ(listed.removed, 0);
  bool mine_alive = false;
  for (const std::string& name : listed.alive_names) {
    mine_alive |= ("/" + name) == mine.name();
  }
  EXPECT_TRUE(mine_alive) << "live owner's segment misclassified";

  const mpisim::shm::GcStats reaped = mpisim::shm::gc_stale_segments(/*remove=*/true);
  EXPECT_EQ(reaped.removed, reaped.stale);
  // The live segment survived the reap.
  mpisim::shm::Segment still = mpisim::shm::Segment::open(mine.name(), &error);
  EXPECT_TRUE(still.valid()) << error;
  still.reset();
  mine.unlink();
}

// ---------------------------------------------------------------------------
// End-to-end proc worlds
// ---------------------------------------------------------------------------

TEST(ProcWorldTest, PingPongAndAllreduce) {
  World world(4, Backend::kProc);
  world.set_watchdog_timeout(std::chrono::milliseconds(5000));
  world.run([](Comm comm) {
    const int rank = comm.rank();
    const int partner = rank ^ 1;
    double token = rank;
    Status st;
    if (rank % 2 == 0) {
      ASSERT_EQ(comm.send(&token, 1, Datatype::float64(), partner, 5), MpiError::kSuccess);
      ASSERT_EQ(comm.recv(&token, 1, Datatype::float64(), partner, 5, &st), MpiError::kSuccess);
    } else {
      ASSERT_EQ(comm.recv(&token, 1, Datatype::float64(), partner, 5, &st), MpiError::kSuccess);
      ASSERT_EQ(comm.send(&token, 1, Datatype::float64(), partner, 5), MpiError::kSuccess);
    }
    EXPECT_EQ(token, static_cast<double>(rank % 2 == 0 ? rank : partner));

    std::int32_t mine = rank + 1;
    std::int32_t sum = 0;
    ASSERT_EQ(comm.allreduce(&mine, &sum, 1, Datatype::int32(), mpisim::ReduceOp::kSum),
              MpiError::kSuccess);
    EXPECT_EQ(sum, 1 + 2 + 3 + 4);
    const std::byte ok{1};
    mpisim::publish_result(comm, std::span(&ok, 1));
  });
  EXPECT_FALSE(world.failure_report().has_value());
  for (int r = 0; r < 4; ++r) {
    ASSERT_EQ(world.rank_result(r).size(), 1u) << "rank " << r;
    EXPECT_EQ(world.rank_result(r)[0], std::byte{1});
  }
  expect_no_stale_segments("after clean proc world");
}

TEST(ProcWorldTest, MessageAboveEagerLimitTakesRendezvousBitExact) {
  // One payload past the eager limit of a 2-rank world must take the
  // rendezvous path and arrive bit-exact. The ranks are processes, so the
  // receiver reports a match through a metric that travels home in the
  // session's metric deltas.
  const ScopedBackend scoped(Backend::kProc);
  const std::size_t bytes =
      mpisim::proc::default_eager_max(mpisim::proc::default_ring_bytes(2)) + 4096;
  const std::size_t count = bytes / sizeof(std::uint64_t);
  const auto pattern = [](std::size_t i) { return i * 0x9e3779b97f4a7c15ULL; };
  const auto before = obs::MetricsRegistry::instance().snapshot();
  (void)capi::run_flavored(capi::Flavor::kVanilla, 2, [&](capi::RankEnv& env) {
    std::vector<std::uint64_t> buf(count);
    if (env.rank() == 0) {
      for (std::size_t i = 0; i < count; ++i) {
        buf[i] = pattern(i);
      }
      (void)env.comm.send(buf.data(), count, Datatype::uint64(), 1, 4);
    } else {
      Status st;
      bool same = env.comm.recv(buf.data(), count, Datatype::uint64(), 0, 4, &st) ==
                  MpiError::kSuccess;
      for (std::size_t i = 0; same && i < count; ++i) {
        same = buf[i] == pattern(i);
      }
      obs::metric("test_procsim.rendezvous_bit_exact").add(same ? 1 : 0);
    }
  });
  const auto delta =
      obs::MetricsRegistry::diff(obs::MetricsRegistry::instance().snapshot(), before);
  EXPECT_EQ(obs::value_of(delta, "mpisim.proc.rendezvous_msgs"), 1u);
  EXPECT_EQ(obs::value_of(delta, "test_procsim.rendezvous_bit_exact"), 1u);
  expect_no_stale_segments("after rendezvous message");
}

// ---------------------------------------------------------------------------
// Crash containment: rank_kill x {sigkill, sigabrt, hang}
// ---------------------------------------------------------------------------

struct KillCase {
  const char* spec;
  FailureKind kind;
  int signal;
};

class ProcRankKillTest : public ::testing::TestWithParam<KillCase> {};

TEST_P(ProcRankKillTest, SurvivorsGetOneReportAndPoisonedComms) {
  const KillCase& kc = GetParam();
  faultsim::FaultPlan plan;
  const faultsim::FaultPlan::ParseResult parsed = faultsim::FaultPlan::parse(kc.spec, plan);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  auto& injector = faultsim::Injector::instance();
  injector.load(plan);

  obs::Counter& reports = obs::metric("mpisim.proc.rank_failures");
  const std::uint64_t reports_before = reports.value();

  World world(2, Backend::kProc);
  world.set_watchdog_timeout(std::chrono::milliseconds(1500));
  const auto started = std::chrono::steady_clock::now();
  world.run([](Comm comm) {
    // Four pingpong rounds; rank 1's second MPI operation fires the kill,
    // leaving rank 0 blocked in recv until the supervisor poisons the world.
    double token = 0.0;
    Status st;
    MpiError first_error = MpiError::kSuccess;
    for (int i = 0; i < 4 && first_error == MpiError::kSuccess; ++i) {
      if (comm.rank() == 0) {
        first_error = comm.send(&token, 1, Datatype::float64(), 1, 9);
        if (first_error == MpiError::kSuccess) {
          first_error = comm.recv(&token, 1, Datatype::float64(), 1, 9, &st);
        }
      } else {
        first_error = comm.recv(&token, 1, Datatype::float64(), 0, 9, &st);
        if (first_error == MpiError::kSuccess) {
          first_error = comm.send(&token, 1, Datatype::float64(), 0, 9);
        }
      }
    }
    // Only the survivor reaches this; the victim died mid-loop.
    const auto code = static_cast<std::byte>(first_error);
    mpisim::publish_result(comm, std::span(&code, 1));
  });
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(std::chrono::steady_clock::now() -
                                                            started);

  // Containment was prompt: detection + poison + teardown fit comfortably
  // inside a few watchdog periods (the hang case pays the heartbeat-staleness
  // threshold plus the supervisor's post-poison grace, not a ctest TIMEOUT).
  EXPECT_LT(elapsed.count(), 10000) << "survivors did not terminate within the watchdog budget";

  // Exactly one structured failure report, with the right victim and cause.
  EXPECT_EQ(reports.value() - reports_before, 1u);
  ASSERT_TRUE(world.failure_report().has_value());
  const mpisim::RankFailureReport& report = *world.failure_report();
  EXPECT_EQ(report.rank, 1);
  EXPECT_EQ(report.kind, kc.kind);
  EXPECT_EQ(report.signal, kc.signal);
  EXPECT_NE(report.to_string().find(mpisim::signal_name(kc.signal)), std::string::npos)
      << report.to_string();

  // The survivor observed the poison as kRankFailed, not a hang or success.
  const std::vector<std::byte>& survivor = world.rank_result(0);
  ASSERT_EQ(survivor.size(), 1u);
  EXPECT_EQ(static_cast<MpiError>(survivor[0]), MpiError::kRankFailed);
  // The victim never published: its blob is empty.
  EXPECT_TRUE(world.rank_result(1).empty());

  // The fired kill is in the ledger, surfaced through the failure report.
  bool kill_seen = false;
  for (const faultsim::FiredFault& f : injector.fired_log()) {
    if (f.site == faultsim::Site::kRankKill) {
      kill_seen = true;
      EXPECT_EQ(f.surfaced, faultsim::Channel::kFailureReport);
      EXPECT_EQ(f.where.rank, 1);
    }
  }
  EXPECT_TRUE(kill_seen);
  injector.clear();

  expect_no_stale_segments("after rank kill");
}

INSTANTIATE_TEST_SUITE_P(
    AllKillModes, ProcRankKillTest,
    ::testing::Values(KillCase{"rank_kill@rank1#2=sigkill", FailureKind::kSignal, SIGKILL},
                      KillCase{"rank_kill@rank1#2=sigabrt", FailureKind::kSignal, SIGABRT},
                      KillCase{"rank_kill@rank1#2=hang", FailureKind::kHeartbeatTimeout,
                               SIGKILL}),
    [](const ::testing::TestParamInfo<KillCase>& param_info) {
      switch (param_info.index) {
        case 0:
          return std::string("sigkill");
        case 1:
          return std::string("sigabrt");
        default:
          return std::string("hang");
      }
    });

// ---------------------------------------------------------------------------
// Supervisor-side deadlock detection
// ---------------------------------------------------------------------------

TEST(ProcWorldTest, SupervisorDeclaresDeadlockAcrossProcesses) {
  World world(2, Backend::kProc);
  world.set_watchdog_timeout(std::chrono::milliseconds(300));
  world.run([](Comm comm) {
    // Both ranks receive, nobody sends: a textbook cycle, visible to the
    // supervisor only through the shared-memory rank slots.
    double buf = 0.0;
    Status st;
    const MpiError err =
        comm.recv(&buf, 1, Datatype::float64(), comm.rank() ^ 1, 3, &st);
    const auto code = static_cast<std::byte>(err);
    mpisim::publish_result(comm, std::span(&code, 1));
  });
  EXPECT_FALSE(world.deadlock_report().empty());
  EXPECT_EQ(world.deadlock_report().blocked.size(), 2u);
  for (int r = 0; r < 2; ++r) {
    ASSERT_EQ(world.rank_result(r).size(), 1u);
    EXPECT_EQ(static_cast<MpiError>(world.rank_result(r)[0]), MpiError::kDeadlock);
  }
  expect_no_stale_segments("after proc deadlock");
}

TEST(ProcWorldTest, RanksDoNotReemitTheParentsBufferedStdout) {
  // A line the parent still buffers when a rank forks is the parent's to
  // write: the rank drops its inherited copy instead of flushing it again
  // at exit. A forked helper makes stdout a fully buffered file and prints
  // a numbered line from a fork prepare handler, which runs after the
  // supervisor's pre-fork flush, so every rank forks with lines buffered.
  const std::string path =
      ::testing::TempDir() + "proc_stdout_" + std::to_string(::getpid()) + ".txt";
  std::fflush(nullptr);
  const pid_t helper = ::fork();
  ASSERT_GE(helper, 0);
  if (helper == 0) {
    if (std::freopen(path.c_str(), "w", stdout) == nullptr) {
      ::_exit(3);
    }
    static int written = 0;
    ::pthread_atfork([] { std::printf("line %d\n", written++); }, nullptr, nullptr);
    for (int w = 0; w < 4; ++w) {
      World world(2, Backend::kProc);
      world.run([](Comm comm) { (void)comm.barrier(); });
    }
    std::printf("total %d\n", written);
    std::fflush(stdout);
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(helper, &status, 0), helper);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "helper status " << status;

  std::ifstream file(path);
  std::vector<int> seen;
  int total = -1;
  std::size_t lines = 0;
  for (std::string line; std::getline(file, line);) {
    ++lines;
    int n = -1;
    if (std::sscanf(line.c_str(), "line %d", &n) == 1 && n >= 0) {
      seen.resize(std::max(seen.size(), static_cast<std::size_t>(n) + 1));
      ++seen[static_cast<std::size_t>(n)];
    } else if (std::sscanf(line.c_str(), "total %d", &n) == 1) {
      total = n;
    }
  }
  std::remove(path.c_str());
  ASSERT_GT(total, 0);
  EXPECT_EQ(lines, static_cast<std::size_t>(total) + 1);
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(total));
  std::size_t wrong = 0;
  for (std::size_t n = 0; n < seen.size(); ++n) {
    if (seen[n] != 1 && ++wrong <= 3) {
      ADD_FAILURE() << "line " << n << " appears " << seen[n] << " times";
    }
  }
  EXPECT_EQ(wrong, 0u);
  expect_no_stale_segments("after proc worlds under a buffered stdout");
}

// ---------------------------------------------------------------------------
// RankPayload serde
// ---------------------------------------------------------------------------

/// The golden payload: every field set except the optional divergence.
capi::serde::RankPayload golden_payload() {
  capi::serde::RankPayload in;
  in.result.rank = 3;
  rsan::RaceReport race;
  race.addr = 0xdeadbeef;
  race.access_size = 8;
  race.current.ctx = 11;
  race.current.ctx_name = "kernel_a";
  race.current.is_write = true;
  race.current.clock = 42;
  race.current.label = "buf[0:8)";
  race.previous.ctx = 7;
  race.previous.ctx_name = "MPI_Isend";
  race.previous.clock = 40;
  in.result.races.push_back(race);
  in.result.must_reports.push_back(
      must::MustReport{must::ReportKind::kRankFailure, "MPI (poisoned)", "rank 1 died"});
  in.result.metrics["rsan.races_detected"] = 1;
  in.result.shadow_bytes = 4096;
  in.result.sticky_errors = 2;
  in.metric_deltas["mpisim.proc.eager_msgs"] = 17;
  in.diagnostics.push_back(
      obs::Diagnostic{"must.rank_failure", obs::Severity::kError, 0, "peer died", 123});
  obs::Event event;
  event.ts_ns = 1000;
  event.dur_ns = 20;
  event.arg = 64;
  event.rank = 1;
  event.track = obs::stream_track(2);
  event.kind = obs::EventKind::kMemcpy;
  std::snprintf(event.name, sizeof(event.name), "cudaMemcpyAsync");
  in.events.push_back(event);
  in.sched_decisions.push_back({1, 0, schedsim::Site::kWaitany, 2, 1});
  in.sched_stats.decisions = 5;
  faultsim::FiredFault fired;
  fired.site = faultsim::Site::kSend;
  fired.action = faultsim::Action::kStall;
  fired.where.rank = 1;
  fired.surfaced = faultsim::Channel::kDeadlockReport;
  in.fired_faults.push_back(fired);
  return in;
}

TEST(ResultSerdeTest, RoundTripsAllPayloadFields) {
  const capi::serde::RankPayload in = golden_payload();
  const std::vector<std::byte> blob = capi::serde::encode(in);
  capi::serde::RankPayload out;
  ASSERT_TRUE(capi::serde::decode(blob, &out));
  EXPECT_EQ(out.result.rank, 3);
  ASSERT_EQ(out.result.races.size(), 1u);
  EXPECT_EQ(out.result.races[0].addr, 0xdeadbeefu);
  EXPECT_EQ(out.result.races[0].current.ctx_name, "kernel_a");
  EXPECT_EQ(out.result.races[0].current.label, "buf[0:8)");
  EXPECT_TRUE(out.result.races[0].current.is_write);
  ASSERT_EQ(out.result.must_reports.size(), 1u);
  EXPECT_EQ(out.result.must_reports[0].kind, must::ReportKind::kRankFailure);
  EXPECT_EQ(out.result.must_reports[0].detail, "rank 1 died");
  EXPECT_EQ(out.result.metrics, in.result.metrics);
  EXPECT_EQ(out.result.shadow_bytes, 4096u);
  EXPECT_EQ(out.result.sticky_errors, 2u);
  EXPECT_EQ(out.metric_deltas.at("mpisim.proc.eager_msgs"), 17u);
  ASSERT_EQ(out.diagnostics.size(), 1u);
  EXPECT_EQ(out.diagnostics[0].id, "must.rank_failure");
  EXPECT_EQ(out.diagnostics[0].message, "peer died");
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_EQ(out.events[0].ts_ns, 1000u);
  EXPECT_EQ(out.events[0].dur_ns, 20u);
  EXPECT_EQ(out.events[0].arg, 64u);
  EXPECT_EQ(out.events[0].rank, 1);
  EXPECT_EQ(out.events[0].track, obs::stream_track(2));
  EXPECT_EQ(out.events[0].kind, obs::EventKind::kMemcpy);
  EXPECT_STREQ(out.events[0].name, "cudaMemcpyAsync");
  ASSERT_EQ(out.sched_decisions.size(), 1u);
  EXPECT_EQ(out.sched_decisions[0].rank, 1);
  EXPECT_EQ(out.sched_decisions[0].site, schedsim::Site::kWaitany);
  EXPECT_EQ(out.sched_decisions[0].candidates, 2);
  EXPECT_EQ(out.sched_decisions[0].chosen, 1);
  EXPECT_EQ(out.sched_stats.decisions, 5u);
  EXPECT_FALSE(out.sched_divergence.has_value());
  ASSERT_EQ(out.fired_faults.size(), 1u);
  EXPECT_EQ(out.fired_faults[0].site, faultsim::Site::kSend);
  EXPECT_EQ(out.fired_faults[0].action, faultsim::Action::kStall);
  EXPECT_EQ(out.fired_faults[0].where.rank, 1);
  EXPECT_EQ(out.fired_faults[0].where.device, -1);
  EXPECT_EQ(out.fired_faults[0].surfaced, faultsim::Channel::kDeadlockReport);

  // Truncated blobs are rejected, not misread.
  std::vector<std::byte> cut(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(
                                               blob.size() / 2));
  capi::serde::RankPayload garbage;
  EXPECT_FALSE(capi::serde::decode(cut, &garbage));
}

TEST(ResultSerdeTest, EmptyElementsRoundTrip) {
  // Elements with every string empty encode at the decoder's minimum element
  // size; a count bound set too tight would reject them.
  capi::serde::RankPayload in;
  in.result.races.resize(3);
  in.result.must_reports.resize(3);
  in.result.metrics.extra[""] = 0;
  in.diagnostics.resize(3);
  in.events.resize(3);
  in.sched_decisions.resize(3);
  in.fired_faults.resize(3);
  capi::serde::RankPayload out;
  ASSERT_TRUE(capi::serde::decode(capi::serde::encode(in), &out));
  EXPECT_EQ(out.result.races.size(), 3u);
  EXPECT_EQ(out.result.must_reports.size(), 3u);
  EXPECT_EQ(out.result.metrics.extra.size(), 1u);
  EXPECT_EQ(out.diagnostics.size(), 3u);
  EXPECT_EQ(out.events.size(), 3u);
  EXPECT_EQ(out.sched_decisions.size(), 3u);
  EXPECT_EQ(out.fired_faults.size(), 3u);
}

TEST(ResultSerdeTest, MutatedBlobsAreRejectedWithoutThrowing) {
  // The parent decodes whatever a rank left in its result segment: a
  // malformed blob must fail the decode (or yield some payload), never throw
  // or allocate by a corrupt count; a fired fault it yields names a real
  // site, action and channel, an event a real kind and a terminated name,
  // and a decision one the parent's log accepts.
  const std::vector<std::byte> blob = capi::serde::encode(golden_payload());
  const auto decodes_or_rejects = [](const std::vector<std::byte>& bytes) {
    capi::serde::RankPayload out;
    bool decoded = false;
    EXPECT_NO_THROW(decoded = capi::serde::decode(bytes, &out));
    if (decoded) {
      for (const faultsim::FiredFault& f : out.fired_faults) {
        EXPECT_LE(static_cast<int>(f.site), static_cast<int>(faultsim::Site::kRankKill));
        EXPECT_LE(static_cast<int>(f.action), static_cast<int>(faultsim::Action::kHang));
        EXPECT_LE(static_cast<int>(f.surfaced),
                  static_cast<int>(faultsim::Channel::kFailureReport));
      }
      for (const obs::Event& e : out.events) {
        EXPECT_LE(static_cast<int>(e.kind), static_cast<int>(obs::EventKind::kSchedule));
        EXPECT_NE(std::memchr(e.name, '\0', sizeof(e.name)), nullptr);
      }
      schedsim::DecisionLog log;
      log.decisions = out.sched_decisions;
      schedsim::DecisionLog reparsed;
      std::string error;
      EXPECT_TRUE(schedsim::parse_log(schedsim::serialize_log(log), &reparsed, &error) ||
                  error.find("out of order") != std::string::npos)
          << error;
    }
  };

  for (std::size_t len = 0; len < blob.size(); ++len) {
    const std::vector<std::byte> cut(blob.begin(),
                                     blob.begin() + static_cast<std::ptrdiff_t>(len));
    capi::serde::RankPayload out;
    bool decoded = true;
    EXPECT_NO_THROW(decoded = capi::serde::decode(cut, &out)) << "truncated to " << len;
    EXPECT_FALSE(decoded) << "truncated to " << len;
  }

  for (const std::uint64_t word : {std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
    for (std::size_t at = 0; at + sizeof word <= blob.size(); ++at) {
      std::vector<std::byte> mutated = blob;
      std::memcpy(mutated.data() + at, &word, sizeof word);
      SCOPED_TRACE(at);
      decodes_or_rejects(mutated);
    }
  }

  std::mt19937 rng(20240917);
  for (std::size_t at = 0; at < blob.size(); ++at) {
    for (int flip = 0; flip < 4; ++flip) {
      std::vector<std::byte> mutated = blob;
      mutated[at] ^= static_cast<std::byte>(1 + rng() % 255);
      SCOPED_TRACE(at);
      decodes_or_rejects(mutated);
    }
  }
}

// ---------------------------------------------------------------------------
// Thread/proc verdict equality on a scenario subset
// ---------------------------------------------------------------------------

/// A racy and a race-free scenario from the SVI-C matrix; the full 86-way
/// sweep runs in CI (check_cutests under both backends must print identical
/// verdict lines).
[[nodiscard]] bool in_backend_subset(const testsuite::Scenario& scenario) {
  return scenario.name == "cuda_to_mpi__device__default_stream__no_sync__racy" ||
         scenario.name == "cuda_to_mpi__device__default_stream__device_sync__ok";
}

TEST(ProcScenarioTest, VerdictsMatchThreadBackendOnSubset) {
  // Same race verdict on both backends, both classified correctly.
  int compared = 0;
  for (const testsuite::Scenario& scenario : testsuite::build_scenarios()) {
    if (!in_backend_subset(scenario)) {
      continue;
    }
    std::size_t thread_races = 0;
    std::size_t proc_races = 0;
    {
      ScopedBackend scoped(Backend::kThread);
      thread_races = testsuite::run_scenario_outcome(scenario).races;
    }
    {
      ScopedBackend scoped(Backend::kProc);
      proc_races = testsuite::run_scenario_outcome(scenario).races;
    }
    EXPECT_EQ(thread_races > 0, proc_races > 0) << scenario.name;
    EXPECT_TRUE(testsuite::classified_correctly(scenario, proc_races)) << scenario.name;
    ++compared;
  }
  EXPECT_EQ(compared, 2);
  expect_no_stale_segments("after scenario subset");
}

TEST(ProcScenarioTest, RankDiagnosticsReachAParentWhoseStoreIsFull) {
  // A forked rank inherits the parent's bounded diagnostic store. Filled to
  // its cap, that store drops its oldest entry per new one and never grows,
  // so a rank must not find its own reports by an offset into it: every
  // race the ranks report still reaches the parent as one rsan.race.
  const auto scenarios = testsuite::build_scenarios();
  const auto racy = std::find_if(scenarios.begin(), scenarios.end(), [](const auto& scenario) {
    return in_backend_subset(scenario) && scenario.expect_race;
  });
  ASSERT_NE(racy, scenarios.end());

  obs::clear_diagnostics();
  obs::DiagnosticHub& hub = obs::DiagnosticHub::instance();
  while (obs::dropped_diagnostics() == 0) {
    hub.dispatch(obs::Diagnostic{"test.filler", obs::Severity::kInfo, -1, "filler", 1});
  }
  std::size_t races = 0;
  {
    ScopedBackend scoped(Backend::kProc);
    races = testsuite::run_scenario_outcome(*racy).races;
  }
  const auto retained = obs::diagnostics();
  const auto race_reports =
      std::count_if(retained.begin(), retained.end(),
                    [](const obs::Diagnostic& d) { return d.id == "rsan.race"; });
  obs::clear_diagnostics();
  EXPECT_GT(races, 0u);
  EXPECT_EQ(static_cast<std::size_t>(race_reports), races);
  expect_no_stale_segments("after full-store scenario");
}

/// Explore `program` with DPOR on the thread and on the proc backend; each
/// execution must classify as `expect_race` says and replay its pinned
/// prefix without divergence. Returns {thread, proc} explorer stats.
[[nodiscard]] std::array<schedsim::ExplorerStats, 2> explore_on_both_backends(
    const std::string& name, bool expect_race, const std::function<std::size_t()>& program) {
  std::array<schedsim::ExplorerStats, 2> stats;
  const Backend backends[2] = {Backend::kThread, Backend::kProc};
  for (int b = 0; b < 2; ++b) {
    const ScopedBackend scoped(backends[b]);
    schedsim::Explorer explorer;
    const auto executions = explorer.explore(schedsim::Controller::instance(), program);
    for (const schedsim::Execution& execution : executions) {
      EXPECT_EQ(execution.races > 0, expect_race) << name << " execution " << execution.index;
      EXPECT_FALSE(execution.diverged) << name << " execution " << execution.index;
    }
    stats[static_cast<std::size_t>(b)] = explorer.stats();
  }
  return stats;
}

TEST(ProcScenarioTest, DporExploresProcRanksLikeThreadRanks) {
  // Forked ranks ship the decisions they record back to the parent, so
  // DPOR on the proc backend sees the same decisions as on the thread
  // backend: the same executions, each one classified correctly. The corpus
  // makes no decision; the waitany program's waitany decisions are made
  // inside the forked ranks, so its exploration must record them and
  // branch there too: one two-way decision per rank, 2 x 2 executions.
  int compared = 0;
  for (const testsuite::Scenario& scenario : testsuite::build_scenarios()) {
    if (!in_backend_subset(scenario)) {
      continue;
    }
    const auto [thread, proc] =
        explore_on_both_backends(scenario.name, scenario.expect_race,
                                 [&] { return testsuite::run_scenario_outcome(scenario).races; });
    EXPECT_EQ(proc.executions, thread.executions) << scenario.name;
    ++compared;
  }
  EXPECT_EQ(compared, 2);
  for (const bool racy : {true, false}) {
    const char* name = waitany_program::name(racy);
    const auto [thread, proc] =
        explore_on_both_backends(name, racy, [racy] { return waitany_program::run(racy); });
    EXPECT_GT(proc.graph_nodes, 0u) << name;
    EXPECT_EQ(thread.executions, 4u) << name;
    EXPECT_EQ(proc.executions, thread.executions) << name;
  }
  expect_no_stale_segments("after proc DPOR subset");
}

// A proc sweep that asks for rank kills kills ranks. The plan shape is the
// CI sweep's (two faults and one rank_kill per plan, default seed); every
// corpus rank posts a single MPI operation, so a kill aimed past it would
// never fire and the sweep would be vacuous.
TEST(ProcFaultSweepTest, RankKillSweepKillsRanksAndReportsThem) {
  const ScopedBackend scoped(Backend::kProc);
  testsuite::SweepOptions options;
  options.plans = 2;
  options.faults_per_plan = 2;
  options.rank_kills = 1;
  options.watchdog = std::chrono::milliseconds(400);
  options.filter = "device__default_stream";
  const testsuite::SweepStats stats = testsuite::run_fault_sweep(options);
  ASSERT_GT(stats.runs, 0u);
  for (const auto& failure : stats.failures) {
    ADD_FAILURE() << failure;
  }
  EXPECT_GE(stats.rank_kill_runs, 1u);
  EXPECT_GE(stats.rank_failure_reports, 1u);
  EXPECT_EQ(testsuite::vacuous_reason(options, stats, Backend::kProc), "");
  expect_no_stale_segments("after rank-kill sweep");
}

}  // namespace
