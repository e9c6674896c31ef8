// Unit tests for the MUST interception layer: blocking/non-blocking buffer
// annotations, the fiber-per-request model (paper Fig. 1), fiber pooling and
// the TypeART-backed datatype checks.
#include <gtest/gtest.h>

#include <array>

#include "must/runtime.hpp"
#include "metric_value.hpp"

namespace {

using mpisim::Datatype;
using must::Config;
using must::Runtime;
using must::ReportKind;
using must::TypeCheckResult;

class MustRuntimeTest : public ::testing::Test {
 protected:
  MustRuntimeTest() : types(&db) {}

  Runtime make(Config config = {}) { return Runtime(&tsan, &types, metrics, config); }

  // A fake request handle: MUST only uses the pointer as a key.
  [[nodiscard]] const mpisim::Request* fake_request(int i) const {
    return reinterpret_cast<const mpisim::Request*>(0x1000 + i * 8);
  }

  typeart::TypeDB db;
  obs::MetricsRegistry metrics;
  rsan::Runtime tsan{metrics};
  typeart::Runtime types;
  std::array<double, 256> buf{};
};

TEST_F(MustRuntimeTest, IrecvWithoutWaitRacesWithHostAccess) {
  Runtime must = make();
  must.on_irecv(buf.data(), buf.size(), Datatype::float64(), fake_request(1));
  // Host touches the buffer before completing the request (paper Fig. 1).
  tsan.write_range(buf.data(), sizeof buf, "compute(buf)");
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 1u);
}

TEST_F(MustRuntimeTest, WaitEndsTheConcurrentRegion) {
  Runtime must = make();
  must.on_irecv(buf.data(), buf.size(), Datatype::float64(), fake_request(1));
  must.on_complete(fake_request(1));
  tsan.write_range(buf.data(), sizeof buf, "compute(buf)");
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 0u);
}

TEST_F(MustRuntimeTest, IsendReadRacesWithHostWrite) {
  Runtime must = make();
  must.on_isend(buf.data(), buf.size(), Datatype::float64(), fake_request(1));
  tsan.write_range(buf.data(), sizeof buf, "overwrite send buffer");
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 1u);
}

TEST_F(MustRuntimeTest, IsendReadDoesNotRaceWithHostRead) {
  Runtime must = make();
  must.on_isend(buf.data(), buf.size(), Datatype::float64(), fake_request(1));
  tsan.read_range(buf.data(), sizeof buf, "host read");
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 0u);
}

TEST_F(MustRuntimeTest, HostWritesBeforeIsendAreOrdered) {
  Runtime must = make();
  tsan.write_range(buf.data(), sizeof buf, "prepare buffer");
  must.on_isend(buf.data(), buf.size(), Datatype::float64(), fake_request(1));
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 0u);
}

TEST_F(MustRuntimeTest, TwoConcurrentRequestsOnDisjointBuffersDoNotRace) {
  Runtime must = make();
  must.on_irecv(buf.data(), 128, Datatype::float64(), fake_request(1));
  must.on_irecv(buf.data() + 128, 128, Datatype::float64(), fake_request(2));
  must.on_complete(fake_request(1));
  must.on_complete(fake_request(2));
  tsan.write_range(buf.data(), sizeof buf, "after both");
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 0u);
  EXPECT_EQ(metric_value(metrics, "must.request_fibers_created"), 2u);
}

TEST_F(MustRuntimeTest, OverlappingConcurrentRequestsRace) {
  // Two in-flight receives into the same buffer: MUST models them on
  // distinct fibers, so they race with each other.
  Runtime must = make();
  must.on_irecv(buf.data(), buf.size(), Datatype::float64(), fake_request(1));
  must.on_irecv(buf.data(), buf.size(), Datatype::float64(), fake_request(2));
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 1u);
}

TEST_F(MustRuntimeTest, FibersArePooledAfterCompletion) {
  Runtime must = make();
  for (int i = 0; i < 10; ++i) {
    must.on_irecv(buf.data(), buf.size(), Datatype::float64(), fake_request(i));
    must.on_complete(fake_request(i));
  }
  EXPECT_EQ(metric_value(metrics, "must.request_fibers_created"), 1u);
  EXPECT_EQ(metric_value(metrics, "must.request_fibers_reused"), 9u);
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 0u);  // sequentialized via wait
}

TEST_F(MustRuntimeTest, BlockingCallsAnnotateOnHost) {
  Runtime must = make();
  must.on_send(buf.data(), buf.size(), Datatype::float64());
  must.on_recv(buf.data(), buf.size(), Datatype::float64());
  // Host-context annotations: no fibers involved.
  EXPECT_EQ(metric_value(metrics, "must.request_fibers_created"), 0u);
  EXPECT_EQ(metric_value(metrics, "rsan.read_range_calls"), 1u);
  EXPECT_EQ(metric_value(metrics, "rsan.write_range_calls"), 1u);
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 0u);
}

TEST_F(MustRuntimeTest, NonContiguousTypeAnnotatesOnlyTouchedBytes) {
  Runtime must = make();
  // Vector: 4 blocks of 1 double, stride 2 -> holes at odd indices.
  const auto col = Datatype::vector(Datatype::float64(), 4, 1, 2);
  must.on_irecv(buf.data(), 1, col, fake_request(1));
  // Host writes a hole: must NOT race.
  tsan.write_range(&buf[1], sizeof(double), "hole access");
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 0u);
  // Host writes a touched block: races.
  tsan.write_range(&buf[2], sizeof(double), "block access");
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 1u);
  must.on_complete(fake_request(1));
}

TEST_F(MustRuntimeTest, RaceCheckDisabledByConfig) {
  Config config;
  config.check_races = false;
  Runtime must = make(config);
  must.on_irecv(buf.data(), buf.size(), Datatype::float64(), fake_request(1));
  tsan.write_range(buf.data(), sizeof buf, "host");
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 0u);
  must.on_complete(fake_request(1));  // harmless without tracking
}

TEST_F(MustRuntimeTest, CollectiveAnnotations) {
  Runtime must = make();
  std::array<double, 16> send{};
  std::array<double, 64> recv{};
  must.on_bcast(buf.data(), 8, Datatype::float64(), /*is_root=*/true);
  must.on_bcast(buf.data(), 8, Datatype::float64(), /*is_root=*/false);
  must.on_reduce(send.data(), recv.data(), 16, Datatype::float64(), /*is_root=*/true);
  must.on_allreduce(send.data(), recv.data(), 16, Datatype::float64());
  must.on_allgather(send.data(), 16, Datatype::float64(), recv.data(), 4);
  must.on_barrier();
  EXPECT_EQ(metric_value(metrics, "must.calls_intercepted"), 6u);
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 0u);
}

// -- TypeART-backed datatype checks -----------------------------------------------

class MustTypeCheckTest : public MustRuntimeTest {
 protected:
  MustTypeCheckTest() {
    types.on_alloc(buf.data(), typeart::kDouble, buf.size(), typeart::AllocKind::kDevice);
  }

  Config type_config() {
    Config config;
    config.check_types = true;
    return config;
  }
};

TEST_F(MustTypeCheckTest, MatchingTypePasses) {
  Runtime must = make(type_config());
  must.on_send(buf.data(), buf.size(), Datatype::float64());
  EXPECT_EQ(metric_value(metrics, "must.type_checks"), 1u);
  EXPECT_EQ(metric_value(metrics, "must.type_errors"), 0u);
  EXPECT_TRUE(must.reports().empty());
}

TEST_F(MustTypeCheckTest, TypeMismatchReported) {
  Runtime must = make(type_config());
  // Declaring MPI_INT on a double buffer.
  must.on_send(buf.data(), 4, Datatype::int32());
  ASSERT_EQ(must.reports().size(), 1u);
  EXPECT_EQ(must.reports()[0].kind, ReportKind::kTypeMismatch);
  EXPECT_EQ(must.reports()[0].mpi_call, "MPI_Send");
}

TEST_F(MustTypeCheckTest, MpiByteMatchesAnything) {
  Runtime must = make(type_config());
  must.on_send(buf.data(), sizeof buf, Datatype::byte());
  EXPECT_EQ(metric_value(metrics, "must.type_errors"), 0u);
}

TEST_F(MustTypeCheckTest, CountOverflowReported) {
  Runtime must = make(type_config());
  must.on_recv(buf.data(), buf.size() + 1, Datatype::float64());
  ASSERT_EQ(must.reports().size(), 1u);
  EXPECT_EQ(must.reports()[0].kind, ReportKind::kBufferOverflow);
}

TEST_F(MustTypeCheckTest, OverflowFromInteriorPointer) {
  Runtime must = make(type_config());
  // Starting mid-buffer, the full count no longer fits.
  must.on_send(buf.data() + 200, 100, Datatype::float64());
  ASSERT_EQ(must.reports().size(), 1u);
  EXPECT_EQ(must.reports()[0].kind, ReportKind::kBufferOverflow);
}

TEST_F(MustTypeCheckTest, UntrackedBufferSilentByDefault) {
  Runtime must = make(type_config());
  double stack_buf[4] = {};
  must.on_send(stack_buf, 4, Datatype::float64());
  EXPECT_TRUE(must.reports().empty());

  Config loud = type_config();
  loud.report_untracked = true;
  Runtime strict = make(loud);
  strict.on_send(stack_buf, 4, Datatype::float64());
  ASSERT_EQ(strict.reports().size(), 1u);
  EXPECT_EQ(strict.reports()[0].kind, ReportKind::kUntrackedBuffer);
}

TEST_F(MustTypeCheckTest, StructLayoutCompatibility) {
  // struct Cell { double v; int32 tag; int32 pad; } tracked allocation;
  // sending MPI_DOUBLE at offset 0 of each element is fine only if the
  // stride matches — sending it as a contiguous double run is a mismatch.
  const auto cell = db.register_struct("Cell", 16,
                                       {typeart::StructMember{0, typeart::kDouble, 1},
                                        typeart::StructMember{8, typeart::kInt32, 1},
                                        typeart::StructMember{12, typeart::kInt32, 1}});
  ASSERT_NE(cell, typeart::kUnknownType);
  alignas(16) std::array<std::byte, 160> cells{};
  types.on_alloc(cells.data(), cell, 10, typeart::AllocKind::kDevice);

  Runtime must = make(type_config());
  // 2 contiguous doubles span offsets 0..16: the second lands on the int32
  // pair -> mismatch.
  must.on_send(cells.data(), 2, Datatype::float64());
  ASSERT_EQ(must.reports().size(), 1u);
  EXPECT_EQ(must.reports()[0].kind, ReportKind::kTypeMismatch);

  // One double per element start is layout-compatible via a vector type of
  // stride 2 doubles.
  const auto strided = Datatype::vector(Datatype::float64(), 10, 1, 2);
  must.on_send(cells.data(), 1, strided);
  EXPECT_EQ(must.reports().size(), 1u);  // no new report
}

TEST_F(MustTypeCheckTest, ZeroCountSkipsChecks) {
  Runtime must = make(type_config());
  must.on_send(buf.data(), 0, Datatype::float64());
  EXPECT_EQ(metric_value(metrics, "must.type_checks"), 0u);
}

// -- Deadlock report relay --------------------------------------------------------

TEST_F(MustRuntimeTest, DeadlockReportRelayedOnce) {
  Runtime must = make();
  mpisim::DeadlockReport report;
  report.world_size = 2;
  mpisim::BlockedOp op;
  op.rank = 0;
  op.op = "MPI_Recv";
  op.peer = 1;
  op.tag = 42;
  report.blocked.push_back(op);

  must.on_deadlock(0, report);
  ASSERT_EQ(must.reports().size(), 1u);
  EXPECT_EQ(must.reports()[0].kind, ReportKind::kDeadlock);
  // The report names the rank's own blocked call and carries the full
  // per-rank table in the detail text.
  EXPECT_EQ(must.reports()[0].mpi_call, "MPI_Recv");
  EXPECT_NE(must.reports()[0].detail.find("rank 0"), std::string::npos);
  EXPECT_EQ(metric_value(metrics, "must.deadlocks_reported"), 1u);

  // A poisoned communicator returns kDeadlock from every further call; the
  // relay must not multiply reports.
  must.on_deadlock(0, report);
  must.on_deadlock(0, report);
  EXPECT_EQ(must.reports().size(), 1u);
  EXPECT_EQ(metric_value(metrics, "must.deadlocks_reported"), 1u);
}

TEST_F(MustRuntimeTest, DeadlockRelayIgnoresEmptyReports) {
  Runtime must = make();
  must.on_deadlock(0, mpisim::DeadlockReport{});
  EXPECT_TRUE(must.reports().empty());
  EXPECT_EQ(metric_value(metrics, "must.deadlocks_reported"), 0u);
}

TEST_F(MustRuntimeTest, DeadlockOfAnotherRankStillReported) {
  // The declaring rank may not itself be in the blocked table (it could be
  // soft-blocked or already past the call): the relay falls back to a
  // generic call name but still reports.
  Runtime must = make();
  mpisim::DeadlockReport report;
  report.world_size = 2;
  mpisim::BlockedOp op;
  op.rank = 1;
  op.op = "MPI_Barrier";
  report.blocked.push_back(op);
  must.on_deadlock(0, report);
  ASSERT_EQ(must.reports().size(), 1u);
  EXPECT_EQ(must.reports()[0].kind, ReportKind::kDeadlock);
  EXPECT_NE(must.reports()[0].detail.find("MPI_Barrier"), std::string::npos);
}

}  // namespace
