// Unit tests for the rsan runtime: the happens-before engine, fibers, range
// tracking, race detection/reporting and its configuration knobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "rsan/runtime.hpp"
#include "metric_value.hpp"

namespace {

using rsan::CtxKind;
using rsan::Runtime;
using rsan::RuntimeConfig;

class RsanRuntimeTest : public ::testing::Test {
 protected:
  obs::MetricsRegistry metrics;
  Runtime rt{metrics};
  std::array<double, 1024> buf{};
  int sync_key{};
};

TEST_F(RsanRuntimeTest, HostContextExists) {
  EXPECT_EQ(rt.current_ctx(), rt.host_ctx());
  EXPECT_EQ(rt.context(rt.host_ctx()).kind, CtxKind::kHostThread);
  EXPECT_EQ(rt.context(rt.host_ctx()).name, "host");
}

TEST_F(RsanRuntimeTest, WriteWriteRaceBetweenUnsyncedContexts) {
  const auto fiber = rt.create_fiber(CtxKind::kStreamFiber, "s1");
  rt.switch_to_fiber(fiber);
  rt.write_range(buf.data(), sizeof buf, "fiber write");
  rt.switch_to_fiber(rt.host_ctx());
  rt.write_range(buf.data(), sizeof buf, "host write");
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 1u);
  ASSERT_EQ(rt.reports().size(), 1u);
  EXPECT_EQ(rt.reports()[0].previous.ctx, fiber);
  EXPECT_TRUE(rt.reports()[0].current.is_write);
  EXPECT_TRUE(rt.reports()[0].previous.is_write);
}

TEST_F(RsanRuntimeTest, ReadWriteRaceDetected) {
  const auto fiber = rt.create_fiber(CtxKind::kStreamFiber, "s1");
  rt.switch_to_fiber(fiber);
  rt.write_range(buf.data(), sizeof buf, "fiber write");
  rt.switch_to_fiber(rt.host_ctx());
  rt.read_range(buf.data(), sizeof buf, "host read");
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 1u);
  EXPECT_FALSE(rt.reports()[0].current.is_write);
}

TEST_F(RsanRuntimeTest, ReadReadIsNotARace) {
  const auto fiber = rt.create_fiber(CtxKind::kStreamFiber, "s1");
  rt.switch_to_fiber(fiber);
  rt.read_range(buf.data(), sizeof buf);
  rt.switch_to_fiber(rt.host_ctx());
  rt.read_range(buf.data(), sizeof buf);
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 0u);
}

TEST_F(RsanRuntimeTest, HappensBeforeOrdersAccesses) {
  const auto fiber = rt.create_fiber(CtxKind::kStreamFiber, "s1");
  rt.switch_to_fiber(fiber);
  rt.write_range(buf.data(), sizeof buf);
  rt.happens_before(&sync_key);  // fiber releases
  rt.switch_to_fiber(rt.host_ctx());
  rt.happens_after(&sync_key);  // host acquires
  rt.write_range(buf.data(), sizeof buf);
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 0u);
}

TEST_F(RsanRuntimeTest, ReleaseAfterAccessDoesNotOrderLaterAccesses) {
  const auto fiber = rt.create_fiber(CtxKind::kStreamFiber, "s1");
  rt.switch_to_fiber(fiber);
  rt.happens_before(&sync_key);              // release BEFORE the access
  rt.write_range(buf.data(), sizeof buf);    // access not covered by release
  rt.switch_to_fiber(rt.host_ctx());
  rt.happens_after(&sync_key);
  rt.write_range(buf.data(), sizeof buf);
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 1u);
}

TEST_F(RsanRuntimeTest, FiberSwitchCarriesNoSynchronization) {
  const auto fiber = rt.create_fiber(CtxKind::kUserFiber, "f");
  // Host writes AFTER fiber creation, so creation-time inheritance does not
  // cover it; a bare switch must not synchronize either.
  rt.write_range(buf.data(), sizeof buf);
  rt.switch_to_fiber(fiber);
  rt.write_range(buf.data(), sizeof buf);
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 1u);
}

TEST_F(RsanRuntimeTest, FiberCreationInheritsCreatorClock) {
  rt.write_range(buf.data(), sizeof buf);  // host write first
  const auto fiber = rt.create_fiber(CtxKind::kUserFiber, "f");
  rt.switch_to_fiber(fiber);
  rt.write_range(buf.data(), sizeof buf);  // ordered after host write
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 0u);
}

TEST_F(RsanRuntimeTest, TransitiveHappensBefore) {
  const auto f1 = rt.create_fiber(CtxKind::kStreamFiber, "s1");
  const auto f2 = rt.create_fiber(CtxKind::kStreamFiber, "s2");
  int key12{};
  int key2h{};
  rt.switch_to_fiber(f1);
  rt.write_range(buf.data(), sizeof buf);
  rt.happens_before(&key12);
  rt.switch_to_fiber(f2);
  rt.happens_after(&key12);
  rt.happens_before(&key2h);
  rt.switch_to_fiber(rt.host_ctx());
  rt.happens_after(&key2h);
  rt.write_range(buf.data(), sizeof buf);  // ordered after f1 via f2
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 0u);
}

TEST_F(RsanRuntimeTest, AcquireOfUnreleasedKeyIsNoop) {
  rt.happens_after(&sync_key);
  EXPECT_EQ(metric_value(metrics, "rsan.hb_after"), 1u);
  EXPECT_FALSE(rt.has_sync_object(&sync_key));
  rt.happens_before(&sync_key);
  EXPECT_TRUE(rt.has_sync_object(&sync_key));
}

TEST_F(RsanRuntimeTest, ReleaseSyncObjectForgetsClock) {
  const auto fiber = rt.create_fiber(CtxKind::kStreamFiber, "s1");
  rt.switch_to_fiber(fiber);
  rt.write_range(buf.data(), sizeof buf);
  rt.happens_before(&sync_key);
  rt.release_sync_object(&sync_key);
  rt.switch_to_fiber(rt.host_ctx());
  rt.happens_after(&sync_key);  // no-op now
  rt.write_range(buf.data(), sizeof buf);
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 1u);
}

TEST_F(RsanRuntimeTest, PartialOverlapRaces) {
  const auto fiber = rt.create_fiber(CtxKind::kStreamFiber, "s1");
  rt.switch_to_fiber(fiber);
  rt.write_range(buf.data(), 512 * sizeof(double), "first half");
  rt.switch_to_fiber(rt.host_ctx());
  // Host touches the second half only: no overlap, no race.
  rt.write_range(buf.data() + 512, 512 * sizeof(double), "second half");
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 0u);
  // Now host touches a range straddling the boundary.
  rt.write_range(buf.data() + 500, 24 * sizeof(double), "straddle");
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 1u);
}

TEST_F(RsanRuntimeTest, DisjointAddressesNeverRace) {
  std::array<double, 64> other{};
  const auto fiber = rt.create_fiber(CtxKind::kStreamFiber, "s1");
  rt.switch_to_fiber(fiber);
  rt.write_range(buf.data(), sizeof buf);
  rt.switch_to_fiber(rt.host_ctx());
  rt.write_range(other.data(), sizeof other);
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 0u);
}

TEST_F(RsanRuntimeTest, SameContextNeverRaces) {
  rt.write_range(buf.data(), sizeof buf);
  rt.read_range(buf.data(), sizeof buf);
  rt.write_range(buf.data(), sizeof buf);
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 0u);
}

TEST_F(RsanRuntimeTest, RaceCountedOncePerRangeCall) {
  const auto fiber = rt.create_fiber(CtxKind::kStreamFiber, "s1");
  rt.switch_to_fiber(fiber);
  rt.write_range(buf.data(), sizeof buf);  // thousands of granules
  rt.switch_to_fiber(rt.host_ctx());
  rt.write_range(buf.data(), sizeof buf);
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 1u);
  EXPECT_EQ(rt.reports().size(), 1u);
}

TEST_F(RsanRuntimeTest, DuplicateReportsAreDeduped) {
  const auto fiber = rt.create_fiber(CtxKind::kStreamFiber, "s1");
  for (int i = 0; i < 5; ++i) {
    rt.switch_to_fiber(fiber);
    rt.write_range(buf.data(), 64);
    rt.switch_to_fiber(rt.host_ctx());
    rt.write_range(buf.data(), 64);
  }
  EXPECT_GE(metric_value(metrics, "rsan.races_detected"), 5u);
  EXPECT_EQ(rt.reports().size(), 1u);  // same ctx pair + page
}

TEST_F(RsanRuntimeTest, ReportCarriesHistoryLabels) {
  const auto fiber = rt.create_fiber(CtxKind::kStreamFiber, "stream 1");
  rt.switch_to_fiber(fiber);
  rt.write_range(buf.data(), sizeof buf, "kernel 'k' arg 0 [write]");
  rt.switch_to_fiber(rt.host_ctx());
  rt.read_range(buf.data(), sizeof buf, "MPI_Send buffer (read)");
  ASSERT_EQ(rt.reports().size(), 1u);
  const auto& report = rt.reports()[0];
  EXPECT_EQ(report.current.label, "MPI_Send buffer (read)");
  EXPECT_EQ(report.previous.label, "kernel 'k' arg 0 [write]");
  EXPECT_EQ(report.previous.ctx_name, "stream 1");
  EXPECT_EQ(report.previous.kind, CtxKind::kStreamFiber);
}

TEST_F(RsanRuntimeTest, ResetShadowRangeForgetsAccesses) {
  const auto fiber = rt.create_fiber(CtxKind::kStreamFiber, "s1");
  rt.switch_to_fiber(fiber);
  rt.write_range(buf.data(), sizeof buf);
  rt.switch_to_fiber(rt.host_ctx());
  rt.reset_shadow_range(buf.data(), sizeof buf);  // e.g. the memory was freed
  rt.write_range(buf.data(), sizeof buf);
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 0u);
}

TEST_F(RsanRuntimeTest, TrackMemoryOffDisablesDetection) {
  RuntimeConfig config;
  config.track_memory = false;
  obs::MetricsRegistry quiet_metrics;
  Runtime quiet(quiet_metrics, config);
  const auto fiber = quiet.create_fiber(CtxKind::kStreamFiber, "s1");
  quiet.switch_to_fiber(fiber);
  quiet.write_range(buf.data(), sizeof buf);
  quiet.switch_to_fiber(quiet.host_ctx());
  quiet.write_range(buf.data(), sizeof buf);
  EXPECT_EQ(metric_value(quiet_metrics, "rsan.races_detected"), 0u);
  EXPECT_EQ(quiet.shadow_resident_bytes(), 0u);
  // Counters still tally the calls (needed for Table I even in ablation).
  EXPECT_EQ(metric_value(quiet_metrics, "rsan.write_range_calls"), 2u);
}

TEST_F(RsanRuntimeTest, CountersTallyCallsAndBytes) {
  rt.read_range(buf.data(), 100);
  rt.write_range(buf.data(), 200);
  rt.write_range(buf.data(), 50);
  rt.plain_read(buf.data(), 8);
  rt.plain_write(buf.data(), 8);
  EXPECT_EQ(metric_value(metrics, "rsan.read_range_calls"), 1u);
  EXPECT_EQ(metric_value(metrics, "rsan.write_range_calls"), 2u);
  EXPECT_EQ(metric_value(metrics, "rsan.read_range_bytes"), 100u);
  EXPECT_EQ(metric_value(metrics, "rsan.write_range_bytes"), 250u);
  EXPECT_EQ(metric_value(metrics, "rsan.plain_reads"), 1u);
  EXPECT_EQ(metric_value(metrics, "rsan.plain_writes"), 1u);
}

TEST_F(RsanRuntimeTest, FiberSwitchCounter) {
  const auto fiber = rt.create_fiber(CtxKind::kUserFiber, "f");
  rt.switch_to_fiber(fiber);
  rt.switch_to_fiber(fiber);  // no-op switch not counted
  rt.switch_to_fiber(rt.host_ctx());
  EXPECT_EQ(metric_value(metrics, "rsan.fiber_switches"), 2u);
}

TEST_F(RsanRuntimeTest, ReportLimitCapsStorageNotCounting) {
  RuntimeConfig config;
  config.report_limit = 2;
  obs::MetricsRegistry limited_metrics;
  Runtime limited(limited_metrics, config);
  const auto fiber = limited.create_fiber(CtxKind::kStreamFiber, "s1");
  // Different pages → different dedup keys.
  static std::array<std::array<double, 1024>, 5> bufs{};
  for (auto& b : bufs) {
    limited.switch_to_fiber(fiber);
    limited.write_range(b.data(), sizeof b);
    limited.switch_to_fiber(limited.host_ctx());
    limited.write_range(b.data(), sizeof b);
  }
  EXPECT_EQ(metric_value(limited_metrics, "rsan.races_detected"), 5u);
  EXPECT_EQ(limited.reports().size(), 2u);
}

TEST_F(RsanRuntimeTest, ShadowEvictionStillDetectsConflicts) {
  // More concurrent contexts than shadow slots: eviction must not crash and
  // the most recent writers stay visible.
  std::vector<rsan::CtxId> fibers;
  for (int i = 0; i < 8; ++i) {
    fibers.push_back(rt.create_fiber(CtxKind::kUserFiber, "f" + std::to_string(i)));
  }
  for (const auto f : fibers) {
    rt.switch_to_fiber(f);
    rt.write_range(buf.data(), 64);
  }
  rt.switch_to_fiber(rt.host_ctx());
  rt.write_range(buf.data(), 64);
  EXPECT_GE(metric_value(metrics, "rsan.races_detected"), 1u);
}

TEST_F(RsanRuntimeTest, InternedLabelSurvives) {
  const char* label = rt.intern(std::string("dynamic label ") + "42");
  EXPECT_STREQ(label, "dynamic label 42");
}

TEST_F(RsanRuntimeTest, DestroyedFiberStillNamedInReports) {
  const auto fiber = rt.create_fiber(CtxKind::kMpiRequestFiber, "req 1");
  rt.switch_to_fiber(fiber);
  rt.write_range(buf.data(), 64, "MPI_Irecv buffer (write)");
  rt.switch_to_fiber(rt.host_ctx());
  rt.destroy_fiber(fiber);
  rt.write_range(buf.data(), 64);
  ASSERT_EQ(rt.reports().size(), 1u);
  EXPECT_EQ(rt.reports()[0].previous.ctx_name, "req 1");
}

TEST_F(RsanRuntimeTest, ZeroSizeAccessIsNoop) {
  rt.write_range(buf.data(), 0);
  EXPECT_EQ(rt.shadow_resident_bytes(), 0u);
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 0u);
}

TEST_F(RsanRuntimeTest, IgnoreScopeSkipsTrackingAndChecking) {
  const auto fiber = rt.create_fiber(CtxKind::kStreamFiber, "s1");
  rt.switch_to_fiber(fiber);
  rt.write_range(buf.data(), sizeof buf, "fiber write");
  rt.switch_to_fiber(rt.host_ctx());
  rt.ignore_begin();
  EXPECT_TRUE(rt.ignoring());
  rt.write_range(buf.data(), sizeof buf, "ignored host write");  // no race, not tracked
  rt.ignore_end();
  EXPECT_FALSE(rt.ignoring());
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 0u);
  EXPECT_EQ(metric_value(metrics, "rsan.ignored_accesses"), 1u);
  // After the scope ends, accesses race again.
  rt.write_range(buf.data(), sizeof buf, "host write");
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 1u);
}

TEST_F(RsanRuntimeTest, ReportsExportAsJsonl) {
  const auto fiber = rt.create_fiber(CtxKind::kStreamFiber, "stream 1");
  rt.switch_to_fiber(fiber);
  rt.write_range(buf.data(), 64, "kernel 'k' arg 0 [write]");
  rt.switch_to_fiber(rt.host_ctx());
  rt.read_range(buf.data(), 64, "MPI_Send buffer (read)");
  ASSERT_EQ(rt.reports().size(), 1u);
  const std::string jsonl = rsan::reports_to_jsonl(rt.reports());
  EXPECT_NE(jsonl.find(R"("access":"write")"), std::string::npos);
  EXPECT_NE(jsonl.find(R"("access":"read")"), std::string::npos);
  EXPECT_NE(jsonl.find(R"("name":"stream 1")"), std::string::npos);
  EXPECT_NE(jsonl.find(R"("op":"kernel 'k' arg 0 [write]")"), std::string::npos);
  EXPECT_NE(jsonl.find(R"("kind":"CUDA stream")"), std::string::npos);
  EXPECT_EQ(jsonl.back(), '\n');
  EXPECT_TRUE(rsan::reports_to_jsonl({}).empty());
}

TEST_F(RsanRuntimeTest, IgnoreScopesNest) {
  rt.ignore_begin();
  rt.ignore_begin();
  rt.ignore_end();
  EXPECT_TRUE(rt.ignoring());
  rt.ignore_end();
  EXPECT_FALSE(rt.ignoring());
}

TEST_F(RsanRuntimeTest, IgnoreIsPerContext) {
  const auto fiber = rt.create_fiber(CtxKind::kStreamFiber, "s1");
  rt.ignore_begin();  // host ignores
  rt.switch_to_fiber(fiber);
  EXPECT_FALSE(rt.ignoring());  // the fiber does not
  rt.write_range(buf.data(), sizeof buf, "fiber write");  // tracked
  rt.switch_to_fiber(rt.host_ctx());
  EXPECT_TRUE(rt.ignoring());
  rt.ignore_end();
  rt.write_range(buf.data(), sizeof buf, "host write");
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 1u);
}

TEST_F(RsanRuntimeTest, IgnoreDoesNotAffectSynchronization) {
  const auto fiber = rt.create_fiber(CtxKind::kStreamFiber, "s1");
  rt.switch_to_fiber(fiber);
  rt.write_range(buf.data(), sizeof buf);
  rt.ignore_begin();
  rt.happens_before(&sync_key);  // sync annotations still work while ignoring
  rt.ignore_end();
  rt.switch_to_fiber(rt.host_ctx());
  rt.happens_after(&sync_key);
  rt.write_range(buf.data(), sizeof buf);
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 0u);
}

// Golden report test for the attribution fix: the report names the racing
// granule's bytes clipped to the current access, not the whole annotated
// range starting at a granule boundary.
TEST_F(RsanRuntimeTest, RaceAttributionClipsToConflictingGranule) {
  const auto fiber = rt.create_fiber(CtxKind::kStreamFiber, "s1");
  rt.switch_to_fiber(fiber);
  rt.write_range(&buf[4], 8, "fiber write");  // exactly one granule
  rt.switch_to_fiber(rt.host_ctx());
  // The host access starts 4 bytes into the conflicting granule and spans 20
  // bytes; only the granule's trailing 4 bytes overlap the access.
  const auto* start = reinterpret_cast<const char*>(&buf[4]) + 4;
  rt.write_range(start, 20, "host write");
  ASSERT_EQ(rt.reports().size(), 1u);
  EXPECT_EQ(rt.reports()[0].addr, reinterpret_cast<std::uintptr_t>(start));
  EXPECT_EQ(rt.reports()[0].access_size, 4u);
}

TEST_F(RsanRuntimeTest, RaceAttributionPointsAtMiddleGranule) {
  const auto fiber = rt.create_fiber(CtxKind::kStreamFiber, "s1");
  rt.switch_to_fiber(fiber);
  rt.write_range(&buf[6], 8, "fiber write");
  rt.switch_to_fiber(rt.host_ctx());
  rt.write_range(&buf[4], 4 * sizeof(double), "host write");  // granules 4..7
  ASSERT_EQ(rt.reports().size(), 1u);
  // The race is attributed to granule 6 — the conflicting one — with the
  // full 8 granule bytes (they lie entirely inside the access).
  EXPECT_EQ(rt.reports()[0].addr, reinterpret_cast<std::uintptr_t>(&buf[6]));
  EXPECT_EQ(rt.reports()[0].access_size, sizeof(double));
}

// -- Shadow fast path --------------------------------------------------------

TEST_F(RsanRuntimeTest, ResetRangeInvalidatesFastPathState) {
  RuntimeConfig config;
  config.use_shadow_fast_path = true;
  obs::MetricsRegistry fast_metrics;
  Runtime fast(fast_metrics, config);
  fast.write_range(buf.data(), sizeof buf);
  fast.reset_shadow_range(buf.data(), sizeof buf);
  fast.write_range(buf.data(), sizeof buf);
  // The repeat after the reset really stored: the shadow holds valid cells.
  EXPECT_TRUE(fast.shadow().load(reinterpret_cast<std::uintptr_t>(buf.data()))[0].valid());
}

TEST_F(RsanRuntimeTest, FastPathStillDetectsRacesAfterHits) {
  RuntimeConfig config;
  config.use_shadow_fast_path = true;
  obs::MetricsRegistry fast_metrics;
  Runtime fast(fast_metrics, config);
  const auto fiber = fast.create_fiber(CtxKind::kStreamFiber, "s1");
  fast.switch_to_fiber(fiber);
  fast.write_range(buf.data(), sizeof buf, "fiber write");
  fast.write_range(buf.data(), sizeof buf, "fiber write");  // decided on the runs
  fast.switch_to_fiber(fast.host_ctx());
  fast.write_range(buf.data(), sizeof buf, "host write");
  EXPECT_EQ(metric_value(fast_metrics, "rsan.races_detected"), 1u);
}

// -- Deferred shadow stores: a uniform run is the state of its granules ------

/// One shadow block's worth of block-aligned bytes, so a whole-block range
/// maps onto exactly one shadow block.
std::byte* block_aligned_page() {
  alignas(rsan::kBlockAppBytes) static std::array<std::byte, rsan::kBlockAppBytes> page{};
  return page.data();
}

std::uintptr_t granule_addr(const std::byte* page, std::size_t g) {
  return reinterpret_cast<std::uintptr_t>(page) + g * rsan::kGranuleBytes;
}

bool raw_cells_zero(const rsan::ShadowBlock& blk, std::size_t g_lo, std::size_t g_hi) {
  for (std::size_t g = g_lo; g <= g_hi; ++g) {
    if (!std::equal(rsan::kEmptyGranule.begin(), rsan::kEmptyGranule.end(), blk.cells(g))) {
      return false;
    }
  }
  return true;
}

/// Every granule of `page`'s block reads the same through load() in both
/// runtimes.
void expect_same_block_state(const Runtime& fast, const Runtime& reference,
                             const std::byte* page) {
  for (std::size_t g = 0; g < rsan::kGranulesPerBlock; ++g) {
    const auto f = fast.shadow().load(granule_addr(page, g));
    const auto r = reference.shadow().load(granule_addr(page, g));
    for (std::size_t s = 0; s < rsan::kShadowSlots; ++s) {
      ASSERT_EQ(f[s].raw, r[s].raw) << "granule " << g << " slot " << s;
    }
  }
}

class DeferredStoreTest : public ::testing::Test {
 protected:
  static RuntimeConfig config(bool fast_path) {
    RuntimeConfig c;
    c.use_shadow_fast_path = fast_path;
    return c;
  }
  /// The same annotation on the fast-path runtime and the reference one.
  void write(std::size_t offset, std::size_t size) {
    fast.write_range(page + offset, size);
    reference.write_range(page + offset, size);
  }
  void tick() {
    fast.happens_before(&key);
    reference.happens_before(&key);
  }

  obs::MetricsRegistry fast_metrics;
  Runtime fast{fast_metrics, config(true)};
  obs::MetricsRegistry reference_metrics;
  Runtime reference{reference_metrics, config(false)};
  std::byte* page = block_aligned_page();
  int key{};
};

TEST_F(DeferredStoreTest, FirstWholeBlockTouchIsABlockHit) {
  write(0, rsan::kBlockAppBytes);
  EXPECT_EQ(metric_value(fast_metrics, "rsan.fastpath_block_hits"), 1u);
  EXPECT_EQ(metric_value(fast_metrics, "rsan.fastpath_block_misses"), 0u);
  EXPECT_EQ(metric_value(fast_metrics, "rsan.fastpath_granules_elided"),
            rsan::kGranulesPerBlock);
  // The block stays one run; the reference scan writes every granule,
  // which allocates each of the block's cell pages.
  EXPECT_EQ(metric_value(fast_metrics, "rsan.cell_pages"), 0u);
  EXPECT_EQ(metric_value(reference_metrics, "rsan.cell_pages"), rsan::kCellPages);
  expect_same_block_state(fast, reference, page);
}

TEST_F(DeferredStoreTest, WholeBlockStoreAtNewEpochWritesNoRawCell) {
  write(0, rsan::kBlockAppBytes);
  tick();
  write(0, rsan::kBlockAppBytes);
  const rsan::ShadowBlock* blk = fast.shadow().block_if_present(granule_addr(page, 0));
  ASSERT_NE(blk, nullptr);
  EXPECT_TRUE(raw_cells_zero(*blk, 0, rsan::kGranulesPerBlock - 1));
  EXPECT_EQ(metric_value(fast_metrics, "rsan.fastpath_block_hits"), 2u);
  const rsan::ShadowCell cell = fast.shadow().load(granule_addr(page, 7))[0];
  EXPECT_TRUE(cell.valid());
  EXPECT_TRUE(cell.is_write());
  EXPECT_EQ(cell.ctx(), fast.host_ctx());
  expect_same_block_state(fast, reference, page);
}

TEST_F(DeferredStoreTest, PartialAccessSplitsTheRunAndWritesNoRawCell) {
  write(0, rsan::kBlockAppBytes);
  tick();
  write(100 * rsan::kGranuleBytes, 100 * rsan::kGranuleBytes);  // granules 100..199
  const rsan::ShadowBlock* blk = fast.shadow().block_if_present(granule_addr(page, 0));
  ASSERT_NE(blk, nullptr);
  // The store split the whole-block run at the segment edges; no granule
  // left the runs, so no raw cell was written.
  ASSERT_EQ(blk->runs.size(), 3u);
  EXPECT_EQ(blk->runs[1].lo, 100u);
  EXPECT_EQ(blk->runs[1].hi, 199u);
  EXPECT_EQ(blk->runs[0].cells, blk->runs[2].cells);
  EXPECT_EQ(fast.shadow().cell_pages(), 0u);
  EXPECT_EQ(metric_value(fast_metrics, "rsan.fastpath_block_misses"), 0u);
  expect_same_block_state(fast, reference, page);
}

TEST_F(DeferredStoreTest, RacingSegmentInsideARunMatchesReference) {
  // Created before the host write, so the fiber's write is unordered with it.
  const auto fiber_fast = fast.create_fiber(CtxKind::kStreamFiber, "s");
  const auto fiber_ref = reference.create_fiber(CtxKind::kStreamFiber, "s");
  fast.write_range(page, rsan::kBlockAppBytes, "host write");
  reference.write_range(page, rsan::kBlockAppBytes, "host write");
  fast.switch_to_fiber(fiber_fast);
  reference.switch_to_fiber(fiber_ref);
  // The racing span is exactly cell page 1 of the block, inside its run.
  std::byte* const racing = page + rsan::kGranulesPerCellPage * rsan::kGranuleBytes;
  const std::size_t racing_bytes = rsan::kGranulesPerCellPage * rsan::kGranuleBytes - 3;
  fast.write_range(racing + 3, racing_bytes, "fiber write");
  reference.write_range(racing + 3, racing_bytes, "fiber write");
  EXPECT_EQ(metric_value(fast_metrics, "rsan.races_detected"), 1u);
  EXPECT_EQ(metric_value(reference_metrics, "rsan.races_detected"), 1u);
  // Decided on the block's runs: a block hit, not a per-granule scan.
  EXPECT_EQ(metric_value(fast_metrics, "rsan.fastpath_block_misses"), 0u);
  ASSERT_EQ(fast.reports().size(), 1u);
  ASSERT_EQ(reference.reports().size(), 1u);
  const rsan::RaceReport& f = fast.reports()[0];
  const rsan::RaceReport& r = reference.reports()[0];
  EXPECT_EQ(f.addr, reinterpret_cast<std::uintptr_t>(racing + 3));
  EXPECT_EQ(f.addr, r.addr);
  EXPECT_EQ(f.access_size, r.access_size);
  for (const auto& [fa, ra] : {std::pair{f.current, r.current}, std::pair{f.previous, r.previous}}) {
    EXPECT_EQ(fa.ctx, ra.ctx);
    EXPECT_EQ(fa.clock, ra.clock);
    EXPECT_EQ(fa.label, ra.label);
    EXPECT_EQ(fa.is_write, ra.is_write);
  }
  EXPECT_EQ(f.current.label, "fiber write");
  EXPECT_EQ(f.previous.label, "host write");
  expect_same_block_state(fast, reference, page);
  // The racing span lives in a run: its cell page was never allocated.
  const rsan::ShadowBlock* blk = fast.shadow().block_if_present(granule_addr(page, 0));
  ASSERT_NE(blk, nullptr);
  EXPECT_EQ(blk->pages[1], nullptr);
}

TEST_F(DeferredStoreTest, CheckOnlyScanAllocatesNoCellPage) {
  // The reference runtime keeps no runs, so the check-only scan reads raw
  // cells; the ones on the three pages nobody wrote read as empty.
  reference.write_range(page, rsan::kGranuleBytes);
  EXPECT_EQ(reference.shadow().cell_pages(), 1u);
  reference.proven_range(page, rsan::kBlockAppBytes, /*is_write=*/true, "proven");
  EXPECT_EQ(metric_value(reference_metrics, "rsan.races_detected"), 0u);
  EXPECT_EQ(reference.shadow().cell_pages(), 1u);
  EXPECT_EQ(metric_value(reference_metrics, "rsan.cell_pages"), 1u);
}

TEST_F(DeferredStoreTest, PartialResetKeepsTheRestOfTheSpan) {
  write(0, rsan::kBlockAppBytes);
  fast.reset_shadow_range(page + 16 * rsan::kGranuleBytes, 8 * rsan::kGranuleBytes);
  reference.reset_shadow_range(page + 16 * rsan::kGranuleBytes, 8 * rsan::kGranuleBytes);
  EXPECT_FALSE(fast.shadow().load(granule_addr(page, 20))[0].valid());
  EXPECT_TRUE(fast.shadow().load(granule_addr(page, 15))[0].valid());
  EXPECT_TRUE(fast.shadow().load(granule_addr(page, 24))[0].valid());
  expect_same_block_state(fast, reference, page);
}

TEST_F(DeferredStoreTest, WholeBlockResetReadsAllInvalidAndHitsAgain) {
  write(0, rsan::kBlockAppBytes);
  fast.reset_shadow_range(page, rsan::kBlockAppBytes);
  reference.reset_shadow_range(page, rsan::kBlockAppBytes);
  expect_same_block_state(fast, reference, page);
  EXPECT_FALSE(fast.shadow().load(granule_addr(page, 0))[0].valid());
  write(0, rsan::kBlockAppBytes);  // a freed block is a fresh block again
  EXPECT_EQ(metric_value(fast_metrics, "rsan.fastpath_block_hits"), 2u);
  EXPECT_EQ(metric_value(fast_metrics, "rsan.fastpath_block_misses"), 0u);
  expect_same_block_state(fast, reference, page);
}

TEST_F(DeferredStoreTest, RepeatedSameEpochRangeMatchesReference) {
  write(0, rsan::kBlockAppBytes);
  const std::uint64_t hits_first = metric_value(fast_metrics, "rsan.fastpath_block_hits");
  // The repeat and a covered sub-range are decided on the block's one run.
  write(0, rsan::kBlockAppBytes);
  write(10 * rsan::kGranuleBytes, 8 * rsan::kGranuleBytes);
  EXPECT_EQ(metric_value(fast_metrics, "rsan.fastpath_block_hits"), hits_first + 2);
  EXPECT_EQ(metric_value(fast_metrics, "rsan.fastpath_block_misses"), 0u);
  EXPECT_EQ(metric_value(fast_metrics, "rsan.races_detected"), 0u);
  EXPECT_EQ(metric_value(reference_metrics, "rsan.races_detected"), 0u);
  expect_same_block_state(fast, reference, page);
}

TEST_F(DeferredStoreTest, ReadAfterWriteInOneEpochStoresReadCells) {
  // Same context and epoch, other access kind: the reference semantics
  // store a fresh read cell next to the write, and so must the runs.
  write(0, rsan::kBlockAppBytes);
  fast.read_range(page, rsan::kBlockAppBytes);
  reference.read_range(page, rsan::kBlockAppBytes);
  const auto cells = fast.shadow().load(granule_addr(page, 5));
  EXPECT_TRUE(std::any_of(cells.begin(), cells.end(),
                          [](rsan::ShadowCell c) { return c.valid() && !c.is_write(); }));
  EXPECT_EQ(metric_value(fast_metrics, "rsan.races_detected"), 0u);
  expect_same_block_state(fast, reference, page);
}

TEST_F(DeferredStoreTest, RewriteAfterClockTickStoresTheNewEpoch) {
  write(64, 512);
  const std::uint64_t first_epoch = fast.shadow().load(granule_addr(page, 10))[0].clock();
  tick();
  write(64, 512);
  const auto cells = fast.shadow().load(granule_addr(page, 10));
  EXPECT_TRUE(std::any_of(cells.begin(), cells.end(), [&](rsan::ShadowCell c) {
    return c.valid() && c.clock() > first_epoch;
  }));
  // Re-decided per block on the runs the first pass left, not per granule.
  EXPECT_GT(metric_value(fast_metrics, "rsan.fastpath_block_hits"), 0u);
  EXPECT_EQ(metric_value(fast_metrics, "rsan.races_detected"), 0u);
  expect_same_block_state(fast, reference, page);
}

TEST_F(DeferredStoreTest, AcquireBetweenRewritesMatchesReference) {
  // The fiber's write races the host's first write; once the host acquires
  // the fiber's release, its rewrite of the same range is ordered.
  const auto fiber_fast = fast.create_fiber(CtxKind::kStreamFiber, "s");
  const auto fiber_ref = reference.create_fiber(CtxKind::kStreamFiber, "s");
  fast.switch_to_fiber(fiber_fast);
  reference.switch_to_fiber(fiber_ref);
  write(0, rsan::kBlockAppBytes);
  tick();  // the fiber releases `key` after its write
  fast.switch_to_fiber(fast.host_ctx());
  reference.switch_to_fiber(reference.host_ctx());
  write(0, rsan::kBlockAppBytes);
  EXPECT_EQ(metric_value(fast_metrics, "rsan.races_detected"), 1u);
  fast.happens_after(&key);
  reference.happens_after(&key);
  write(0, rsan::kBlockAppBytes);
  EXPECT_EQ(metric_value(fast_metrics, "rsan.races_detected"), 1u);
  EXPECT_EQ(metric_value(reference_metrics, "rsan.races_detected"), 1u);
  expect_same_block_state(fast, reference, page);
}

// -- Uniform runs of neighbouring allocations --------------------------------

/// Two TeaLeaf-sized device arrays (17 rows of 64 doubles, 8,704 bytes) laid
/// out the way a 64-byte-aligned allocator places them: they share shadow
/// blocks with each other.
class SharedBlockTest : public DeferredStoreTest {
 protected:
  static constexpr std::size_t kRowBytes = 64 * sizeof(double);
  static constexpr std::size_t kArrayBytes = 17 * kRowBytes;

  static std::byte* arena() {
    alignas(rsan::kBlockAppBytes) static std::array<std::byte, 5 * rsan::kBlockAppBytes> bytes{};
    return bytes.data();
  }

  /// The same annotation by the same-named context on both runtimes.
  void access(rsan::CtxId ctx, std::byte* addr, std::size_t size, bool is_write) {
    for (Runtime* rt : {&fast, &reference}) {
      rt->switch_to_fiber(ctx);
      if (is_write) {
        rt->write_range(addr, size, "w");
      } else {
        rt->read_range(addr, size, "r");
      }
    }
  }
  /// `from` releases, `to` acquires: orders everything before.
  void order(rsan::CtxId from, rsan::CtxId to) {
    for (Runtime* rt : {&fast, &reference}) {
      rt->switch_to_fiber(from);
      rt->happens_before(&key);
      rt->switch_to_fiber(to);
      rt->happens_after(&key);
    }
  }
  void expect_same_state(const std::byte* lo, const std::byte* hi) {
    for (const std::byte* p = lo; p < hi; p += rsan::kGranuleBytes) {
      const auto f = fast.shadow().load(reinterpret_cast<std::uintptr_t>(p));
      const auto r = reference.shadow().load(reinterpret_cast<std::uintptr_t>(p));
      for (std::size_t s = 0; s < rsan::kShadowSlots; ++s) {
        ASSERT_EQ(f[s].raw, r[s].raw) << "offset " << (p - lo) << " slot " << s;
      }
    }
  }
};

TEST_F(SharedBlockTest, TeaLeafShapedAnnotationsStayOnTheRuns) {
  std::byte* const a = arena() + 64;
  std::byte* const b = a + kArrayBytes;
  const rsan::CtxId stream = fast.create_fiber(CtxKind::kStreamFiber, "stream");
  ASSERT_EQ(reference.create_fiber(CtxKind::kStreamFiber, "stream"), stream);
  const rsan::CtxId host = fast.host_ctx();
  std::uint64_t misses_after_first = 0;
  for (int it = 0; it < 6; ++it) {
    // Kernel: interior write of a, whole read of b; then of b and a.
    access(stream, a + kRowBytes, kArrayBytes - 2 * kRowBytes, true);
    access(stream, b, kArrayBytes, false);
    access(stream, b + kRowBytes, kArrayBytes - 2 * kRowBytes, true);
    access(stream, a, kArrayBytes, false);
    order(stream, host);
    // Halo exchange on the host: the first and last rows of a and b.
    for (std::byte* v : {a, b}) {
      access(host, v, kRowBytes, true);
      access(host, v + kArrayBytes - kRowBytes, kRowBytes, true);
    }
    order(host, stream);
    if (it == 0) {
      misses_after_first = metric_value(fast_metrics, "rsan.fastpath_block_misses");
    }
  }
  EXPECT_EQ(metric_value(fast_metrics, "rsan.fastpath_block_misses"), misses_after_first);
  EXPECT_GT(metric_value(fast_metrics, "rsan.fastpath_block_hits"), 0u);
  EXPECT_EQ(metric_value(fast_metrics, "rsan.races_detected"), 0u);
  EXPECT_EQ(metric_value(reference_metrics, "rsan.races_detected"), 0u);
  expect_same_state(arena(), arena() + 5 * rsan::kBlockAppBytes);
}

TEST_F(SharedBlockTest, WalkingOneGranuleReadLeavesFewRunsAndNoCellPage) {
  // A memcpy writes the first 100 granules of a block, then the host reads
  // them back one granule at a time (capi::checked_load over a host buffer).
  std::byte* const dst = arena();
  const rsan::CtxId stream = fast.create_fiber(CtxKind::kStreamFiber, "stream");
  ASSERT_EQ(reference.create_fiber(CtxKind::kStreamFiber, "stream"), stream);
  access(stream, dst, 100 * rsan::kGranuleBytes, true);
  order(stream, fast.host_ctx());
  const rsan::ShadowBlock* blk = fast.shadow().block_if_present(granule_addr(dst, 0));
  ASSERT_NE(blk, nullptr);
  for (std::size_t g = 0; g < 100; ++g) {
    fast.plain_read(dst + g * rsan::kGranuleBytes, sizeof(double));
    reference.plain_read(dst + g * rsan::kGranuleBytes, sizeof(double));
    ASSERT_LE(blk->runs.size(), 3u) << "after granule " << g;
  }
  EXPECT_EQ(fast.shadow().cell_pages(), 0u);
  EXPECT_EQ(metric_value(fast_metrics, "rsan.fastpath_block_misses"), 0u);
  expect_same_state(dst, dst + rsan::kBlockAppBytes);
}

TEST_F(RsanRuntimeTest, FastPathDisabledKeepsCountersZero) {
  RuntimeConfig config;
  config.use_shadow_fast_path = false;
  obs::MetricsRegistry slow_metrics;
  Runtime slow(slow_metrics, config);
  for (int i = 0; i < 4; ++i) {
    slow.write_range(buf.data(), sizeof buf);
  }
  EXPECT_EQ(metric_value(slow_metrics, "rsan.fastpath_block_hits"), 0u);
  EXPECT_EQ(metric_value(slow_metrics, "rsan.fastpath_block_misses"), 0u);
  EXPECT_EQ(metric_value(slow_metrics, "rsan.fastpath_granules_elided"), 0u);
}

TEST(RsanShadowBudgetTest, MaxMbParsesDigitsOnlyAndNeverWraps) {
  constexpr std::size_t kMaxMb = std::numeric_limits<std::size_t>::max() >> 20;
  EXPECT_EQ(rsan::parse_shadow_max_mb(""), 0u);
  EXPECT_EQ(rsan::parse_shadow_max_mb("0"), 0u);
  EXPECT_EQ(rsan::parse_shadow_max_mb("1"), std::size_t{1} << 20);
  EXPECT_EQ(rsan::parse_shadow_max_mb("007"), std::size_t{7} << 20);
  EXPECT_EQ(rsan::parse_shadow_max_mb(std::to_string(kMaxMb)), kMaxMb << 20);
  // Signs, spaces and non-digits are rejected, not skipped.
  for (const char* bad : {"-1", "+5", " 7", "7 ", "1.5", "1e3", "abc", "0x10"}) {
    EXPECT_EQ(rsan::parse_shadow_max_mb(bad), std::nullopt) << bad;
  }
  // Past SIZE_MAX >> 20 the byte cap would wrap: 2^44 + 1 MiB once became a
  // 1 MiB cap.
  EXPECT_EQ(rsan::parse_shadow_max_mb(std::to_string(kMaxMb + 1)), std::nullopt);
  EXPECT_EQ(rsan::parse_shadow_max_mb("17592186044417"), std::nullopt);
  EXPECT_EQ(rsan::parse_shadow_max_mb("18446744073709551616"), std::nullopt);
}

TEST(RsanShadowBudgetTest, BudgetCountsWholeBlockFootprints) {
  // CUSAN_SHADOW_MAX_MB divides by a block's header plus its 16 KiB of raw
  // cells: 1 MiB admits 63 blocks, not 1 MiB / sizeof(header).
  obs::MetricsRegistry metrics;
  RuntimeConfig config;
  config.shadow_max_bytes = std::size_t{1} << 20;
  Runtime rt{metrics, config};
  EXPECT_EQ(rt.shadow().block_budget(), 63u);
  for (std::uintptr_t i = 0; i < 100; ++i) {
    rt.write_range(reinterpret_cast<const void*>(0x40000000 + i * rsan::kBlockAppBytes), 8);
  }
  EXPECT_EQ(rt.shadow().resident_blocks(), 63u);
  EXPECT_EQ(rt.shadow().denied_blocks(), 37u);
  EXPECT_EQ(rt.shadow_resident_bytes(), 63 * rsan::kShadowBlockBytes);
  EXPECT_EQ(metric_value(metrics, "rsan.degraded_blocks"), 37u);
}

TEST(RsanOwnerDeathTest, CallsOffTheOwningThreadAbortInDebugBuilds) {
  // A Runtime's counters are bumped single-writer, so only the thread that
  // constructed it may call in; debug builds check every public entry point.
#ifdef NDEBUG
  GTEST_SKIP() << "the owning-thread check is compiled into debug builds only";
#else
  obs::MetricsRegistry metrics;
  Runtime rt{metrics};
  double value = 0.0;
  rt.plain_read(&value, sizeof value);  // the owner may
  EXPECT_DEATH(std::thread([&] { rt.plain_read(&value, sizeof value); }).join(),
               "off the thread that constructed it");
#endif
}

}  // namespace
