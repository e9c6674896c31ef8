// Unit tests for the rsan runtime: the happens-before engine, fibers, range
// tracking, race detection/reporting and its configuration knobs.
#include <gtest/gtest.h>

#include <array>

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

TEST_F(RsanRuntimeTest, RepeatedSameEpochRangeHitsRecentRangeCache) {
  RuntimeConfig config;
  config.use_shadow_fast_path = true;
  obs::MetricsRegistry fast_metrics;
  Runtime fast(fast_metrics, config);
  fast.write_range(buf.data(), sizeof buf, "first");
  EXPECT_EQ(metric_value(fast_metrics, "rsan.fastpath_range_hits"), 0u);
  fast.write_range(buf.data(), sizeof buf, "repeat");
  EXPECT_EQ(metric_value(fast_metrics, "rsan.fastpath_range_hits"), 1u);
  EXPECT_EQ(metric_value(fast_metrics, "rsan.fastpath_granules_elided"), sizeof buf / rsan::kGranuleBytes);
  // A covered sub-range is also a provable no-op.
  fast.write_range(&buf[10], 64, "subrange");
  EXPECT_EQ(metric_value(fast_metrics, "rsan.fastpath_range_hits"), 2u);
  EXPECT_EQ(metric_value(fast_metrics, "rsan.races_detected"), 0u);
}

TEST_F(RsanRuntimeTest, RecentRangeCacheRequiresSameAccessKind) {
  RuntimeConfig config;
  config.use_shadow_fast_path = true;
  obs::MetricsRegistry fast_metrics;
  Runtime fast(fast_metrics, config);
  fast.write_range(buf.data(), sizeof buf);
  // A read after a write stores fresh read cells in the reference semantics,
  // so it must not be skipped (kind equality, not subsumption).
  fast.read_range(buf.data(), sizeof buf);
  EXPECT_EQ(metric_value(fast_metrics, "rsan.fastpath_range_hits"), 0u);
}

TEST_F(RsanRuntimeTest, ClockTickInvalidatesRecentRangeCache) {
  RuntimeConfig config;
  config.use_shadow_fast_path = true;
  obs::MetricsRegistry fast_metrics;
  Runtime fast(fast_metrics, config);
  fast.write_range(buf.data(), sizeof buf);
  fast.happens_before(&sync_key);  // ticks the epoch
  fast.write_range(buf.data(), sizeof buf);
  EXPECT_EQ(metric_value(fast_metrics, "rsan.fastpath_range_hits"), 0u);
  // The re-scan still runs O(blocks), not O(granules): every block summary is
  // uniform after the first pass, so the second pass hits the summary layer.
  EXPECT_GT(metric_value(fast_metrics, "rsan.fastpath_block_hits"), 0u);
}

TEST_F(RsanRuntimeTest, AcquireInvalidatesRecentRangeCache) {
  RuntimeConfig config;
  config.use_shadow_fast_path = true;
  obs::MetricsRegistry fast_metrics;
  Runtime fast(fast_metrics, config);
  int key{};
  fast.happens_before(&key);
  fast.write_range(buf.data(), sizeof buf);
  fast.happens_after(&key);  // acquire does not tick, but still invalidates
  fast.write_range(buf.data(), sizeof buf);
  EXPECT_EQ(metric_value(fast_metrics, "rsan.fastpath_range_hits"), 0u);
}

TEST_F(RsanRuntimeTest, ResetRangeInvalidatesFastPathState) {
  RuntimeConfig config;
  config.use_shadow_fast_path = true;
  obs::MetricsRegistry fast_metrics;
  Runtime fast(fast_metrics, config);
  fast.write_range(buf.data(), sizeof buf);
  fast.reset_shadow_range(buf.data(), sizeof buf);
  fast.write_range(buf.data(), sizeof buf);
  EXPECT_EQ(metric_value(fast_metrics, "rsan.fastpath_range_hits"), 0u);
  // The repeat after the reset really stored: the shadow holds valid cells.
  const auto* cells = fast.shadow().granule_if_present(
      reinterpret_cast<std::uintptr_t>(buf.data()));
  ASSERT_NE(cells, nullptr);
  EXPECT_TRUE(cells[0].valid());
}

TEST_F(RsanRuntimeTest, FastPathStillDetectsRacesAfterHits) {
  RuntimeConfig config;
  config.use_shadow_fast_path = true;
  obs::MetricsRegistry fast_metrics;
  Runtime fast(fast_metrics, config);
  const auto fiber = fast.create_fiber(CtxKind::kStreamFiber, "s1");
  fast.switch_to_fiber(fiber);
  fast.write_range(buf.data(), sizeof buf, "fiber write");
  fast.write_range(buf.data(), sizeof buf, "fiber write");  // range-cache hit
  EXPECT_EQ(metric_value(fast_metrics, "rsan.fastpath_range_hits"), 1u);
  fast.switch_to_fiber(fast.host_ctx());
  fast.write_range(buf.data(), sizeof buf, "host write");
  EXPECT_EQ(metric_value(fast_metrics, "rsan.races_detected"), 1u);
}

TEST_F(RsanRuntimeTest, FastPathDisabledKeepsCountersZero) {
  RuntimeConfig config;
  config.use_shadow_fast_path = false;
  obs::MetricsRegistry slow_metrics;
  Runtime slow(slow_metrics, config);
  for (int i = 0; i < 4; ++i) {
    slow.write_range(buf.data(), sizeof buf);
  }
  EXPECT_EQ(metric_value(slow_metrics, "rsan.fastpath_range_hits"), 0u);
  EXPECT_EQ(metric_value(slow_metrics, "rsan.fastpath_block_hits"), 0u);
  EXPECT_EQ(metric_value(slow_metrics, "rsan.fastpath_block_misses"), 0u);
  EXPECT_EQ(metric_value(slow_metrics, "rsan.fastpath_granules_elided"), 0u);
}

}  // namespace
