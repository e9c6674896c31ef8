// Unit tests for the common utility module.
#include <gtest/gtest.h>

#include <string>

#include "common/format.hpp"
#include "common/interval_map.hpp"
#include "common/log.hpp"
#include "common/memstats.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"

namespace {

using common::IntervalMap;

TEST(IntervalMapTest, InsertAndFindContaining) {
  IntervalMap<int> map;
  EXPECT_TRUE(map.insert(100, 50, 1));
  EXPECT_TRUE(map.insert(200, 10, 2));

  const auto hit = map.find(125);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->payload, 1);
  EXPECT_EQ(hit->base, 100u);
  EXPECT_EQ(hit->extent, 50u);

  EXPECT_TRUE(map.find(100).has_value());   // inclusive base
  EXPECT_TRUE(map.find(149).has_value());   // last byte
  EXPECT_FALSE(map.find(150).has_value());  // exclusive end
  EXPECT_FALSE(map.find(99).has_value());
  EXPECT_FALSE(map.find(199).has_value());  // gap between intervals
  EXPECT_EQ(map.find(205)->payload, 2);
}

TEST(IntervalMapTest, RejectsOverlaps) {
  IntervalMap<int> map;
  ASSERT_TRUE(map.insert(100, 50, 1));
  EXPECT_FALSE(map.insert(100, 50, 2));  // identical
  EXPECT_FALSE(map.insert(90, 20, 2));   // straddles start
  EXPECT_FALSE(map.insert(149, 10, 2));  // straddles end
  EXPECT_FALSE(map.insert(120, 5, 2));   // nested
  EXPECT_TRUE(map.insert(150, 10, 2));   // adjacent is fine
  EXPECT_TRUE(map.insert(90, 10, 3));    // adjacent before
  EXPECT_EQ(map.size(), 3u);
}

TEST(IntervalMapTest, RejectsZeroExtent) {
  IntervalMap<int> map;
  EXPECT_FALSE(map.insert(100, 0, 1));
  EXPECT_TRUE(map.empty());
}

TEST(IntervalMapTest, EraseReturnsPayload) {
  IntervalMap<int> map;
  ASSERT_TRUE(map.insert(100, 50, 7));
  EXPECT_FALSE(map.erase(101).has_value());  // must match base exactly
  const auto removed = map.erase(100);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(*removed, 7);
  EXPECT_FALSE(map.find(120).has_value());
}

TEST(IntervalMapTest, OverlapsQuery) {
  IntervalMap<int> map;
  ASSERT_TRUE(map.insert(100, 50, 1));
  EXPECT_TRUE(map.overlaps(120, 10));
  EXPECT_TRUE(map.overlaps(90, 20));
  EXPECT_TRUE(map.overlaps(149, 100));
  EXPECT_FALSE(map.overlaps(150, 10));
  EXPECT_FALSE(map.overlaps(0, 100));
  EXPECT_FALSE(map.overlaps(120, 0));
}

TEST(IntervalMapTest, FindExact) {
  IntervalMap<int> map;
  ASSERT_TRUE(map.insert(100, 50, 1));
  EXPECT_TRUE(map.find_exact(100).has_value());
  EXPECT_FALSE(map.find_exact(101).has_value());
}

TEST(IntervalMapTest, ForEachVisitsInAddressOrder) {
  IntervalMap<int> map;
  ASSERT_TRUE(map.insert(300, 10, 3));
  ASSERT_TRUE(map.insert(100, 10, 1));
  ASSERT_TRUE(map.insert(200, 10, 2));
  std::vector<int> order;
  map.for_each([&](const auto& entry) { order.push_back(entry.payload); });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(FormatTest, ReplacesPlaceholdersSequentially) {
  EXPECT_EQ(common::format("{} + {} = {}", 1, 2, 3), "1 + 2 = 3");
  EXPECT_EQ(common::format("no placeholders"), "no placeholders");
  EXPECT_EQ(common::format("{} {}", "a"), "a {}");  // missing arg kept literal
  EXPECT_EQ(common::format("{}", true), "true");
  EXPECT_EQ(common::format("{}", std::string("s")), "s");
}

TEST(FormatTest, NumericHelpers) {
  EXPECT_EQ(common::fixed(3.14159, 2), "3.14");
  EXPECT_EQ(common::fixed(2.0, 0), "2");
  EXPECT_EQ(common::hex(0x1234), "0x1234");
}

TEST(FormatTest, FormatBytes) {
  EXPECT_EQ(common::format_bytes(512), "512 B");
  EXPECT_EQ(common::format_bytes(2048), "2.00 KiB");
  EXPECT_EQ(common::format_bytes(3 * 1024 * 1024), "3.00 MiB");
}

TEST(TableTest, RendersAlignedColumns) {
  common::TextTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22222"});
  const std::string out = table.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  // All lines share the same column start for "value"/"1"/"22222".
  const auto header_pos = out.find("value");
  const auto row_pos = out.find("22222");
  ASSERT_NE(header_pos, std::string::npos);
  ASSERT_NE(row_pos, std::string::npos);
}

TEST(RngTest, DeterministicSequence) {
  common::SplitMix64 a(42);
  common::SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(RngTest, BoundsRespected) {
  common::SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(10), 10u);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(MemStatsTest, ReportsNonZeroRss) {
  const auto stats = common::read_memstats();
  EXPECT_GT(stats.rss_bytes, 0u);
  EXPECT_GE(stats.rss_peak_bytes, stats.rss_bytes);
}

TEST(TimerTest, MeasuresElapsedTime) {
  common::WallTimer timer;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + static_cast<double>(i);
  }
  EXPECT_GE(timer.elapsed_seconds(), 0.0);
  EXPECT_GE(timer.elapsed_ms(), 0.0);
}

TEST(LogTest, MacroEvaluatesArgumentsOnlyAboveThreshold) {
  const common::LogLevel saved = common::log_level();
  int formatted = 0;
  const auto message = [&formatted] {
    ++formatted;
    return std::string{"message"};
  };
  common::set_log_level(common::LogLevel::kOff);
  CUSAN_LOG_ERROR("{}", message());
  EXPECT_EQ(formatted, 0);
  common::set_log_level(common::LogLevel::kWarn);
  CUSAN_LOG_INFO("{}", message());
  EXPECT_EQ(formatted, 0);
  CUSAN_LOG_WARN("{}", message());
  EXPECT_EQ(formatted, 1);
  common::set_log_level(saved);
}

}  // namespace
