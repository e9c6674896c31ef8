// Unit tests for the common utility module.
#include <gtest/gtest.h>
#include <pthread.h>

#include <array>
#include <string>
#include <system_error>
#include <thread>

#include "common/format.hpp"
#include "common/interval_map.hpp"
#include "common/log.hpp"
#include "common/memstats.hpp"
#include "common/rng.hpp"
#include "common/sim_thread.hpp"
#include "common/table.hpp"
#include "common/thread_context.hpp"
#include "common/timer.hpp"
#include "cusim/device.hpp"
#include "mpisim/world.hpp"
#include "obs/metrics.hpp"

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

/// The stack size pthread_getattr_np reports for the calling thread.
std::size_t own_stack_bytes() {
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) != 0) {
    return 0;
  }
  std::size_t bytes = 0;
  (void)pthread_attr_getstacksize(&attr, &bytes);
  (void)pthread_attr_destroy(&attr);
  return bytes;
}

/// What a plain pthread asked for kSimThreadStackBytes reports: the constant
/// itself, except under ThreadSanitizer, whose runtime enlarges small stacks
/// to hold its own thread-local state.
std::size_t requested_stack_bytes() {
  pthread_attr_t attr;
  EXPECT_EQ(pthread_attr_init(&attr), 0);
  EXPECT_EQ(pthread_attr_setstacksize(&attr, common::kSimThreadStackBytes), 0);
  std::size_t bytes = 0;
  pthread_t thread;
  EXPECT_EQ(pthread_create(
                &thread, &attr,
                [](void* out) -> void* {
                  *static_cast<std::size_t*>(out) = own_stack_bytes();
                  return nullptr;
                },
                &bytes),
            0);
  EXPECT_EQ(pthread_join(thread, nullptr), 0);
  (void)pthread_attr_destroy(&attr);
  return bytes;
}

TEST(SimThreadTest, RankBodiesAndStreamOpsRunOnTheFixedStack) {
  const std::size_t expected = requested_stack_bytes();
  std::size_t std_thread_bytes = 0;
  std::thread([&std_thread_bytes] { std_thread_bytes = own_stack_bytes(); }).join();
  ASSERT_NE(expected, std_thread_bytes) << "the fixed stack must differ from std::thread's";

  std::array<std::size_t, 2> rank_bytes{};
  mpisim::World world(2, mpisim::Backend::kThread);
  world.run([&rank_bytes](mpisim::Comm comm) {
    rank_bytes[static_cast<std::size_t>(comm.rank())] = own_stack_bytes();
  });
  EXPECT_EQ(rank_bytes[0], expected);
  EXPECT_EQ(rank_bytes[1], expected);

  cusim::Device device;
  cusim::Stream* created = nullptr;
  ASSERT_EQ(device.stream_create(&created, cusim::StreamFlags::kNonBlocking),
            cusim::Error::kSuccess);
  std::array<std::size_t, 2> stream_bytes{};
  ASSERT_EQ(device.launch_host_func(nullptr, [&] { stream_bytes[0] = own_stack_bytes(); }),
            cusim::Error::kSuccess);
  ASSERT_EQ(device.launch_host_func(created, [&] { stream_bytes[1] = own_stack_bytes(); }),
            cusim::Error::kSuccess);
  ASSERT_EQ(device.device_synchronize(), cusim::Error::kSuccess);
  EXPECT_EQ(stream_bytes[0], expected);
  EXPECT_EQ(stream_bytes[1], expected);
}

TEST(SimThreadTest, KeepsStdThreadSemanticsAndTheSpawnersBinding) {
  obs::MetricsRegistry registry;
  const common::ThreadContext::Scope binding({.metrics = &registry});
  obs::MetricsRegistry* seen = nullptr;
  common::SimThread thread([&seen] { seen = common::ThreadContext::current().metrics; });
  EXPECT_TRUE(thread.joinable());
  common::SimThread moved(std::move(thread));
  EXPECT_FALSE(thread.joinable());  // NOLINT(bugprone-use-after-move): moved-from is empty
  ASSERT_TRUE(moved.joinable());
  moved.join();
  EXPECT_FALSE(moved.joinable());
  EXPECT_EQ(seen, &registry);
  EXPECT_THROW(moved.join(), std::system_error);
  EXPECT_THROW(common::SimThread{}.join(), std::system_error);
}

}  // namespace
