// Microbenchmarks of the rsan (TSan-equivalent) primitives that dominate
// CuSan's overhead: range annotations (the per-byte shadow cost behind
// Fig. 12), happens-before operations, fiber switches and plain accesses.
#include <benchmark/benchmark.h>

#include "gbench_json.hpp"

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "rsan/runtime.hpp"

namespace {

void BM_WriteRange(benchmark::State& state) {
  // Reference per-granule store cost (the per-byte shadow cost behind
  // Fig. 12): the fast path is pinned off so repeated iterations measure the
  // full per-granule scan, not a decision per uniform run.
  rsan::RuntimeConfig config;
  config.use_shadow_fast_path = false;
  obs::MetricsRegistry metrics;
  rsan::Runtime rt(metrics, config);
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  std::vector<double> buf(bytes / sizeof(double) + 1);
  for (auto _ : state) {
    rt.write_range(buf.data(), bytes, "bench");
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_WriteRange)->Range(64, 16 << 20);

void BM_ReadRangeAfterWrite(benchmark::State& state) {
  // Read ranges that check existing same-context write cells (the common
  // kernel read-after-write pattern), at reference per-granule cost.
  rsan::RuntimeConfig config;
  config.use_shadow_fast_path = false;
  obs::MetricsRegistry metrics;
  rsan::Runtime rt(metrics, config);
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  std::vector<double> buf(bytes / sizeof(double) + 1);
  rt.write_range(buf.data(), bytes, "prep");
  for (auto _ : state) {
    rt.read_range(buf.data(), bytes, "bench");
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ReadRangeAfterWrite)->Range(64, 16 << 20);

void BM_WriteRangeBlockSummary(benchmark::State& state) {
  // Fast path, fresh epoch every iteration (the kernel-launch cadence:
  // cusan's finish_op ticks the fiber clock after every op). Each block
  // resolves through its uniform run with one decision on the run's cells
  // and a single run-slot store.
  rsan::RuntimeConfig config;
  config.use_shadow_fast_path = true;
  obs::MetricsRegistry metrics;
  rsan::Runtime rt(metrics, config);
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  std::vector<double> buf(bytes / sizeof(double) + 1);
  int key{};
  for (auto _ : state) {
    rt.happens_before(&key);  // tick: a fresh epoch, as between launches
    rt.write_range(buf.data(), bytes, "bench");
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_WriteRangeBlockSummary)->Range(64, 16 << 20);

void BM_SharedBlockAlternating(benchmark::State& state) {
  // Two TeaLeaf-sized arrays (8,704 bytes) back to back from a 64-byte
  // offset, as a 64-byte-aligned device allocator places them, so they share
  // shadow blocks. A stream fiber alternates kernels over them (interior
  // write of one, whole read of the other) at a fresh epoch each time, and
  // the host writes their halo rows in between. Arg 1: fast path; 0: the
  // reference scan.
  rsan::RuntimeConfig config;
  config.use_shadow_fast_path = state.range(0) != 0;
  obs::MetricsRegistry metrics;
  rsan::Runtime rt(metrics, config);
  constexpr std::size_t kRow = 64 * sizeof(double);
  constexpr std::size_t kArray = 17 * kRow;
  std::vector<std::byte> storage(2 * kArray + 2 * 4096);
  std::byte* const a =
      reinterpret_cast<std::byte*>((reinterpret_cast<std::uintptr_t>(storage.data()) + 4095) &
                                   ~std::uintptr_t{4095}) +
      64;
  std::byte* const b = a + kArray;
  const auto stream = rt.create_fiber(rsan::CtxKind::kStreamFiber, "stream");
  int key{};
  for (auto _ : state) {
    for (const auto& [dst, src] : {std::pair{a, b}, std::pair{b, a}}) {
      rt.switch_to_fiber(stream);
      rt.write_range(dst + kRow, kArray - 2 * kRow, "kernel");
      rt.read_range(src, kArray, "kernel");
      rt.happens_before(&key);
      rt.switch_to_fiber(rt.host_ctx());
      rt.happens_after(&key);
      rt.write_range(dst, kRow, "halo");
      rt.write_range(dst + kArray - kRow, kRow, "halo");
      rt.happens_before(&key);
      rt.switch_to_fiber(stream);
      rt.happens_after(&key);
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 2 * 2 *
                          static_cast<std::int64_t>(kArray));
}
BENCHMARK(BM_SharedBlockAlternating)->Arg(1)->Arg(0);

void BM_RangeCrossFiberHandoff(benchmark::State& state) {
  // The CuSan kernel-launch pattern: switch to a stream fiber, annotate a
  // range, release, switch back, acquire on the host.
  obs::MetricsRegistry metrics;
  rsan::Runtime rt{metrics};
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  std::vector<double> buf(bytes / sizeof(double) + 1);
  const auto fiber = rt.create_fiber(rsan::CtxKind::kStreamFiber, "stream");
  int key{};
  for (auto _ : state) {
    rt.switch_to_fiber(fiber);
    rt.write_range(buf.data(), bytes, "kernel");
    rt.happens_before(&key);
    rt.switch_to_fiber(rt.host_ctx());
    rt.happens_after(&key);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_RangeCrossFiberHandoff)->Range(4096, 4 << 20);

void BM_HappensBeforeAfterPair(benchmark::State& state) {
  obs::MetricsRegistry metrics;
  rsan::Runtime rt{metrics};
  int key{};
  for (auto _ : state) {
    rt.happens_before(&key);
    rt.happens_after(&key);
  }
}
BENCHMARK(BM_HappensBeforeAfterPair);

void BM_FiberSwitch(benchmark::State& state) {
  obs::MetricsRegistry metrics;
  rsan::Runtime rt{metrics};
  const auto fiber = rt.create_fiber(rsan::CtxKind::kStreamFiber, "stream");
  for (auto _ : state) {
    rt.switch_to_fiber(fiber);
    rt.switch_to_fiber(rt.host_ctx());
  }
}
BENCHMARK(BM_FiberSwitch);

void BM_PlainAccess(benchmark::State& state) {
  obs::MetricsRegistry metrics;
  rsan::Runtime rt{metrics};
  double value = 0.0;
  for (auto _ : state) {
    rt.plain_write(&value, sizeof value);
    rt.plain_read(&value, sizeof value);
  }
}
BENCHMARK(BM_PlainAccess);

void BM_ShadowResetRange(benchmark::State& state) {
  obs::MetricsRegistry metrics;
  rsan::Runtime rt{metrics};
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  std::vector<double> buf(bytes / sizeof(double) + 1);
  for (auto _ : state) {
    state.PauseTiming();
    rt.write_range(buf.data(), bytes, "fill");
    state.ResumeTiming();
    rt.reset_shadow_range(buf.data(), bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ShadowResetRange)->Range(4096, 1 << 20);

void BM_RaceDetectionInRange(benchmark::State& state) {
  // Worst case: every granule holds a conflicting epoch (reports are deduped
  // and capped; the per-granule checking cost is what is measured).
  rsan::RuntimeConfig config;
  config.report_limit = 1;
  obs::MetricsRegistry metrics;
  rsan::Runtime rt(metrics, config);
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  std::vector<double> buf(bytes / sizeof(double) + 1);
  const auto fiber = rt.create_fiber(rsan::CtxKind::kStreamFiber, "stream");
  rt.switch_to_fiber(fiber);
  rt.write_range(buf.data(), bytes, "fiber");
  rt.switch_to_fiber(rt.host_ctx());
  for (auto _ : state) {
    rt.write_range(buf.data(), bytes, "host");
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_RaceDetectionInRange)->Range(4096, 1 << 20);

}  // namespace

int main(int argc, char** argv) {
  return bench::run_gbench("micro_rsan", argc, argv);
}
