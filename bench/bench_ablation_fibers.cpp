// Ablation: vector-clock scaling with the number of live fibers. MUST pools
// request fibers precisely because every release/acquire joins clocks whose
// size grows with the context count; this harness quantifies that design
// choice (DESIGN.md: fiber pooling).
#include <benchmark/benchmark.h>

#include "gbench_json.hpp"

#include <vector>

#include "rsan/runtime.hpp"

namespace {

void BM_HbPairVsFiberCount(benchmark::State& state) {
  obs::MetricsRegistry metrics;
  rsan::Runtime rt{metrics};
  const int fibers = static_cast<int>(state.range(0));
  for (int i = 0; i < fibers; ++i) {
    const auto f = rt.create_fiber(rsan::CtxKind::kMpiRequestFiber, "req");
    // Touch each fiber once so its clock component is live everywhere.
    rt.switch_to_fiber(f);
    int key{};
    rt.happens_before(&key);
    rt.switch_to_fiber(rt.host_ctx());
    rt.happens_after(&key);
  }
  int key{};
  for (auto _ : state) {
    rt.happens_before(&key);
    rt.happens_after(&key);
  }
  state.SetLabel(std::to_string(fibers) + " fibers");
}
BENCHMARK(BM_HbPairVsFiberCount)->RangeMultiplier(4)->Range(1, 4096);

void BM_PooledVsFreshFibers(benchmark::State& state) {
  // The MUST request pattern with (0) pooling reuse vs (1) a fresh fiber per
  // request. Fresh fibers grow the context space and therefore every clock.
  const bool fresh = state.range(0) == 1;
  obs::MetricsRegistry metrics;
  rsan::Runtime rt{metrics};
  std::vector<double> buf(512);
  rsan::CtxId pooled = rt.create_fiber(rsan::CtxKind::kMpiRequestFiber, "req");
  for (auto _ : state) {
    const rsan::CtxId fiber =
        fresh ? rt.create_fiber(rsan::CtxKind::kMpiRequestFiber, "req") : pooled;
    int key{};
    rt.happens_before(&key);
    rt.switch_to_fiber(fiber);
    rt.happens_after(&key);
    rt.write_range(buf.data(), buf.size() * sizeof(double), "irecv");
    rt.happens_before(&key);
    rt.switch_to_fiber(rt.host_ctx());
    rt.happens_after(&key);
  }
  state.SetLabel(fresh ? "fresh fiber per request" : "pooled fiber");
}
BENCHMARK(BM_PooledVsFreshFibers)->Arg(0)->Arg(1)->Iterations(20000);

}  // namespace

int main(int argc, char** argv) {
  return bench::run_gbench("ablation_fibers", argc, argv);
}
