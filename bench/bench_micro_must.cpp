// Microbenchmarks of the MUST interception layer: per-call annotation costs
// for blocking and non-blocking MPI operations, the fiber-per-request
// protocol, non-contiguous datatype annotation and the TypeART-backed type
// check.
#include <benchmark/benchmark.h>

#include "gbench_json.hpp"

#include <vector>

#include "fault_guard.hpp"
#include "mpisim/world.hpp"
#include "must/runtime.hpp"

namespace {

struct MustBenchState {
  typeart::TypeDB db;
  obs::MetricsRegistry metrics;
  rsan::Runtime tsan{metrics};
  typeart::Runtime types{&db};
  std::vector<double> buf = std::vector<double>(4096);

  must::Runtime make(bool check_types = false) {
    must::Config config;
    config.check_types = check_types;
    return must::Runtime(&tsan, &types, metrics, config);
  }
};

void BM_BlockingSendAnnotation(benchmark::State& state) {
  MustBenchState s;
  auto must = s.make();
  const std::size_t count = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    must.on_send(s.buf.data(), count, mpisim::Datatype::float64());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count * 8));
}
BENCHMARK(BM_BlockingSendAnnotation)->Arg(64)->Arg(1024)->Arg(4096);

void BM_RequestFiberRoundTrip(benchmark::State& state) {
  // The full Irecv -> Wait protocol with pooled fibers (the paper Fig. 1
  // pattern MUST executes for every non-blocking call).
  MustBenchState s;
  auto must = s.make();
  std::uintptr_t fake = 0x1000;
  for (auto _ : state) {
    const auto* request = reinterpret_cast<const mpisim::Request*>(fake);
    must.on_irecv(s.buf.data(), 512, mpisim::Datatype::float64(), request);
    must.on_complete(request);
    fake += 8;
  }
}
BENCHMARK(BM_RequestFiberRoundTrip);

void BM_NonContiguousAnnotation(benchmark::State& state) {
  // Column-type annotation: one range call per strided block.
  MustBenchState s;
  auto must = s.make();
  const auto column =
      mpisim::Datatype::vector(mpisim::Datatype::float64(), static_cast<std::size_t>(state.range(0)),
                               1, 8);
  for (auto _ : state) {
    must.on_send(s.buf.data(), 1, column);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NonContiguousAnnotation)->Arg(16)->Arg(128)->Arg(512);

void BM_TypeCheckedSend(benchmark::State& state) {
  MustBenchState s;
  s.types.on_alloc(s.buf.data(), typeart::kDouble, s.buf.size(), typeart::AllocKind::kDevice);
  auto must = s.make(/*check_types=*/true);
  for (auto _ : state) {
    must.on_send(s.buf.data(), 4096, mpisim::Datatype::float64());
  }
}
BENCHMARK(BM_TypeCheckedSend);

void BM_CollectiveAnnotation(benchmark::State& state) {
  MustBenchState s;
  auto must = s.make();
  std::vector<double> recv(4096);
  for (auto _ : state) {
    must.on_allreduce(s.buf.data(), recv.data(), 1024, mpisim::Datatype::float64());
  }
}
BENCHMARK(BM_CollectiveAnnotation);

}  // namespace

int main(int argc, char** argv) {
  {
    // Representative guarded op: the cheapest mpisim call that probes the
    // fault injector — a self isend/recv/wait round trip on one rank.
    int rc = 0;
    mpisim::World world(1);
    world.run([&rc](mpisim::Comm comm) {
      std::vector<double> send(64);
      std::vector<double> recv(64);
      rc = bench::fault_hook_overhead_guard(
          "mpisim self send/recv(64 doubles)",
          [&] {
            mpisim::Request* request = nullptr;
            (void)comm.isend(send.data(), send.size(), mpisim::Datatype::float64(), 0, 0,
                             &request);
            (void)comm.recv(recv.data(), recv.size(), mpisim::Datatype::float64(), 0, 0);
            (void)comm.wait(&request);
          },
          5000);
    });
    if (rc != 0) {
      return rc;
    }
  }
  return bench::run_gbench("micro_must", argc, argv);
}
