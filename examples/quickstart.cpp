// Quickstart: the paper's Fig. 4 scenario as a runnable program.
//
// Rank 0 launches a kernel writing a device buffer and then sends that
// buffer with CUDA-aware MPI; rank 1 receives it with MPI_Irecv and launches
// a kernel reading it. Both directions need explicit synchronization — the
// first run omits it (two data races, found by CuSan + MUST), the second run
// synchronizes correctly (no reports).
//
// Build & run:  ./examples/quickstart
#include <cstdio>

#include "capi/cuda.hpp"
#include "capi/mpi.hpp"
#include "capi/session.hpp"
#include "kir/registry.hpp"
#include "rsan/report.hpp"

namespace {

// The "compiled" kernel IR: both kernels access their pointer argument.
struct Kernels {
  kir::Module module;
  const kir::KernelInfo* writer{};
  const kir::KernelInfo* reader{};
  std::unique_ptr<kir::KernelRegistry> registry;

  Kernels() {
    kir::Function* w = module.create_function("fill_kernel", {true, false});
    w->store(w->gep(w->param(0), w->constant()), w->constant());
    w->ret();
    kir::Function* r = module.create_function("consume_kernel", {true, false});
    (void)r->load(r->gep(r->param(0), r->constant()));
    r->ret();
    registry = std::make_unique<kir::KernelRegistry>(module);
    writer = registry->lookup(w);
    reader = registry->lookup(r);
  }
};

const Kernels& kernels() {
  static const Kernels k;
  return k;
}

constexpr std::size_t kCount = 1 << 16;

void rank_main(capi::RankEnv& env, bool synchronize) {
  namespace cuda = capi::cuda;
  namespace mpi = capi::mpi;
  const auto type = mpisim::Datatype::int32();
  int* d_data = nullptr;
  (void)cuda::malloc_device(&d_data, kCount);

  if (env.rank() == 0) {
    // Kernel writes the device buffer (the declared access covers the whole
    // allocation; the body stays clear of the exchanged range so the racy
    // variant has no physical race — see DESIGN.md).
    (void)cuda::launch(*kernels().writer, {64, 256}, nullptr, {d_data, nullptr},
                       [d_data](const cusim::KernelContext&) { d_data[kCount - 1] = 42; });
    if (synchronize) {
      (void)cuda::device_synchronize();  // paper Fig. 4 line 4
    }
    (void)mpi::send(env.comm, d_data, kCount / 2, type, 1, 0);
  } else {
    mpisim::Request* request = nullptr;
    (void)mpi::irecv(env.comm, d_data, kCount / 2, type, 0, 0, &request);
    if (synchronize) {
      (void)mpi::wait(env.comm, &request);  // paper Fig. 4 line 8
    }
    // Kernel consumes the received data.
    (void)cuda::launch(*kernels().reader, {64, 256}, nullptr, {d_data, nullptr},
                       [d_data](const cusim::KernelContext&) { (void)d_data[kCount - 1]; });
    (void)cuda::device_synchronize();
    if (!synchronize) {
      (void)mpi::wait(env.comm, &request);  // too late: the race already happened
    }
  }
  (void)cuda::free(d_data);
}

void report(const char* title, const std::vector<capi::RankResult>& results) {
  std::printf("== %s ==\n", title);
  std::size_t total = 0;
  for (const auto& result : results) {
    for (const auto& race : result.races) {
      std::printf("[rank %d]\n%s\n", result.rank, rsan::format_report(race).c_str());
    }
    total += obs::value_of(result.metrics, "rsan.races_detected");
  }
  std::printf("-> %zu race(s) detected\n\n", total);
}

}  // namespace

int main() {
  std::printf("CuSan quickstart: checking the paper's Fig. 4 example with MUST & CuSan\n\n");

  const auto racy = capi::run_flavored(capi::Flavor::kMustCusan, 2,
                                       [](capi::RankEnv& env) { rank_main(env, false); });
  report("missing synchronization (Fig. 4 without lines 4/8)", racy);

  const auto clean = capi::run_flavored(capi::Flavor::kMustCusan, 2,
                                        [](capi::RankEnv& env) { rank_main(env, true); });
  report("correct synchronization", clean);

  const bool ok = capi::total_races(racy) >= 2 && capi::total_races(clean) == 0;
  std::printf("%s\n", ok ? "QUICKSTART PASSED" : "QUICKSTART FAILED");
  return ok ? 0 : 1;
}
