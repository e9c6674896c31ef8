// A small CUDA-aware MPI program whose schedule exploration has real value
// decisions, for the DPOR tests that must see more than one execution. The
// §VI-C corpus records no branchable decision at 2 ranks, so those tests
// add this program to their corpus loop; it stays out of
// testsuite::build_scenarios() so check_cutests and the benchmark keep
// running exactly the paper's matrix.
//
// Each of the two ranks posts an irecv from and an isend to its peer, enters
// a barrier, and then calls MPI_Waitany and waits on the remaining request.
// Both requests are complete by the time waitany looks, so each rank makes
// one waitany decision with two candidates and DPOR explores 2 x 2
// executions. The racy variant writes the send buffer with an
// unsynchronized kernel, which races with the isend's read in every
// execution; the clean variant fills it with a cudaMemsetAsync and
// synchronizes the device first, and is race-free in every execution. Like
// the corpus's racy kernels, the racy kernel's body stays clear of the
// exchanged elements: CuSan finds the race from the kernel's access summary
// (a write of the whole buffer), and the host threads that simulate the
// device and the rank never race on memory.
#pragma once

#include <array>
#include <cstddef>
#include <memory>

#include "capi/cuda.hpp"
#include "capi/mpi.hpp"
#include "capi/session.hpp"
#include "kir/ir.hpp"
#include "kir/registry.hpp"
#include "mpisim/datatype.hpp"
#include "mpisim/request.hpp"

namespace waitany_program {

constexpr std::size_t kCount = 64;  ///< doubles exchanged; the send buffer holds one more

/// A kernel whose summary writes its first argument's whole allocation.
inline const kir::KernelInfo& whole_buffer_writer() {
  struct Kernel {
    kir::Module module;
    std::unique_ptr<kir::KernelRegistry> registry;
    const kir::KernelInfo* info{};
    Kernel() {
      kir::Function* w = module.create_function("waitany_writer", {true, false});
      w->store(w->gep(w->param(0), w->constant()), w->constant());
      w->ret();
      registry = std::make_unique<kir::KernelRegistry>(module);
      info = registry->lookup(w);
    }
  };
  static const Kernel kernel;
  return *kernel.info;
}

inline void rank_main(capi::RankEnv& env, bool racy) {
  const int peer = env.rank() ^ 1;
  const auto type = mpisim::Datatype::float64();
  double* send_buf = nullptr;
  double* recv_buf = nullptr;
  (void)capi::cuda::malloc_device(&send_buf, kCount + 1);
  (void)capi::cuda::malloc_device(&recv_buf, kCount);
  if (racy) {
    (void)capi::cuda::launch(whole_buffer_writer(), {1, 1}, nullptr, {send_buf, nullptr},
                             [send_buf](const cusim::KernelContext&) { send_buf[kCount] = 1.0; });
  } else {
    (void)capi::cuda::memset_async(send_buf, 0, (kCount + 1) * sizeof(double), nullptr);
    (void)capi::cuda::device_synchronize();
  }
  std::array<mpisim::Request*, 2> reqs{};
  (void)capi::mpi::irecv(env.comm, recv_buf, kCount, type, peer, 3, &reqs[0]);
  (void)capi::mpi::isend(env.comm, send_buf, kCount, type, peer, 3, &reqs[1]);
  (void)capi::mpi::barrier(env.comm);
  int first = -1;
  (void)capi::mpi::waitany(env.comm, reqs, &first);
  (void)capi::mpi::wait(env.comm, &reqs[first == 0 ? 1 : 0]);
  (void)capi::cuda::device_synchronize();
  (void)capi::cuda::free(send_buf);
  (void)capi::cuda::free(recv_buf);
}

[[nodiscard]] inline const char* name(bool racy) {
  return racy ? "waitany_program racy" : "waitany_program clean";
}

/// Run the program on two ranks under MUST & CuSan; returns the race count.
[[nodiscard]] inline std::size_t run(bool racy) {
  return capi::total_races(capi::run_flavored(
      capi::Flavor::kMustCusan, 2, [racy](capi::RankEnv& env) { rank_main(env, racy); }));
}

}  // namespace waitany_program
