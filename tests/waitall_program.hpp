// A small CUDA-aware MPI program whose schedule exploration has real value
// decisions, for the DPOR tests that must see more than one execution. The
// §VI-C corpus records no branchable decision at 2 ranks, so those tests
// add this program to their corpus loop; it stays out of
// testsuite::build_scenarios() so check_cutests and the benchmark keep
// running exactly the paper's matrix.
//
// Each of the two ranks posts an irecv from and an isend to its peer and
// completes both with one MPI_Waitall: one waitall_order decision with two
// candidates per rank, so DPOR explores 2 x 2 executions. The racy variant
// fills the send buffer with an unsynchronized cudaMemsetAsync, which races
// with the isend's read in every execution; the clean variant synchronizes
// the device first and is race-free in every execution.
#pragma once

#include <array>
#include <cstddef>

#include "capi/cuda.hpp"
#include "capi/mpi.hpp"
#include "capi/session.hpp"
#include "mpisim/datatype.hpp"
#include "mpisim/request.hpp"

namespace waitall_program {

constexpr std::size_t kCount = 64;

inline void rank_main(capi::RankEnv& env, bool racy) {
  const int peer = env.rank() ^ 1;
  const auto type = mpisim::Datatype::float64();
  double* send_buf = nullptr;
  double* recv_buf = nullptr;
  (void)capi::cuda::malloc_device(&send_buf, kCount);
  (void)capi::cuda::malloc_device(&recv_buf, kCount);
  (void)capi::cuda::memset_async(send_buf, 0, kCount * sizeof(double), nullptr);
  if (!racy) {
    (void)capi::cuda::device_synchronize();
  }
  std::array<mpisim::Request*, 2> reqs{};
  (void)capi::mpi::irecv(env.comm, recv_buf, kCount, type, peer, 3, &reqs[0]);
  (void)capi::mpi::isend(env.comm, send_buf, kCount, type, peer, 3, &reqs[1]);
  (void)capi::mpi::waitall(env.comm, reqs);
  (void)capi::cuda::device_synchronize();
  (void)capi::cuda::free(send_buf);
  (void)capi::cuda::free(recv_buf);
}

[[nodiscard]] inline const char* name(bool racy) {
  return racy ? "waitall_program racy" : "waitall_program clean";
}

/// Run the program on two ranks under MUST & CuSan; returns the race count.
[[nodiscard]] inline std::size_t run(bool racy) {
  return capi::total_races(capi::run_flavored(
      capi::Flavor::kMustCusan, 2, [racy](capi::RankEnv& env) { rank_main(env, racy); }));
}

}  // namespace waitall_program
