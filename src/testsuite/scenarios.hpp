// The CuSan correctness test suite (paper §VI-C) as a reusable library:
// a matrix of small CUDA-aware MPI programs — correct and seeded-racy — over
// communication direction x memory kind x stream kind x synchronization
// mechanism. Consumed by the gtest suite (tests/test_testsuite.cpp) and by
// the llvm-lit-style runner (tools/check_cutests.cpp), mirroring the
// artifact's `make check-cutests` target.
#pragma once

#include <string>
#include <vector>

#include "capi/session.hpp"

namespace testsuite {

enum class Direction { kCudaToMpi, kMpiToCuda };
enum class Mem { kDevice, kManaged, kPinned };
enum class StreamKind { kDefault, kUser, kNonBlocking };
enum class Sync {
  kNone,         ///< cuda-to-mpi: no sync before MPI        -> race
  kDevice,       ///< cudaDeviceSynchronize                  -> clean
  kStream,       ///< cudaStreamSynchronize(launch stream)   -> clean
  kWrongStream,  ///< synchronize an unrelated stream        -> race
  kEvent,        ///< record + cudaEventSynchronize          -> clean
  kEventEarly,   ///< event recorded BEFORE the kernel       -> race
  kQuery,        ///< busy-wait on cudaStreamQuery           -> clean
  kMemcpy,       ///< implicit sync via cudaMemcpy D2H       -> clean unless non-blocking stream
  // mpi-to-cuda completion modes:
  kWait,         ///< MPI_Wait before the kernel             -> clean
  kNoWait,       ///< kernel launched before MPI_Wait        -> race
  kTestLoop,     ///< MPI_Test loop before the kernel        -> clean
};

/// Which byte sub-range of the buffer the kernel's IR provably touches
/// (interval analysis): the whole buffer (⊤ summary), only the tail half
/// (disjoint from the exchanged head half) or only the head half (overlapping
/// the exchange).
enum class Span { kWhole, kTail, kHead };

/// Annotation precision the run is configured with: the paper's
/// whole-allocation ranges or the byte-precise interval refinement.
enum class Precision { kWholeRange, kIntervals };

[[nodiscard]] const char* to_string(Mem m);
[[nodiscard]] const char* to_string(StreamKind s);
[[nodiscard]] const char* to_string(Sync s);
[[nodiscard]] const char* to_string(Span s);

struct Scenario {
  std::string name;
  Direction dir{Direction::kCudaToMpi};
  Mem mem{Mem::kDevice};
  StreamKind stream{StreamKind::kDefault};
  Sync sync{Sync::kNone};
  /// Default-stream semantics the program is compiled with (§VI-B).
  cusim::DefaultStreamMode stream_mode{cusim::DefaultStreamMode::kLegacy};
  Span span{Span::kWhole};
  Precision precision{Precision::kIntervals};
  bool expect_race{false};
};

/// The full parameterized scenario matrix (62 entries, incl. per-thread
/// default-stream mode).
[[nodiscard]] std::vector<Scenario> build_scenarios();

/// Run one scenario's pairwise program on the given rank: ranks pair up as
/// (2i, 2i+1) so the scenario runs on every pair of the world concurrently
/// (world size comes from capi::default_ranks(), i.e. CUSAN_RANKS).
void scenario_rank_main(capi::RankEnv& env, const Scenario& scenario);

/// Race count plus the tracked-byte volume (rsan read_range/write_range
/// bytes summed over both ranks) — the per-scenario precision metric that
/// tools/check_cutests reports — and the shadow fast-path hit counters
/// (zero when the fast path is disabled).
struct ScenarioOutcome {
  std::size_t races{0};
  std::uint64_t tracked_bytes{0};
  std::uint64_t fastpath_hits{0};             ///< block segments decided on their runs
  std::uint64_t fastpath_granules_elided{0};  ///< granule scans skipped
  std::uint64_t elided_launches{0};           ///< launches with ≥1 proof-elided argument
  std::uint64_t elided_bytes{0};              ///< annotation bytes proven race-free & elided
};

/// Run a scenario under MUST & CuSan and return races + tracked bytes.
/// The one-argument form uses the environment-default shadow fast-path
/// setting; the two-argument form pins it (dual-mode divergence checks).
/// The three-argument form additionally sets the MPI watchdog timeout
/// (fault-sweep runs use a short timeout so injected stalls resolve fast).
/// The four-argument form also pins the prove-and-elide mode (the shorter
/// forms inherit the CUSAN_PROVE_ELIDE environment default).
[[nodiscard]] ScenarioOutcome run_scenario_outcome(const Scenario& scenario);
[[nodiscard]] ScenarioOutcome run_scenario_outcome(const Scenario& scenario,
                                                   bool use_shadow_fast_path);
[[nodiscard]] ScenarioOutcome run_scenario_outcome(const Scenario& scenario,
                                                   bool use_shadow_fast_path,
                                                   std::chrono::milliseconds watchdog_timeout);
[[nodiscard]] ScenarioOutcome run_scenario_outcome(const Scenario& scenario,
                                                   bool use_shadow_fast_path,
                                                   std::chrono::milliseconds watchdog_timeout,
                                                   cusan::ProveElide prove_elide);

/// Run a scenario under MUST & CuSan and return the total race count.
[[nodiscard]] std::size_t run_scenario(const Scenario& scenario);

/// True if the tool classified the scenario as its definition expects.
[[nodiscard]] inline bool classified_correctly(const Scenario& scenario, std::size_t races) {
  return scenario.expect_race ? races >= 1 : races == 0;
}

}  // namespace testsuite
