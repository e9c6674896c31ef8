// Integration tests of the two mini-apps across tool flavors: numerics are
// flavor-independent, correct versions are race-free under full checking,
// and the seeded-race variants are detected (paper §V / §VI-C).
#include <gtest/gtest.h>

#include <cmath>

#include "apps/jacobi.hpp"
#include "apps/stencil2d.hpp"
#include "apps/tealeaf.hpp"
#include "mpisim/world.hpp"

namespace {

using capi::Flavor;

// The numerics tests that pin `mpisim::Backend::kThread` read rank outputs
// written into a vector captured by reference, which a forked rank
// (CUSAN_MPI_BACKEND=proc) writes only in its own address space. They check
// the solvers, not the backend; test_procsim compares the backends' verdicts.

apps::JacobiConfig small_jacobi() {
  apps::JacobiConfig config;
  config.rows = 64;
  config.cols = 32;
  config.iterations = 30;
  return config;
}

apps::TeaLeafConfig small_tealeaf() {
  apps::TeaLeafConfig config;
  config.rows = 32;
  config.cols = 16;
  config.timesteps = 3;
  config.max_cg_iters = 8;
  return config;
}

struct AppRun {
  std::vector<capi::RankResult> results;
  apps::JacobiResult jacobi{};
  apps::TeaLeafResult tealeaf{};
};

AppRun run_jacobi(Flavor flavor, const apps::JacobiConfig& config, int ranks = 2) {
  AppRun run;
  std::vector<apps::JacobiResult> per_rank(static_cast<std::size_t>(ranks));
  run.results = capi::run_flavored(flavor, ranks, [&](capi::RankEnv& env) {
    per_rank[static_cast<std::size_t>(env.rank())] = apps::run_jacobi_rank(env, config);
  });
  run.jacobi = per_rank[0];
  return run;
}

AppRun run_tealeaf(Flavor flavor, const apps::TeaLeafConfig& config, int ranks = 2) {
  AppRun run;
  std::vector<apps::TeaLeafResult> per_rank(static_cast<std::size_t>(ranks));
  run.results = capi::run_flavored(flavor, ranks, [&](capi::RankEnv& env) {
    per_rank[static_cast<std::size_t>(env.rank())] = apps::run_tealeaf_rank(env, config);
  });
  run.tealeaf = per_rank[0];
  return run;
}

// -- Jacobi ---------------------------------------------------------------------

TEST(JacobiAppTest, ConvergesTowardsLaplaceSolution) {
  const mpisim::ScopedBackend thread_backend(mpisim::Backend::kThread);
  const auto first = run_jacobi(Flavor::kVanilla, [] {
                       auto c = small_jacobi();
                       c.iterations = 5;
                       return c;
                     }());
  const auto later = run_jacobi(Flavor::kVanilla, small_jacobi());
  EXPECT_GT(first.jacobi.final_residual, 0.0);
  EXPECT_LT(later.jacobi.final_residual, first.jacobi.final_residual);
  EXPECT_TRUE(std::isfinite(later.jacobi.final_residual));
}

TEST(JacobiAppTest, ResultIndependentOfFlavor) {
  const auto vanilla = run_jacobi(Flavor::kVanilla, small_jacobi());
  const auto checked = run_jacobi(Flavor::kMustCusan, small_jacobi());
  EXPECT_DOUBLE_EQ(vanilla.jacobi.final_residual, checked.jacobi.final_residual);
}

TEST(JacobiAppTest, ResultIndependentOfRankCount) {
  const auto two = run_jacobi(Flavor::kVanilla, small_jacobi(), 2);
  const auto four = run_jacobi(Flavor::kVanilla, small_jacobi(), 4);
  EXPECT_NEAR(two.jacobi.final_residual, four.jacobi.final_residual, 1e-12);
}

TEST(JacobiAppTest, CorrectVersionIsRaceFree) {
  const auto run = run_jacobi(Flavor::kMustCusan, small_jacobi());
  EXPECT_EQ(capi::total_races(run.results), 0u);
  for (const auto& r : run.results) {
    EXPECT_TRUE(r.must_reports.empty());
  }
}

TEST(JacobiAppTest, SeededRaceIsDetectedByCusan) {
  auto config = small_jacobi();
  config.skip_pre_mpi_sync = true;
  const auto run = run_jacobi(Flavor::kMustCusan, config);
  EXPECT_GE(capi::total_races(run.results), 1u);
}

TEST(JacobiAppTest, SeededRaceInvisibleWithoutCusan) {
  auto config = small_jacobi();
  config.skip_pre_mpi_sync = true;
  // TSan alone has no CUDA semantics: the missing stream sync is invisible.
  const auto run = run_jacobi(Flavor::kTsan, config);
  EXPECT_EQ(capi::total_races(run.results), 0u);
}

TEST(JacobiAppTest, CountersPopulatedUnderCusan) {
  const auto run = run_jacobi(Flavor::kMustCusan, small_jacobi());
  const auto c = [&](std::string_view name) { return obs::value_of(run.results[0].metrics, name); };
  const auto config = small_jacobi();
  // 2 kernels per norm iteration + 2 init kernels.
  EXPECT_EQ(c("cusan.kernel_launches"), 2 * config.iterations + 2);
  EXPECT_EQ(c("cusan.memcpys"), config.iterations);    // 1 norm D2H per iteration
  EXPECT_EQ(c("cusan.memsets"), 2u);                    // initial clears
  EXPECT_EQ(c("cusan.streams_created"), 3u);            // default + 2 user streams
  EXPECT_GE(c("cusan.sync_calls"), config.iterations);  // stream sync + wait-event
  EXPECT_GT(c("rsan.read_range_bytes"), 0u);
  EXPECT_GT(c("rsan.write_range_bytes"), 0u);
  EXPECT_GT(c("rsan.fiber_switches"), 0u);
}

TEST(JacobiAppTest, NormIntervalReducesMemcpys) {
  auto config = small_jacobi();
  config.norm_interval = 5;
  const auto run = run_jacobi(Flavor::kCusan, config);
  EXPECT_EQ(obs::value_of(run.results[0].metrics, "cusan.memcpys"), config.iterations / 5);
}

// -- TeaLeaf --------------------------------------------------------------------

TEST(TeaLeafAppTest, CgReducesResidual) {
  const mpisim::ScopedBackend thread_backend(mpisim::Backend::kThread);
  const auto run = run_tealeaf(Flavor::kVanilla, small_tealeaf());
  EXPECT_TRUE(std::isfinite(run.tealeaf.final_residual));
  EXPECT_GT(run.tealeaf.total_cg_iters, 0u);
  EXPECT_GT(run.tealeaf.temperature_sum, 0.0);
}

TEST(TeaLeafAppTest, DiffusionSmoothsTemperature) {
  const mpisim::ScopedBackend thread_backend(mpisim::Backend::kThread);
  // More timesteps: the hot corner spreads; energy (sum u^2) decreases as
  // the implicit solve diffuses the spike.
  auto short_config = small_tealeaf();
  short_config.timesteps = 1;
  auto long_config = small_tealeaf();
  long_config.timesteps = 6;
  const auto short_run = run_tealeaf(Flavor::kVanilla, short_config);
  const auto long_run = run_tealeaf(Flavor::kVanilla, long_config);
  EXPECT_LT(long_run.tealeaf.temperature_sum, short_run.tealeaf.temperature_sum);
}

TEST(TeaLeafAppTest, ResultIndependentOfFlavor) {
  const auto vanilla = run_tealeaf(Flavor::kVanilla, small_tealeaf());
  const auto checked = run_tealeaf(Flavor::kMustCusan, small_tealeaf());
  EXPECT_DOUBLE_EQ(vanilla.tealeaf.temperature_sum, checked.tealeaf.temperature_sum);
}

TEST(TeaLeafAppTest, CorrectVersionIsRaceFree) {
  const auto run = run_tealeaf(Flavor::kMustCusan, small_tealeaf());
  EXPECT_EQ(capi::total_races(run.results), 0u);
}

TEST(TeaLeafAppTest, SeededRaceIsDetected) {
  auto config = small_tealeaf();
  config.skip_wait_before_kernel = true;
  const auto run = run_tealeaf(Flavor::kMustCusan, config);
  EXPECT_GE(capi::total_races(run.results), 1u);
}

TEST(TeaLeafAppTest, SeededRaceNeedsBothMustAndCusan) {
  auto config = small_tealeaf();
  config.skip_wait_before_kernel = true;
  // The race is between an MPI request fiber (MUST) and a kernel (CuSan):
  // CuSan alone misses the request side, MUST alone misses the kernel side.
  const auto must_only = run_tealeaf(Flavor::kMust, config);
  EXPECT_EQ(capi::total_races(must_only.results), 0u);
  const auto both = run_tealeaf(Flavor::kMustCusan, config);
  EXPECT_GE(capi::total_races(both.results), 1u);
}

TEST(TeaLeafAppTest, CountersShowDefaultStreamOnlyProfile) {
  const auto run = run_tealeaf(Flavor::kMustCusan, small_tealeaf());
  const auto c = [&](std::string_view name) { return obs::value_of(run.results[0].metrics, name); };
  EXPECT_EQ(c("cusan.streams_created"), 1u);  // default stream only (paper Table I)
  EXPECT_EQ(c("cusan.memsets"), 3 * small_tealeaf().timesteps);
  EXPECT_GT(c("cusan.kernel_launches"), 0u);
  EXPECT_GT(c("must.request_fibers_created"), 0u);
}

TEST(TeaLeafAppTest, SingleRankHasNoExchanges) {
  const auto run = run_tealeaf(Flavor::kMustCusan, small_tealeaf(), 1);
  EXPECT_EQ(capi::total_races(run.results), 0u);
  EXPECT_EQ(obs::value_of(run.results[0].metrics, "must.request_fibers_created"), 0u);
}

// -- Stencil2D (2D decomposition, vector datatypes, dup'ed communicator) ---------

apps::Stencil2DConfig small_stencil(int px, int py) {
  apps::Stencil2DConfig config;
  config.rows = 32;
  config.cols = 32;
  config.px = px;
  config.py = py;
  config.iterations = 10;
  return config;
}

struct StencilRun {
  std::vector<capi::RankResult> results;
  apps::Stencil2DResult app{};
};

StencilRun run_stencil(Flavor flavor, const apps::Stencil2DConfig& config) {
  StencilRun run;
  const int ranks = config.px * config.py;
  std::vector<apps::Stencil2DResult> per_rank(static_cast<std::size_t>(ranks));
  run.results = capi::run_flavored(flavor, ranks, [&](capi::RankEnv& env) {
    per_rank[static_cast<std::size_t>(env.rank())] = apps::run_stencil2d_rank(env, config);
  });
  run.app = per_rank[0];
  return run;
}

TEST(Stencil2DAppTest, DiffusionPreservesMassUntilBoundary) {
  const mpisim::ScopedBackend thread_backend(mpisim::Backend::kThread);
  // For the first iterations the hot plate has not reached the boundary, so
  // the 5-point average conserves the total mass exactly.
  auto config = small_stencil(2, 1);
  config.iterations = 3;
  const auto run = run_stencil(Flavor::kVanilla, config);
  const double initial_mass = 4.0 * (16.0 * 16.0);  // hot plate of rows/2 x cols/2
  EXPECT_NEAR(run.app.checksum, initial_mass, 1e-9);
}

TEST(Stencil2DAppTest, DecompositionIndependent) {
  const auto row_split = run_stencil(Flavor::kVanilla, small_stencil(1, 2));
  const auto col_split = run_stencil(Flavor::kVanilla, small_stencil(2, 1));
  const auto grid_split = run_stencil(Flavor::kVanilla, small_stencil(2, 2));
  EXPECT_NEAR(row_split.app.checksum, col_split.app.checksum, 1e-9);
  EXPECT_NEAR(row_split.app.checksum, grid_split.app.checksum, 1e-9);
  EXPECT_NEAR(row_split.app.corner_value, grid_split.app.corner_value, 1e-12);
}

TEST(Stencil2DAppTest, CorrectVersionIsRaceFree) {
  const auto run = run_stencil(Flavor::kMustCusan, small_stencil(2, 2));
  EXPECT_EQ(capi::total_races(run.results), 0u);
  for (const auto& result : run.results) {
    EXPECT_TRUE(result.must_reports.empty());
  }
}

TEST(Stencil2DAppTest, SeededRaceDetected) {
  auto config = small_stencil(2, 2);
  config.skip_pre_exchange_sync = true;
  const auto run = run_stencil(Flavor::kMustCusan, config);
  EXPECT_GE(capi::total_races(run.results), 1u);
}

TEST(Stencil2DAppTest, VectorDatatypeHalosDoNotFalsePositive) {
  // The column halo is non-contiguous: only the strided bytes are annotated,
  // so the in-row neighbors of exchanged cells never conflict.
  const auto run = run_stencil(Flavor::kMustCusan, small_stencil(2, 1));
  EXPECT_EQ(capi::total_races(run.results), 0u);
  // Non-blocking requests were modelled as fibers.
  EXPECT_GT(obs::value_of(run.results[0].metrics, "must.request_fibers_created"), 0u);
}

}  // namespace
