// TeaLeaf-style heat conduction example: non-blocking CUDA-aware MPI halo
// exchange with a CG solver, run under a selectable tool flavor.
//
// Usage: ./examples/tealeaf_solver [flavor] [rows] [cols] [timesteps] [--racy]
//   flavor: vanilla | tsan | must | cusan | must+cusan   (default: must+cusan)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/tealeaf.hpp"
#include "common/table.hpp"
#include "rsan/report.hpp"

namespace {

capi::Flavor parse_flavor(const char* arg) {
  const std::string s(arg);
  if (s == "vanilla") {
    return capi::Flavor::kVanilla;
  }
  if (s == "tsan") {
    return capi::Flavor::kTsan;
  }
  if (s == "must") {
    return capi::Flavor::kMust;
  }
  if (s == "cusan") {
    return capi::Flavor::kCusan;
  }
  if (s == "must+cusan") {
    return capi::Flavor::kMustCusan;
  }
  std::fprintf(stderr, "unknown flavor '%s'\n", arg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  capi::Flavor flavor = capi::Flavor::kMustCusan;
  apps::TeaLeafConfig config;
  if (argc > 1) {
    flavor = parse_flavor(argv[1]);
  }
  if (argc > 2) {
    config.rows = std::strtoul(argv[2], nullptr, 10);
  }
  if (argc > 3) {
    config.cols = std::strtoul(argv[3], nullptr, 10);
  }
  if (argc > 4) {
    config.timesteps = std::strtoul(argv[4], nullptr, 10);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--racy") == 0) {
      config.skip_wait_before_kernel = true;
    }
  }

  std::printf("TeaLeaf %zux%zu, %zu timesteps (max %zu CG iters), 2 ranks, flavor=%s%s\n",
              config.rows, config.cols, config.timesteps, config.max_cg_iters,
              capi::to_string(flavor),
              config.skip_wait_before_kernel ? " [seeded race: kernel before MPI_Waitall]" : "");

  std::vector<apps::TeaLeafResult> app_results(2);
  const auto results = capi::run_flavored(flavor, 2, [&](capi::RankEnv& env) {
    app_results[static_cast<std::size_t>(env.rank())] = apps::run_tealeaf_rank(env, config);
  });

  std::printf("CG iterations: %zu, final residual: %.6e, global energy: %.6f\n",
              app_results[0].total_cg_iters, app_results[0].final_residual,
              app_results[0].temperature_sum);

  const auto& r0 = results[0];
  const auto count = [&](const char* name) {
    return std::to_string(obs::value_of(r0.metrics, name));
  };
  const auto bytes = [&](const char* name) {
    return common::format_bytes(obs::value_of(r0.metrics, name));
  };
  common::TextTable table({"metric (rank 0)", "value"});
  table.add_row({"CUDA streams", count("cusan.streams_created")});
  table.add_row({"kernel launches", count("cusan.kernel_launches")});
  table.add_row({"memcpys", count("cusan.memcpys")});
  table.add_row({"memsets", count("cusan.memsets")});
  table.add_row({"sync calls", count("cusan.sync_calls")});
  table.add_row({"MPI calls intercepted", count("must.calls_intercepted")});
  table.add_row({"request fibers (new/reused)",
                 count("must.request_fibers_created") + "/" + count("must.request_fibers_reused")});
  table.add_row({"read-range tracked", bytes("rsan.read_range_bytes")});
  table.add_row({"write-range tracked", bytes("rsan.write_range_bytes")});
  std::printf("\n%s\n", table.render().c_str());

  const std::size_t races = capi::total_races(results);
  for (const auto& result : results) {
    for (const auto& race : result.races) {
      std::printf("[rank %d]\n%s\n\n", result.rank, rsan::format_report(race).c_str());
    }
  }
  std::printf("data races detected: %zu\n", races);
  return 0;
}
