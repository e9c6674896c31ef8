// Jacobi solver example: runs the CUDA-aware MPI Jacobi mini-app under a
// selectable tool flavor and prints solver results plus the tool's event
// counters (the per-app view behind the paper's Table I).
//
// Usage: ./examples/jacobi_solver [flavor] [rows] [cols] [iters] [--racy]
//   flavor: vanilla | tsan | must | cusan | must+cusan   (default: must+cusan)
// Set CUSAN_TRACE=perfetto:<path> to record every intercepted CUDA call on
// each rank's timeline (load the file in ui.perfetto.dev).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/jacobi.hpp"
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
  apps::JacobiConfig config;
  config.rows = 256;
  config.cols = 128;
  config.iterations = 50;
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
    config.iterations = std::strtoul(argv[4], nullptr, 10);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--racy") == 0) {
      config.skip_pre_mpi_sync = true;
    }
  }

  std::printf("Jacobi %zux%zu, %zu iterations, 2 ranks, flavor=%s%s\n", config.rows, config.cols,
              config.iterations, capi::to_string(flavor),
              config.skip_pre_mpi_sync ? " [seeded race: missing pre-MPI sync]" : "");

  capi::SessionConfig session;
  session.ranks = 2;
  session.tools = capi::make_tool_config(flavor);
  std::vector<apps::JacobiResult> app_results(2);
  const auto results = capi::run_session(session, [&](capi::RankEnv& env) {
    app_results[static_cast<std::size_t>(env.rank())] = apps::run_jacobi_rank(env, config);
  });

  std::printf("final residual: %.6e (domain: %s per rank)\n", app_results[0].final_residual,
              common::format_bytes(app_results[0].domain_bytes_per_rank).c_str());

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
  table.add_row({"fiber switches", count("rsan.fiber_switches")});
  table.add_row({"read-range tracked", bytes("rsan.read_range_bytes")});
  table.add_row({"write-range tracked", bytes("rsan.write_range_bytes")});
  table.add_row({"shadow memory", common::format_bytes(r0.shadow_bytes)});
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
