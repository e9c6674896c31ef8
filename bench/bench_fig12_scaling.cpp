// Fig. 12 reproduction: Jacobi relative runtime overhead of CuSan w.r.t.
// vanilla as a function of the global domain size, together with the total
// bytes tracked via tsan_read_range/tsan_write_range across both ranks.
//
// The paper's claim (§V-B): "runtime overhead of CuSan scales approximately
// with the amount of memory that is tracked by TSan". The harness reports,
// per domain size, the relative runtime, the tracked MB and the CuSan cost
// per tracked MB — the latter staying roughly flat is the quantitative form
// of the paper's proportionality claim on this substrate.
//
// Iteration counts shrink with the domain so the sweep stays tractable on a
// CPU; relative values are unaffected since both flavors use the same count.
#include "bench_common.hpp"
#include "bench_json.hpp"

namespace {

struct SizePoint {
  std::size_t rows;
  std::size_t cols;
  std::size_t iterations;
};

constexpr SizePoint kSweep[] = {
    {512, 256, 40}, {1024, 512, 20}, {2048, 1024, 10}, {4096, 2048, 5}, {8192, 4096, 3},
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  (void)bench::parse_json_flag(&argc, argv, &json_path);
  bench::JsonReport report("fig12_scaling");
  bench::print_header(
      "Jacobi CuSan overhead vs. global domain size (+ tracked TSan bytes, 2 ranks)",
      "paper Fig. 12 (SC-W 2024, CuSan)");

  bench::Table table(&report, "scaling",
                     {"domain", "iters", "vanilla [s]", "CuSan [s]", "rel. runtime", "TSan read",
                      "TSan write", "CuSan-added s/GiB"});

  for (const auto& point : kSweep) {
    apps::JacobiConfig config;
    config.rows = point.rows;
    config.cols = point.cols;
    config.iterations = point.iterations;

    const double vanilla = bench::timed_average(
        [&] {
          (void)bench::run_app(capi::Flavor::kVanilla, 2, [&](capi::RankEnv& env) {
            (void)apps::run_jacobi_rank(env, config);
          });
        },
        2);

    std::uint64_t read_bytes = 0;
    std::uint64_t write_bytes = 0;
    const double cusan = bench::timed_average(
        [&] {
          const auto run = bench::run_app(capi::Flavor::kCusan, 2, [&](capi::RankEnv& env) {
            (void)apps::run_jacobi_rank(env, config);
          });
          read_bytes = capi::sum_metric(run.results, "rsan.read_range_bytes");
          write_bytes = capi::sum_metric(run.results, "rsan.write_range_bytes");
        },
        2);

    const double tracked_gib =
        static_cast<double>(read_bytes + write_bytes) / (1024.0 * 1024.0 * 1024.0);
    table.add_row({common::format("{}x{}", point.rows, point.cols),
                   std::to_string(point.iterations), common::fixed(vanilla, 3),
                   common::fixed(cusan, 3), common::fixed(cusan / vanilla, 2),
                   common::format_bytes(read_bytes), common::format_bytes(write_bytes),
                   common::fixed((cusan - vanilla) / (tracked_gib > 0 ? tracked_gib : 1), 3)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("paper series (rel. runtime, V100): roughly 6x at 512x256 rising above 100x at\n");
  std::printf("8192x4096. On this CPU substrate the *proportionality* claim is the target:\n");
  std::printf("tracked bytes grow ~16x per domain quadrupling and the CuSan-added seconds\n");
  std::printf("per tracked GiB stay approximately constant.\n");
  return bench::finish_json(report, json_path);
}
