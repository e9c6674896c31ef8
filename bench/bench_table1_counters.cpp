// Table I reproduction: CUDA and TSan runtime event counters for one MPI
// process, as reported by CuSan, for the Jacobi and TeaLeaf mini-apps.
//
// Absolute counts depend on the (scaled) app configurations; the
// reproduction target is the structural profile the paper reports: Jacobi
// uses multiple streams, blocking MPI, few memsets and large tracked sizes;
// TeaLeaf uses only the default stream, non-blocking MPI, per-step memsets
// and small tracked sizes.
#include "bench_common.hpp"
#include "bench_json.hpp"

namespace {

struct Row {
  const char* metric;
  std::string jacobi;
  std::string tealeaf;
  const char* paper_jacobi;
  const char* paper_tealeaf;
};

std::string kb_avg(std::uint64_t bytes, std::uint64_t calls) {
  if (calls == 0) {
    return "0";
  }
  return common::fixed(static_cast<double>(bytes) / static_cast<double>(calls) / 1024.0, 2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  (void)bench::parse_json_flag(&argc, argv, &json_path);
  bench::JsonReport report("table1_counters");
  bench::print_header("CUDA and TSan runtime event counters for one MPI process",
                      "paper Table I (SC-W 2024, CuSan)");

  const auto jacobi_config = bench::bench_jacobi_config();
  const auto tealeaf_config = bench::bench_tealeaf_config();

  const auto jacobi = bench::run_app(capi::Flavor::kMustCusan, 2, [&](capi::RankEnv& env) {
    (void)apps::run_jacobi_rank(env, jacobi_config);
  });
  const auto tealeaf = bench::run_app(capi::Flavor::kMustCusan, 2, [&](capi::RankEnv& env) {
    (void)apps::run_tealeaf_rank(env, tealeaf_config);
  });

  // Rank 0's counts, as Table I reports one process.
  const auto jacobi_value = [&](std::string_view name) {
    return obs::value_of(jacobi.results[0].metrics, name);
  };
  const auto tealeaf_value = [&](std::string_view name) {
    return obs::value_of(tealeaf.results[0].metrics, name);
  };
  const auto count = [](std::uint64_t n) { return std::to_string(n); };
  const auto avg_kb = [&](const auto& value, const char* kind) {
    return kb_avg(value(std::string("rsan.") + kind + "_range_bytes"),
                  value(std::string("rsan.") + kind + "_range_calls"));
  };
  const auto row = [&](const char* metric, const char* name, const char* paper_jacobi,
                       const char* paper_tealeaf) {
    return Row{metric, count(jacobi_value(name)), count(tealeaf_value(name)), paper_jacobi,
               paper_tealeaf};
  };

  std::printf("Jacobi %zux%zu (%zu iters, blocking MPI), TeaLeaf %zux%zu (%zu steps, "
              "non-blocking MPI); rank 0 of 2\n\n",
              jacobi_config.rows, jacobi_config.cols, jacobi_config.iterations,
              tealeaf_config.rows, tealeaf_config.cols, tealeaf_config.timesteps);

  const Row rows[] = {
      row("CUDA Stream", "cusan.streams_created", "2", "1"),
      row("CUDA Memset", "cusan.memsets", "2", "36"),
      row("CUDA Memcpy", "cusan.memcpys", "602", "102"),
      row("CUDA Synchronization calls", "cusan.sync_calls", "900", "530"),
      row("CUDA Kernel calls", "cusan.kernel_launches", "1,200", "767"),
      row("TSan Switch To Fiber", "rsan.fiber_switches", "3,622", "1,882"),
      row("TSan AnnotateHappensBefore", "cusan.hb_before", "1,804", "905"),
      row("TSan AnnotateHappensAfter", "cusan.hb_after", "1,515", "632"),
      row("TSan Memory Read Range", "rsan.read_range_calls", "2,102", "623"),
      row("TSan Memory Write Range", "rsan.write_range_calls", "2,403", "1,074"),
      {"TSan Memory Read Size [avg KB]", avg_kb(jacobi_value, "read"),
       avg_kb(tealeaf_value, "read"), "19,705.62", "15.98"},
      {"TSan Memory Write Size [avg KB]", avg_kb(jacobi_value, "write"),
       avg_kb(tealeaf_value, "write"), "16,421.35", "17.58"},
  };

  bench::Table table(&report, "counters",
                     {"metric", "Jacobi", "TeaLeaf", "paper Jacobi", "paper TeaLeaf"});
  for (const auto& r : rows) {
    table.add_row({r.metric, r.jacobi, r.tealeaf, r.paper_jacobi, r.paper_tealeaf});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("expected structural profile: Jacobi has >1 user stream and avg tracked KB\n");
  std::printf("orders of magnitude above TeaLeaf's; TeaLeaf has 1 stream, 3 memsets/step,\n");
  std::printf("and MUST request fibers (non-blocking MPI): %llu created, %llu reused.\n",
              static_cast<unsigned long long>(tealeaf_value("must.request_fibers_created")),
              static_cast<unsigned long long>(tealeaf_value("must.request_fibers_reused")));
  return bench::finish_json(report, json_path);
}
