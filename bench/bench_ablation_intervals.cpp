// Ablation for the byte-interval annotation refinement (beyond the paper;
// its §VI names sub-range precision as future work): runs the Jacobi,
// stencil2d and TeaLeaf mini-apps under MUST & CuSan with whole-range
// annotations (use_access_intervals=false, the paper's behaviour), with the
// interval-precise annotations, and with intervals plus prove-and-elide
// (CUSAN_PROVE_ELIDE=full: kernel arguments whose affine thread-index
// summary is provably race-free store no shadow cells; they take a
// check-only scan plus a proven-region publish instead),
// reporting the tracked-byte volume (rsan read_range + write_range bytes
// over all ranks), the elided launch/byte volume and the relative runtime.
#include "apps/stencil2d.hpp"
#include "apps/tealeaf.hpp"
#include "bench_common.hpp"
#include "bench_json.hpp"

namespace {

struct Measurement {
  double seconds{};
  double tracked_mb{};
  std::uint64_t interval_args{};
  std::uint64_t whole_range_args{};
  std::uint64_t elided_launches{};
  double elided_mb{};
};

std::uint64_t tracked_bytes(const std::vector<capi::RankResult>& results) {
  return capi::sum_metric(results, "rsan.read_range_bytes") +
         capi::sum_metric(results, "rsan.write_range_bytes");
}

Measurement measure(bool use_intervals, cusan::ProveElide prove_elide, int ranks,
                    const capi::RankMain& rank_main) {
  Measurement m;
  const auto run_once = [&] {
    capi::SessionConfig session;
    session.ranks = ranks;
    session.tools = capi::make_tool_config(capi::Flavor::kMustCusan);
    session.tools.cusan_config.use_access_intervals = use_intervals;
    session.tools.cusan_config.prove_elide = prove_elide;
    session.device_profile = bench::bench_device_profile();
    const auto results = capi::run_session(session, rank_main);
    m.tracked_mb = static_cast<double>(tracked_bytes(results)) / (1024.0 * 1024.0);
    m.interval_args = capi::sum_metric(results, "cusan.interval_kernel_args");
    m.whole_range_args = capi::sum_metric(results, "cusan.whole_range_kernel_args");
    m.elided_launches = capi::sum_metric(results, "cusan.proof_elided_launches");
    m.elided_mb = static_cast<double>(capi::sum_metric(results, "cusan.proof_elided_bytes")) /
                  (1024.0 * 1024.0);
  };
  m.seconds = bench::timed_average(run_once);
  return m;
}

void report(bench::JsonReport* json, const char* app, const Measurement& whole,
            const Measurement& interval, const Measurement& elide) {
  bench::Table table(json, app,
                     {"configuration", "runtime [s]", "rel.", "tracked [MB]",
                      "interval/whole args", "elided launches", "elided [MB]"});
  const auto row = [&](const char* name, const Measurement& m) {
    table.add_row({name, common::fixed(m.seconds, 3), common::fixed(m.seconds / whole.seconds, 2),
                   common::fixed(m.tracked_mb, 1),
                   common::format("{}/{}", m.interval_args, m.whole_range_args),
                   common::format("{}", m.elided_launches), common::fixed(m.elided_mb, 1)});
  };
  row("whole-range (paper)", whole);
  row("byte intervals", interval);
  row("intervals + prove-elide", elide);
  std::printf("-- %s --\n%s\n", app, table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  (void)bench::parse_json_flag(&argc, argv, &json_path);
  bench::JsonReport json("ablation_intervals");
  bench::print_header(
      "CuSan ablation: whole-range vs byte-interval vs prove-and-elide annotations",
      "refinement of the paper's whole-allocation tracking (SC-W 2024, CuSan, §VI)");

  // Tall-thin domains: the interval refinement elides the halo rows of every
  // kernel annotation, so the relative saving is the halo fraction of the
  // padded grid (2 of local_rows + 2 rows). The row count is kept small so
  // that fraction is visible; wide rows keep the absolute volumes realistic.
  {
    apps::JacobiConfig config;
    config.rows = 16;  // 8 interior + 2 halo rows per rank
    config.cols = 2048;
    config.iterations = 150;
    const capi::RankMain rank_main = [&](capi::RankEnv& env) {
      (void)apps::run_jacobi_rank(env, config);
    };
    report(&json, "Jacobi (2 ranks)", measure(false, cusan::ProveElide::kOff, 2, rank_main),
           measure(true, cusan::ProveElide::kOff, 2, rank_main),
           measure(true, cusan::ProveElide::kFull, 2, rank_main));
  }
  {
    apps::Stencil2DConfig config;
    config.rows = 8;
    config.cols = 2048;
    config.px = 2;
    config.py = 1;
    config.iterations = 100;
    const capi::RankMain rank_main = [&](capi::RankEnv& env) {
      (void)apps::run_stencil2d_rank(env, config);
    };
    report(&json, "stencil2d (2 ranks)", measure(false, cusan::ProveElide::kOff, 2, rank_main),
           measure(true, cusan::ProveElide::kOff, 2, rank_main),
           measure(true, cusan::ProveElide::kFull, 2, rank_main));
  }
  {
    apps::TeaLeafConfig config;
    config.rows = 16;
    config.cols = 1024;
    config.timesteps = 3;
    config.max_cg_iters = 30;
    const capi::RankMain rank_main = [&](capi::RankEnv& env) {
      (void)apps::run_tealeaf_rank(env, config);
    };
    report(&json, "TeaLeaf CG (2 ranks)", measure(false, cusan::ProveElide::kOff, 2, rank_main),
           measure(true, cusan::ProveElide::kOff, 2, rank_main),
           measure(true, cusan::ProveElide::kFull, 2, rank_main));
  }

  std::printf("expected: interval mode annotates only the kernels' interior sub-ranges,\n");
  std::printf("so the tracked-byte volume drops (halo rows/columns are elided) while\n");
  std::printf("every access the kernels declare remains covered. prove-elide further\n");
  std::printf("replaces the tracked stores of provably race-free arguments with a\n");
  std::printf("check-only scan plus an O(1) proven-region publish, shrinking tracked\n");
  std::printf("bytes again without changing any verdict.\n");
  return bench::finish_json(json, json_path);
}
