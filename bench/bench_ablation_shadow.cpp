// Ablation for the rsan shadow fast path (uniform runs per shadow block, see
// DESIGN.md): runs the Jacobi mini-app on
// the Fig. 10 configuration under MUST & CuSan with the fast path disabled
// (use_shadow_fast_path=false, the reference per-granule scan) and enabled,
// reporting the runtime, the per-launch annotation cost (tracked runtime minus
// a tracking-free baseline, divided by kernel launches) and the race verdicts,
// which must be identical in both modes.
#include "apps/jacobi.hpp"
#include "bench_common.hpp"
#include "bench_json.hpp"

namespace {

struct Measurement {
  double seconds{};
  std::uint64_t kernel_launches{};
  std::uint64_t annotation_calls{};
  std::uint64_t block_hits{};
  std::uint64_t block_misses{};
  std::uint64_t granules_elided{};
  std::uint64_t races{};
};

enum class Mode { kNoTracking, kReference, kFastPath };

Measurement measure(Mode mode, int ranks, const capi::RankMain& rank_main) {
  Measurement m;
  const auto run_once = [&] {
    capi::SessionConfig session;
    session.ranks = ranks;
    session.tools = capi::make_tool_config(capi::Flavor::kMustCusan);
    session.tools.rsan_config.track_memory = mode != Mode::kNoTracking;
    session.tools.rsan_config.use_shadow_fast_path = mode == Mode::kFastPath;
    session.device_profile = bench::bench_device_profile();
    const auto results = capi::run_session(session, rank_main);
    m.kernel_launches = capi::sum_metric(results, "cusan.kernel_launches");
    m.annotation_calls = capi::sum_metric(results, "cusan.kernel_annotation_calls");
    m.block_hits = capi::sum_metric(results, "rsan.fastpath_block_hits");
    m.block_misses = capi::sum_metric(results, "rsan.fastpath_block_misses");
    m.granules_elided = capi::sum_metric(results, "rsan.fastpath_granules_elided");
    m.races = capi::total_races(results);
  };
  m.seconds = bench::timed_average(run_once);
  return m;
}

// Shadow-annotation cost attributable to one kernel launch: the runtime the
// configuration adds over an identical session with memory tracking off,
// spread over the launches that caused it.
double per_launch_cost_us(const Measurement& m, const Measurement& baseline) {
  if (m.kernel_launches == 0) {
    return 0.0;
  }
  const double extra = m.seconds - baseline.seconds;
  return (extra > 0.0 ? extra : 0.0) * 1e6 / static_cast<double>(m.kernel_launches);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  (void)bench::parse_json_flag(&argc, argv, &json_path);
  bench::JsonReport report("ablation_shadow");
  bench::print_header(
      "rsan ablation: reference per-granule scan vs shadow fast path",
      "design ablation of the range-annotation cost behind Fig. 10 (SC-W 2024, CuSan)");

  // Fig. 10 Jacobi configuration: large domain, whole-range kernel
  // annotations dominate, so the shadow store cost is what the fast path has
  // to cut. Every launch runs at a fresh epoch (cusan ticks the fiber clock
  // after each op), so the wins come from the blocks' uniform runs.
  const auto config = bench::bench_jacobi_config();
  const capi::RankMain rank_main = [&](capi::RankEnv& env) {
    (void)apps::run_jacobi_rank(env, config);
  };
  const int ranks = 2;
  const auto baseline = measure(Mode::kNoTracking, ranks, rank_main);
  const auto reference = measure(Mode::kReference, ranks, rank_main);
  const auto fast = measure(Mode::kFastPath, ranks, rank_main);

  const double ref_cost = per_launch_cost_us(reference, baseline);
  const double fast_cost = per_launch_cost_us(fast, baseline);

  bench::Table table(&report, "shadow",
                     {"configuration", "runtime [s]", "rel.", "annot cost [us/launch]",
                      "fastpath block hits", "granules elided", "races"});
  table.add_row({"tracking off (baseline)", common::fixed(baseline.seconds, 3), "-", "-", "-", "-",
                 common::format("{}", baseline.races)});
  table.add_row({"reference scan", common::fixed(reference.seconds, 3), "1.00",
                 common::fixed(ref_cost, 2),
                 common::format("{}", reference.block_hits),
                 common::format("{}", reference.granules_elided),
                 common::format("{}", reference.races)});
  table.add_row({"shadow fast path", common::fixed(fast.seconds, 3),
                 common::fixed(fast.seconds / reference.seconds, 2), common::fixed(fast_cost, 2),
                 common::format("{}", fast.block_hits),
                 common::format("{}", fast.granules_elided), common::format("{}", fast.races)});
  std::printf("-- Jacobi (Fig. 10 config, %d ranks) --\n%s\n", ranks, table.render().c_str());

  std::printf("fast path block segments: %llu hit / %llu miss; %llu annotation calls\n",
              static_cast<unsigned long long>(fast.block_hits),
              static_cast<unsigned long long>(fast.block_misses),
              static_cast<unsigned long long>(fast.annotation_calls));
  const double ratio = fast_cost > 0.0 ? ref_cost / fast_cost : 0.0;
  if (fast_cost > 0.0) {
    std::printf("per-launch annotation cost: %.2f us -> %.2f us (%.1fx lower)\n", ref_cost,
                fast_cost, ratio);
  }
  std::printf("expected: the fast path resolves repeated uniform ranges via uniform runs\n");
  std::printf("(>= 2x lower per-launch annotation cost on this config) while reporting the\n");
  std::printf("exact same races as the reference scan -- here %llu in both modes.\n",
              static_cast<unsigned long long>(fast.races));
  if (fast.races != reference.races) {
    std::printf("ERROR: race verdicts diverged between the two modes\n");
    return 1;
  }
  return bench::finish_json(report, json_path);
}
