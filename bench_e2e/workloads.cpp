#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "apps/jacobi.hpp"
#include "apps/tealeaf.hpp"
#include "bench_common.hpp"
#include "capi/session.hpp"
#include "common/clock.hpp"
#include "common/memstats.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "schedsim/controller.hpp"
#include "schedsim/explorer.hpp"
#include "spans.hpp"
#include "svc/executor.hpp"
#include "testsuite/scenarios.hpp"

namespace bench_e2e {
namespace {

constexpr int kRanks = 2;
constexpr int kSvcWorkers = 4;
constexpr std::size_t kTraceEventCap = 200000;
constexpr double kMiB = 1024.0 * 1024.0;

/// What the measured rounds add up to, sent to the parent: sums as `stat`
/// lines, per-unit distributions as `sample` lines.
struct Stats {
  std::map<std::string, double> sums;
  std::map<std::string, std::vector<std::uint64_t>> samples;
};

/// One side (vanilla or checked) of a round: per-unit wall time and verdict.
struct Side {
  std::vector<std::uint64_t> ns;
  std::vector<bool> ok;
  std::uint64_t wall_ns{0};

  void add(std::uint64_t unit_ns, bool unit_ok) {
    ns.push_back(unit_ns);
    ok.push_back(unit_ok);
  }
};

/// Races found by sessions that publish into the process-global registry
/// (every workload but svc-batch, whose sessions have their own).
std::uint64_t global_races() {
  static obs::Counter& races = obs::MetricsRegistry::global().counter("rsan.races_detected");
  return races.value();
}

capi::SessionConfig session_config(bool checked, cusan::ProveElide prove_elide) {
  capi::SessionConfig config;
  config.ranks = kRanks;
  config.tools =
      capi::make_tool_config(checked ? capi::Flavor::kMustCusan : capi::Flavor::kVanilla);
  config.tools.rsan_config.use_shadow_fast_path = true;
  config.tools.cusan_config.prove_elide = prove_elide;
  config.device_profile = bench::bench_device_profile();
  return config;
}

struct SessionTiming {
  std::uint64_t wall_ns{0};
  std::uint64_t rank_ns{0};          ///< summed over the rank threads
  std::uint64_t longest_rank_ns{0};

  void add_to(Stats& stats) const {
    stats.sums["rank.thread_ns"] += static_cast<double>(rank_ns);
    stats.sums["session.setup_ns"] += static_cast<double>(wall_ns - longest_rank_ns);
  }
};

/// capi::run_session with the benchmark's own spans and timings around the
/// session and each rank body.
SessionTiming timed_session(const capi::SessionConfig& config,
                            const std::function<void(capi::RankEnv&)>& body) {
  std::array<std::uint64_t, kRanks> rank_ns{};
  const std::uint64_t start = common::now_ns();
  {
    const Span span(Layer::kSession);
    (void)capi::run_session(config, [&](capi::RankEnv& env) {
      const Span rank_span(Layer::kRank);
      const std::uint64_t rank_start = common::now_ns();
      body(env);
      rank_ns[static_cast<std::size_t>(env.rank())] = common::now_ns() - rank_start;
    });
  }
  SessionTiming timing;
  timing.wall_ns = common::now_ns() - start;
  for (const std::uint64_t ns : rank_ns) {
    timing.rank_ns += ns;
    timing.longest_rank_ns = std::max(timing.longest_rank_ns, ns);
  }
  return timing;
}

/// One §VI-C scenario as one session, configured like
/// testsuite::run_scenario_outcome (which cannot run a vanilla twin).
SessionTiming scenario_session(const testsuite::Scenario& scenario, bool checked) {
  capi::SessionConfig config = session_config(checked, cusan::ProveElide::kOff);
  config.tools.cusan_config.use_access_intervals =
      scenario.precision == testsuite::Precision::kIntervals;
  config.device_profile.default_stream_mode = scenario.stream_mode;
  return timed_session(config,
                       [&](capi::RankEnv& env) { testsuite::scenario_rank_main(env, scenario); });
}

template <class T>
void shuffle(std::vector<T>& items, common::SplitMix64& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.next_below(i)]);
  }
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Pick the next round's inputs; returns its unit count.
  virtual std::size_t begin_round(bool warmup, common::SplitMix64& rng) = 0;
  /// Run every unit of the round on one side, checking each output.
  virtual void run_side(bool checked, Side& side, Stats& stats) = 0;
};

/// jacobi-track, jacobi-elide, tealeaf-calls: one round is one session.
class AppWorkload final : public Workload {
 public:
  AppWorkload(bool tealeaf, cusan::ProveElide prove_elide, double scale)
      : tealeaf_(tealeaf), prove_elide_(prove_elide) {
    jacobi_.rows = 2048;
    jacobi_.cols = 1024;
    jacobi_.iterations = scaled(60, scale);
    tealeaf_config_.rows = 64;
    tealeaf_config_.cols = 32;
    tealeaf_config_.timesteps = scaled(400, scale);
  }

  std::size_t begin_round(bool /*warmup*/, common::SplitMix64& /*rng*/) override { return 1; }

  void run_side(bool checked, Side& side, Stats& stats) override {
    // Per rank: the residual and a second output (iterations run for Jacobi,
    // the conserved temperature sum for TeaLeaf).
    std::array<double, 2 * kRanks> outputs{};
    const std::uint64_t races_before = global_races();
    const SessionTiming timing =
        timed_session(session_config(checked, prove_elide_), [&](capi::RankEnv& env) {
          const auto slot = 2 * static_cast<std::size_t>(env.rank());
          if (tealeaf_) {
            const apps::TeaLeafResult result = apps::run_tealeaf_rank(env, tealeaf_config_);
            outputs[slot] = result.final_residual;
            outputs[slot + 1] = result.temperature_sum;
          } else {
            const apps::JacobiResult result = apps::run_jacobi_rank(env, jacobi_);
            outputs[slot] = result.final_residual;
            outputs[slot + 1] = static_cast<double>(result.iterations_run);
          }
        });
    if (!reference_) {
      reference_ = outputs;  // the warmup's vanilla run
    }
    const bool finite = std::all_of(outputs.begin(), outputs.end(),
                                    [](double v) { return std::isfinite(v); });
    // Bit-equal to the vanilla reference: the checker must not perturb results.
    const bool same = std::memcmp(outputs.data(), reference_->data(), sizeof(outputs)) == 0;
    const bool race_free = !checked || global_races() == races_before;
    side.add(timing.wall_ns, finite && same && race_free);
    side.wall_ns += timing.wall_ns;
    if (checked) {
      timing.add_to(stats);
    }
  }

 private:
  static std::size_t scaled(std::size_t full, double scale) {
    return std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(full * scale)));
  }

  bool tealeaf_;
  cusan::ProveElide prove_elide_;
  apps::JacobiConfig jacobi_;
  apps::TeaLeafConfig tealeaf_config_;
  std::optional<std::array<double, 2 * kRanks>> reference_;
};

/// The scenario corpus, or its first `scale` share at reduced scale.
std::vector<testsuite::Scenario> corpus(double scale) {
  std::vector<testsuite::Scenario> scenarios = testsuite::build_scenarios();
  const auto keep = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::lround(static_cast<double>(scenarios.size()) * scale)), 1,
      scenarios.size());
  scenarios.resize(keep);
  return scenarios;
}

/// A round of the scenario workloads: one pass over the corpus, in seeded
/// order. The warmup is a whole pass too: each scenario's first run builds
/// its kernel registries, which made a first pass's vanilla units slower and
/// suite-dpor's checked/vanilla ratios about 30% lower than later passes'.
std::size_t corpus_pass(const std::vector<testsuite::Scenario>& scenarios, bool warmup,
                        common::SplitMix64& rng, std::vector<const testsuite::Scenario*>& out) {
  out.clear();
  for (const testsuite::Scenario& scenario : scenarios) {
    out.push_back(&scenario);
  }
  if (!warmup) {
    shuffle(out, rng);
  }
  return out.size();
}

/// suite-dpor: one round is a corpus pass; the checked unit explores one
/// scenario, its vanilla twin runs it once.
class DporWorkload final : public Workload {
 public:
  explicit DporWorkload(double scale) : corpus_(corpus(scale)) {}

  std::size_t begin_round(bool warmup, common::SplitMix64& rng) override {
    return corpus_pass(corpus_, warmup, rng, order_);
  }

  void run_side(bool checked, Side& side, Stats& stats) override {
    const std::uint64_t start = common::now_ns();
    for (const testsuite::Scenario* scenario : order_) {
      if (!checked) {
        side.add(scenario_session(*scenario, false).wall_ns, true);
        continue;
      }
      schedsim::Explorer explorer;
      SessionTiming sessions;  // summed over the explored executions
      const std::uint64_t explore_start = common::now_ns();
      std::vector<schedsim::Execution> executions;
      {
        const Span span(Layer::kExplore);
        executions = explorer.explore(schedsim::Controller::instance(), [&]() -> std::size_t {
          const Span run_span(Layer::kExploreRun);
          const std::uint64_t races_before = global_races();
          const SessionTiming timing = scenario_session(*scenario, true);
          sessions.wall_ns += timing.wall_ns;
          sessions.rank_ns += timing.rank_ns;
          sessions.longest_rank_ns += timing.longest_rank_ns;
          return global_races() - races_before;
        });
      }
      const std::uint64_t explore_ns = common::now_ns() - explore_start;
      explorer.publish_metrics();
      const bool ok = !executions.empty() &&
                      std::all_of(executions.begin(), executions.end(), [&](const auto& e) {
                        return !e.diverged && testsuite::classified_correctly(*scenario, e.races);
                      });
      side.add(explore_ns, ok);
      sessions.add_to(stats);
      stats.sums["schedsim.explore_self_ns"] +=
          static_cast<double>(explore_ns - sessions.wall_ns);
      stats.sums["schedsim.executions"] += static_cast<double>(executions.size());
      stats.sums["schedsim.drained"] += explorer.stats().bound_hit ? 0.0 : 1.0;
    }
    side.wall_ns += common::now_ns() - start;
  }

 private:
  std::vector<testsuite::Scenario> corpus_;
  std::vector<const testsuite::Scenario*> order_;
};

/// svc-batch: one round is a corpus pass as a batch of sessions, submitted
/// all at once to a 4-worker executor by one closed-loop client. 86 sessions
/// keep every worker's queue full for all but the batch's last few; a
/// longer batch put the checked and vanilla batches of a round a second
/// apart, which let background load move overhead_x (README.md).
class SvcWorkload final : public Workload {
 public:
  explicit SvcWorkload(double scale) : corpus_(corpus(scale)), executor_(executor_options()) {}

  std::size_t begin_round(bool warmup, common::SplitMix64& rng) override {
    return corpus_pass(corpus_, warmup, rng, batch_);
  }

  void run_side(bool checked, Side& side, Stats& stats) override {
    const std::size_t n = batch_.size();
    std::vector<std::uint64_t> submitted(n);
    std::vector<std::uint64_t> started(n);
    std::vector<SessionTiming> timings(n);
    std::vector<svc::SessionHandlePtr> handles(n);
    const svc::ExecutorStats before = executor_.stats();
    const std::uint64_t start = common::now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      svc::SessionSpec spec;
      spec.label = batch_[i]->name;
      // Each body writes only its own slots; wait_idle() orders them before
      // the reads below.
      spec.body = [&, i, scenario = batch_[i]] {
        started[i] = common::now_ns();
        timings[i] = scenario_session(*scenario, checked);
      };
      submitted[i] = common::now_ns();
      handles[i] = executor_.submit(std::move(spec));
    }
    executor_.wait_idle();
    side.wall_ns += common::now_ns() - start;
    const svc::ExecutorStats after = executor_.stats();
    for (std::size_t i = 0; i < n; ++i) {
      const svc::SessionResult& result = handles[i]->result();
      bool ok = result.ok;
      if (checked) {
        const auto races = result.metric_deltas.find("rsan.races_detected");
        const std::uint64_t found = races == result.metric_deltas.end() ? 0 : races->second;
        ok = ok && testsuite::classified_correctly(*batch_[i], found);
        for (const auto& [name, delta] : result.metric_deltas) {
          stats.sums["obs/" + name] += static_cast<double>(delta);
        }
        timings[i].add_to(stats);
        stats.samples["svc.queue_wait_ns"].push_back(started[i] - submitted[i]);
        stats.samples["svc.body_ns"].push_back(result.duration_ns);
      }
      side.add(result.duration_ns, ok);
    }
    if (checked) {
      stats.sums["svc.steals"] += static_cast<double>(after.steals - before.steals);
      stats.sums["svc.parked"] += static_cast<double>(after.parked - before.parked);
    }
  }

 private:
  static svc::ExecutorOptions executor_options() {
    svc::ExecutorOptions options;
    options.workers = kSvcWorkers;
    return options;
  }

  std::vector<testsuite::Scenario> corpus_;
  std::vector<const testsuite::Scenario*> batch_;
  svc::Executor executor_;
};

std::unique_ptr<Workload> make_workload(const std::string& name, double scale) {
  if (name == "jacobi-track") {
    return std::make_unique<AppWorkload>(false, cusan::ProveElide::kOff, scale);
  }
  if (name == "jacobi-elide") {
    return std::make_unique<AppWorkload>(false, cusan::ProveElide::kFull, scale);
  }
  if (name == "tealeaf-calls") {
    return std::make_unique<AppWorkload>(true, cusan::ProveElide::kOff, scale);
  }
  if (name == "suite-dpor") {
    return std::make_unique<DporWorkload>(scale);
  }
  return std::make_unique<SvcWorkload>(scale);
}

/// Report lines to the parent over a pipe.
class Channel {
 public:
  explicit Channel(int fd) : fd_(fd) {}

  void line(const char* format, ...) __attribute__((format(printf, 2, 3))) {
    char buf[512];
    va_list args;
    va_start(args, format);
    const int len = std::vsnprintf(buf, sizeof(buf), format, args);
    va_end(args);
    if (len > 0) {
      pending_.append(buf, std::min<std::size_t>(static_cast<std::size_t>(len), sizeof(buf) - 1));
      pending_ += '\n';
    }
  }

  void flush() {
    const char* data = pending_.data();
    std::size_t left = pending_.size();
    while (left > 0) {
      const ssize_t wrote = ::write(fd_, data, left);
      if (wrote <= 0) {
        break;  // the parent is gone; nothing left to tell
      }
      data += wrote;
      left -= static_cast<std::size_t>(wrote);
    }
    pending_.clear();
  }

 private:
  int fd_;
  std::string pending_;
};

void report_side_failures(const Side& side, const char* what, Channel& channel) {
  for (const bool ok : side.ok) {
    if (!ok) {
      channel.line("fail %s", what);
    }
  }
}

int child_main(const ChildOptions& options, Channel& channel) {
  std::unique_ptr<Workload> workload = make_workload(options.workload, options.scale);
  common::SplitMix64 rng(options.seed);
  Stats scratch;

  // Warmup, always vanilla first: the peak RSS after the vanilla run is the
  // uninstrumented footprint (this is a fresh process), the one after the
  // checked run includes the checker's.
  (void)workload->begin_round(true, rng);
  Side vanilla;
  Side checked;
  workload->run_side(false, vanilla, scratch);
  const double vanilla_hwm_mb = static_cast<double>(common::read_memstats().rss_peak_bytes) / kMiB;
  workload->run_side(true, checked, scratch);
  const double checked_hwm_mb = static_cast<double>(common::read_memstats().rss_peak_bytes) / kMiB;
  channel.line("ready %llu %.3f %.3f", static_cast<unsigned long long>(common::now_ns()),
               vanilla_hwm_mb, checked_hwm_mb);
  channel.flush();
  report_side_failures(vanilla, "warmup-vanilla", channel);
  report_side_failures(checked, "warmup-checked", channel);

  Stats stats;
  const obs::MetricsSnapshot registry_before = obs::MetricsRegistry::global().snapshot();
  const SpanTotals spans_before = span_totals();
  if (!options.trace_out.empty()) {
    start_capture(kTraceEventCap);
  }
  std::size_t units = 0;
  std::uint64_t checked_wall_ns = 0;
  const std::uint64_t start = common::now_ns();
  const auto budget_ns = static_cast<std::uint64_t>(options.seconds * 1e9);
  do {
    const std::size_t round_units = workload->begin_round(false, rng);
    vanilla = Side{};
    checked = Side{};
    const bool vanilla_first = (rng.next() & 1) != 0;
    if (vanilla_first && !options.checked_only) {
      workload->run_side(false, vanilla, stats);
    }
    workload->run_side(true, checked, stats);
    if (!vanilla_first && !options.checked_only) {
      workload->run_side(false, vanilla, stats);
    }
    if (!options.trace_out.empty() && units == 0) {
      std::string error;
      if (!obs::write_file(options.trace_out, stop_capture("bench_e2e " + options.workload),
                           &error)) {
        channel.line("fail trace-export");
      }
    }
    for (std::size_t i = 0; i < round_units; ++i) {
      const bool ok = checked.ok[i] && (options.checked_only || vanilla.ok[i]);
      channel.line("unit %llu %llu %d", static_cast<unsigned long long>(checked.ns[i]),
                   static_cast<unsigned long long>(options.checked_only ? 0 : vanilla.ns[i]),
                   ok ? 1 : 0);
    }
    units += round_units;
    checked_wall_ns += checked.wall_ns;
  } while (units < options.min_units || common::now_ns() - start < budget_ns);

  stats.sums["work.units"] += static_cast<double>(units);
  stats.sums["work.ns"] += static_cast<double>(checked_wall_ns);
  for (const auto& [name, delta] :
       obs::MetricsRegistry::diff(obs::MetricsRegistry::global().snapshot(), registry_before)) {
    stats.sums["obs/" + name] += static_cast<double>(delta);
  }
  const SpanTotals spans_after = span_totals();
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const std::string prefix = std::string("span/") + layer_name(static_cast<Layer>(i));
    stats.sums[prefix + "/calls"] +=
        static_cast<double>(spans_after[i].calls - spans_before[i].calls);
    stats.sums[prefix + "/self_ns"] +=
        static_cast<double>(spans_after[i].self_ns - spans_before[i].self_ns);
  }
  // kir analyses run once per process (kernel registries are cached), so
  // their time is reported whole, set-up included.
  stats.sums["kir.analysis_ns"] +=
      static_cast<double>(spans_after[static_cast<std::size_t>(Layer::kKir)].self_ns);
  for (const auto& [name, value] : stats.sums) {
    channel.line("stat %s %.17g", name.c_str(), value);
  }
  for (const auto& [name, values] : stats.samples) {
    for (const std::uint64_t value : values) {
      channel.line("sample %s %llu", name.c_str(), static_cast<unsigned long long>(value));
    }
  }
  channel.line("done");
  channel.flush();
  return 0;
}

}  // namespace

bool is_workload(const std::string& name) {
  return std::any_of(std::begin(kWorkloads), std::end(kWorkloads),
                     [&](const char* known) { return name == known; });
}

int run_child(const ChildOptions& options, int fd) {
  Channel channel(fd);
  try {
    return child_main(options, channel);
  } catch (const std::exception& e) {
    channel.line("error %s", e.what());
    channel.flush();
    return 1;
  }
}

}  // namespace bench_e2e
