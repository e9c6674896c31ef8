// bench_e2e: the repository's end-to-end benchmark (see README.md).
//
//   bench_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//             [--runs N] [--scale F] [--json PATH]
//   bench_e2e --compare BEFORE.json AFTER.json [--bounds BENCHMARK.json]
//
// Without --workload every workload runs and BENCH_e2e.json is written. The
// last line of standard output is the result of the last run as one JSON
// object. Each workload runs in fresh child processes of this binary (or of
// bench_e2e_traced for --trace 1) with every CUSAN_* variable removed from
// their environment, so the configuration pinned in workloads.cpp is the one
// measured.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "workloads.hpp"
#ifdef BENCH_E2E_TRACED
#include "wrap.hpp"
#endif

extern char** environ;

namespace bench_e2e {
namespace {

/// Children per untraced run: each measures a third of --seconds, and the
/// reported set-up time is the median of their three set-ups.
constexpr int kChildren = 3;
/// Checked units a traced run measures at least, traced and untraced.
constexpr std::size_t kTracedUnits = 3;
/// Seconds a child may run beyond its measuring budget before it is killed.
constexpr double kChildGraceS = 60.0;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kGiB = 1024.0 * kMiB;
/// glibc's mmap threshold, pinned at its 128 KiB default. Left to slide,
/// glibc decides per run whether a freed multi-MiB grid stays in a heap
/// arena, which moved Jacobi's peak RSS in 8 MiB steps from run to run.
constexpr const char* kMallocPin = "MALLOC_MMAP_THRESHOLD_=131072";

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  int runs{1};
  double scale{1.0};
  std::string json_path;
};

/// What one workload child reported.
struct ChildRun {
  bool ready{false};
  bool completed{false};
  std::string error;
  double setup_s{0.0};
  double vanilla_hwm_mb{0.0};
  double checked_hwm_mb{0.0};
  double maxrss_mb{0.0};
  std::vector<double> checked_s;
  std::vector<double> vanilla_s;  ///< the paired vanilla unit; 0 when checked-only
  std::size_t attempted{0};
  std::size_t failed{0};
  std::map<std::string, double> sums;
  std::map<std::string, std::vector<double>> samples;

  [[nodiscard]] double sum(const std::string& name) const {
    const auto it = sums.find(name);
    return it == sums.end() ? 0.0 : it->second;
  }
};

std::string executable_dir() {
  char path[4096];
  const ssize_t len = ::readlink("/proc/self/exe", path, sizeof(path) - 1);
  if (len <= 0) {
    return ".";
  }
  path[len] = '\0';
  std::string dir(path);
  return dir.substr(0, dir.rfind('/'));
}

void parse_line(const std::string& line, std::uint64_t spawn_ns, ChildRun& run) {
  std::istringstream in(line);
  std::string kind;
  in >> kind;
  if (kind == "ready") {
    unsigned long long ready_ns = 0;
    in >> ready_ns >> run.vanilla_hwm_mb >> run.checked_hwm_mb;
    run.ready = true;
    run.setup_s = static_cast<double>(ready_ns - spawn_ns) / 1e9;
  } else if (kind == "unit") {
    double checked_ns = 0;
    double vanilla_ns = 0;
    int ok = 0;
    in >> checked_ns >> vanilla_ns >> ok;
    run.checked_s.push_back(checked_ns / 1e9);
    run.vanilla_s.push_back(vanilla_ns / 1e9);
    ++run.attempted;
    run.failed += ok == 1 ? 0 : 1;
  } else if (kind == "fail") {
    ++run.attempted;
    ++run.failed;
  } else if (kind == "stat") {
    std::string name;
    double value = 0;
    in >> name >> value;
    run.sums[name] += value;
  } else if (kind == "sample") {
    std::string name;
    double value = 0;
    in >> name >> value;
    run.samples[name].push_back(value);
  } else if (kind == "done") {
    run.completed = true;
  } else if (kind == "error") {
    run.error = line;
  }
}

/// Run `exe --child ...`, collect its report lines from fd 3 and its peak
/// RSS from wait4. The child's stdout goes to our stderr.
ChildRun spawn_child(const std::string& exe, const std::vector<std::string>& args,
                     double deadline_s) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(exe.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  std::vector<char*> envp;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string_view var(*env);
    if (!var.starts_with("CUSAN_") && !var.starts_with("MALLOC_MMAP_THRESHOLD_=")) {
      envp.push_back(*env);
    }
  }
  envp.push_back(const_cast<char*>(kMallocPin));
  envp.push_back(nullptr);

  ChildRun run;
  const auto spawn_failed = [&](const char* what) {
    run.error = std::string(what) + ": " + std::strerror(errno);
    run.attempted = 1;
    run.failed = 1;
    std::fprintf(stderr, "bench_e2e: %s\n", run.error.c_str());
    return run;
  };
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    return spawn_failed("pipe");
  }
  const std::uint64_t spawn_ns = common::now_ns();
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (fds[1] == 3) {
      (void)::fcntl(3, F_SETFD, 0);
    } else {
      (void)::dup2(fds[1], 3);
    }
    (void)::dup2(2, 1);
    ::execve(exe.c_str(), argv.data(), envp.data());
    ::_exit(127);
  }
  if (pid < 0) {
    const ChildRun failed = spawn_failed("fork");
    ::close(fds[0]);
    ::close(fds[1]);
    return failed;
  }
  ::close(fds[1]);
  const std::uint64_t deadline_ns = spawn_ns + static_cast<std::uint64_t>(deadline_s * 1e9);
  std::string buffer;
  char chunk[65536];
  for (;;) {
    const std::uint64_t now = common::now_ns();
    if (now >= deadline_ns) {
      (void)::kill(pid, SIGKILL);
      run.error = "killed after " + std::to_string(deadline_s) + " s";
      break;
    }
    pollfd pfd{fds[0], POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>((deadline_ns - now) / 1000000 + 1));
    if (ready < 0 && errno == EINTR) {
      continue;
    }
    if (ready <= 0) {
      continue;  // the deadline check above ends the wait
    }
    const ssize_t got = ::read(fds[0], chunk, sizeof(chunk));
    if (got < 0 && errno == EINTR) {
      continue;
    }
    if (got <= 0) {
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(got));
    std::size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      parse_line(buffer.substr(0, newline), spawn_ns, run);
      buffer.erase(0, newline + 1);
    }
  }
  ::close(fds[0]);
  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  run.maxrss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  run.completed = run.completed && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!run.completed) {
    ++run.attempted;
    ++run.failed;
    std::fprintf(stderr, "bench_e2e: %s child did not complete (status %d) %s\n", args[1].c_str(),
                 status, run.error.c_str());
  }
  return run;
}

/// A traced run's children run checked units only, at least kTracedUnits.
std::vector<std::string> child_args(const std::string& workload, std::uint64_t seed,
                                    double seconds, double scale, bool traced_run,
                                    const std::string& trace_out) {
  std::vector<std::string> args = {"--child", workload, "--seed", std::to_string(seed),
                                   "--seconds", std::to_string(seconds), "--scale",
                                   std::to_string(scale)};
  if (traced_run) {
    args.insert(args.end(), {"--min-units", std::to_string(kTracedUnits), "--checked-only"});
  }
  if (!trace_out.empty()) {
    args.insert(args.end(), {"--trace-out", trace_out});
  }
  return args;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

void tally(const ChildRun& run, RunRecord& record) {
  record.attempted += run.attempted;
  record.failed += run.failed;
}

/// The gated metrics of an untraced run over its children's units.
void end_to_end_metrics(const std::vector<ChildRun>& children, RunRecord& record) {
  std::vector<double> checked;
  std::vector<double> vanilla;
  std::vector<double> setup;
  std::vector<double> rss;
  std::vector<double> vanilla_hwm;
  std::vector<double> checked_hwm;
  double work_units = 0.0;
  double work_ns = 0.0;
  double tracked_bytes = 0.0;
  for (const ChildRun& run : children) {
    tally(run, record);
    checked.insert(checked.end(), run.checked_s.begin(), run.checked_s.end());
    vanilla.insert(vanilla.end(), run.vanilla_s.begin(), run.vanilla_s.end());
    if (run.ready) {
      setup.push_back(run.setup_s);
      vanilla_hwm.push_back(run.vanilla_hwm_mb);
      checked_hwm.push_back(run.checked_hwm_mb);
    }
    if (run.completed) {
      rss.push_back(run.maxrss_mb);
    }
    work_units += run.sum("work.units");
    work_ns += run.sum("work.ns");
    tracked_bytes += run.sum("obs/rsan.read_range_bytes") + run.sum("obs/rsan.write_range_bytes");
  }
  // The two sides of a pair run back to back, so their ratio cancels the
  // host's speed at that time. Checked wall times and checker_added_s do not,
  // and are reported, not gated: on a shared host ten runs of the same code
  // spread by up to 39% of their median, while the ratio held (README.md).
  std::vector<double> added;
  std::vector<double> overhead;
  for (std::size_t i = 0; i < checked.size(); ++i) {
    added.push_back(checked[i] - vanilla[i]);
    overhead.push_back(ratio(checked[i], vanilla[i]));
  }
  const double added_s = median(added);
  record.metrics = {
      {"setup_s", median(setup), "s"},
      {"overhead_x", median(overhead), "x"},
      {"peak_rss_mb", median(rss), "MB"},
  };
  const std::vector<double> q = quantiles(checked, 4);
  const double tracked_gib = ratio(tracked_bytes, work_units) / kGiB;
  record.extras = {
      {"run_p50_s", median(checked), "s"},
      {"units_per_s", ratio(work_units, work_ns / 1e9), "1/s"},
      {"run_n", static_cast<double>(checked.size()), "count"},
      {"run_q1_s", q.empty() ? 0.0 : q[0], "s"},
      {"run_q3_s", q.empty() ? 0.0 : q[2], "s"},
      {"vanilla_p50_s", median(vanilla), "s"},
      {"checker_added_s", added_s, "s"},
      {"failed_frac", ratio(static_cast<double>(record.failed),
                            static_cast<double>(record.attempted)), "frac"},
      {"tracked_gib_per_unit", tracked_gib, "GiB"},
      {"paper.rss_overhead_x", ratio(median(checked_hwm), median(vanilla_hwm)), "x"},
      {"paper.added_s_per_gib", ratio(added_s, tracked_gib), "s/GiB"},
  };
  // The highest percentile with at least ten samples beyond it.
  if (checked.size() >= 100) {
    record.extras.push_back({"run_p90_s", quantiles(checked, 10)[8], "s"});
  }
}

/// The per-layer metrics of a traced run: per checked unit, summed over
/// rank threads, from the traced child; tracing overhead against the
/// untraced child.
void per_layer_metrics(const ChildRun& plain, const ChildRun& traced, RunRecord& record) {
  tally(plain, record);
  tally(traced, record);
  const double units = static_cast<double>(traced.checked_s.size());
  const auto per_unit = [&](const std::string& name) { return ratio(traced.sum(name), units); };
  const auto span_calls = [&](const char* layer) {
    return per_unit(std::string("span/") + layer + "/calls");
  };
  const auto span_self = [&](const char* layer) {
    return per_unit(std::string("span/") + layer + "/self_ns");
  };
  const auto sample_quantile = [&](const char* name, int parts, int cut) {
    const auto it = traced.samples.find(name);
    if (it == traced.samples.end() || it->second.size() < 2) {
      return 0.0;
    }
    return quantiles(it->second, parts)[static_cast<std::size_t>(cut)];
  };
  const double range_bytes =
      traced.sum("obs/rsan.read_range_bytes") + traced.sum("obs/rsan.write_range_bytes");
  const double block_hits = traced.sum("obs/rsan.fastpath_block_hits");
  std::vector<Metric>& m = record.metrics;
  m = {
      {"rank.thread_ns", per_unit("rank.thread_ns"), "ns"},
      {"session.setup_ns", per_unit("session.setup_ns"), "ns"},
      {"kir.analysis_ns", traced.sum("kir.analysis_ns"), "ns"},
  };
  for (const char* layer : {"capi.cuda", "capi.mpi", "cusim", "mpisim", "cusan", "must",
                            "typeart", "rsan.range", "rsan.proven", "rsan.sync", "rsan.fiber"}) {
    m.push_back({std::string(layer) + ".calls", span_calls(layer), "count"});
    m.push_back({std::string(layer) + ".self_ns", span_self(layer), "ns"});
  }
  m.insert(m.end(), {
      {"rsan.range.rank_share",
       ratio(traced.sum("span/rsan.range/self_ns"), traced.sum("rank.thread_ns")), "frac"},
      {"rsan.range_gib_per_s",
       ratio(range_bytes / kGiB, traced.sum("span/rsan.range/self_ns") / 1e9), "GiB/s"},
      {"rsan.fastpath_hit_frac",
       ratio(block_hits, block_hits + traced.sum("obs/rsan.fastpath_block_misses")), "frac"},
      {"rsan.slot_evictions", per_unit("obs/rsan.slot_evictions"), "count"},
      {"rsan.shadow_mb", per_unit("obs/rsan.shadow_bytes") / kMiB, "MB"},
      {"cusan.proof_elided_bytes", per_unit("obs/cusan.proof_elided_bytes"), "bytes"},
      {"must.request_fibers_created", per_unit("obs/must.request_fibers_created"), "count"},
      {"mpisim.mailbox_locks", per_unit("obs/mpisim.mailbox_locks"), "count"},
      {"mpisim.wakeups_delivered", per_unit("obs/mpisim.wakeups_delivered"), "count"},
      {"schedsim.explore_self_ns", per_unit("schedsim.explore_self_ns"), "ns"},
      {"schedsim.executions_per_scenario", per_unit("schedsim.executions"), "count"},
      {"schedsim.drained_frac", per_unit("schedsim.drained"), "frac"},
      {"schedsim.hb_prunes", per_unit("obs/sched.dpor_hb_prunes"), "count"},
      {"schedsim.redundant_frac",
       ratio(traced.sum("obs/sched.dpor_redundant"), traced.sum("obs/sched.dpor_executions")),
       "frac"},
      {"svc.queue_wait_ns_p50", sample_quantile("svc.queue_wait_ns", 4, 1), "ns"},
      {"svc.queue_wait_ns_p90", sample_quantile("svc.queue_wait_ns", 10, 8), "ns"},
      {"svc.body_ns_p50", sample_quantile("svc.body_ns", 4, 1), "ns"},
      {"svc.steals", per_unit("svc.steals"), "count"},
      {"svc.parked", per_unit("svc.parked"), "count"},
      {"trace_overhead_frac", ratio(median(traced.checked_s), median(plain.checked_s)) - 1.0,
       "frac"},
  });
  record.extras = {
      {"traced_units", units, "count"},
      {"untraced_run_p50_s", median(plain.checked_s), "s"},
      {"traced_run_p50_s", median(traced.checked_s), "s"},
  };
}

RunRecord measure(const Options& options, const std::string& workload, std::uint64_t seed) {
  RunRecord record;
  record.workload = workload;
  record.seed = seed;
  record.seconds = options.seconds;
  record.trace = options.trace;
  const std::string dir = executable_dir();
  if (!options.trace) {
    const double share = options.seconds / kChildren;
    std::vector<ChildRun> children;
    for (int k = 0; k < kChildren; ++k) {
      children.push_back(spawn_child(
          dir + "/bench_e2e",
          child_args(workload, seed * kChildren + static_cast<std::uint64_t>(k), share,
                     options.scale, false, ""),
          share + kChildGraceS));
    }
    end_to_end_metrics(children, record);
    return record;
  }
  const double share = options.seconds / 2;
  const ChildRun plain =
      spawn_child(dir + "/bench_e2e",
                  child_args(workload, seed, share, options.scale, true, ""),
                  share + kChildGraceS);
  const ChildRun traced = spawn_child(
      dir + "/bench_e2e_traced",
      child_args(workload, seed, share, options.scale, true,
                 "BENCH_e2e." + workload + ".trace.json"),
      share + kChildGraceS);
  per_layer_metrics(plain, traced, record);
  return record;
}

bool parse_number(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out);
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n"
               "                 [--runs N] [--scale F] [--json PATH]\n"
               "       bench_e2e --compare BEFORE.json AFTER.json [--bounds BENCHMARK.json]\n");
  return 2;
}

int child_command(int argc, char** argv) {
  ChildOptions options;
  options.workload = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--checked-only") {
      options.checked_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      return usage();
    }
    const char* value = argv[++i];
    double number = 0.0;
    if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (!parse_number(value, &number) || number < 0) {
      return usage();
    } else if (flag == "--seed") {
      options.seed = static_cast<std::uint64_t>(number);
    } else if (flag == "--seconds") {
      options.seconds = number;
    } else if (flag == "--scale") {
      options.scale = number;
    } else if (flag == "--min-units") {
      options.min_units = static_cast<std::size_t>(number);
    } else {
      return usage();
    }
  }
  if (!is_workload(options.workload)) {
    return usage();
  }
#ifdef BENCH_E2E_TRACED
  verify_wrap_table();
  enable_spans();
#endif
  return run_child(options, 3);
}

int main_impl(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "--child") == 0) {
    return child_command(argc, argv);
  }
  if (argc >= 4 && std::strcmp(argv[1], "--compare") == 0) {
    std::string bounds = "BENCHMARK.json";
    if (argc == 6 && std::strcmp(argv[4], "--bounds") == 0) {
      bounds = argv[5];
    } else if (argc != 4) {
      return usage();
    }
    return compare_reports(argv[2], argv[3], bounds);
  }
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return usage();
    }
    const char* value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      options.workload = value;
      if (!is_workload(options.workload)) {
        std::fprintf(stderr, "unknown workload: %s\n", value);
        return 2;
      }
    } else if (flag == "--json") {
      options.json_path = value;
    } else if (!parse_number(value, &number) || number < 0) {
      return usage();
    } else if (flag == "--seed") {
      options.seed = static_cast<std::uint64_t>(number);
    } else if (flag == "--seconds") {
      options.seconds = number;
    } else if (flag == "--trace") {
      options.trace = number != 0.0;
    } else if (flag == "--runs" && number >= 1) {
      options.runs = static_cast<int>(number);
    } else if (flag == "--scale" && number > 0) {
      options.scale = number;
    } else {
      return usage();
    }
  }
  std::vector<std::string> workloads;
  if (options.workload.empty()) {
    workloads.assign(std::begin(kWorkloads), std::end(kWorkloads));
    if (options.json_path.empty()) {
      options.json_path = "BENCH_e2e.json";
    }
  } else {
    workloads.push_back(options.workload);
  }
  std::vector<RunRecord> records;
  bool correct = true;
  for (int run = 0; run < options.runs; ++run) {
    for (const std::string& workload : workloads) {
      records.push_back(measure(options, workload, options.seed + static_cast<std::uint64_t>(run)));
      std::printf("%s", summary(records.back()).c_str());
      std::fflush(stdout);
      correct = correct && records.back().correct();
    }
  }
  if (!options.json_path.empty()) {
    std::string error;
    if (!write_report(options.json_path, records, &error)) {
      std::fprintf(stderr, "bench_e2e: %s\n", error.c_str());
      return 2;
    }
  }
  std::printf("%s\n", result_line(records.back()).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace bench_e2e

int main(int argc, char** argv) { return bench_e2e::main_impl(argc, argv); }
