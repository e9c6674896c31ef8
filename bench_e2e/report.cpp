#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

#include "bench_json.hpp"
#include "obs/jsonlint.hpp"
#include "obs/perfetto.hpp"
#include "workloads.hpp"

namespace bench_e2e {
namespace {

// setup_s changes below this are noise at any bound (process start jitter).
constexpr double kSetupFloorS = 0.010;

std::string number(double value) {
  if (!std::isfinite(value)) {
    value = 0.0;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string quoted(const std::string& text) {
  std::string out;
  bench::append_json_string(out, text);
  return out;
}

std::string metrics_object(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + quoted(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " + quoted(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string host_block() {
  return "{\"cpu_count\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": " + quoted(cpu_model()) + ", \"compiler\": " +
         quoted(std::string("GCC ") + __VERSION__) +
         ", \"build_type\": " + quoted(BENCH_E2E_BUILD_TYPE) +
         ", \"git_sha\": " + quoted(BENCH_E2E_GIT_SHA) + "}";
}

bool read_json(const std::string& path, obs::jsonlint::Value* out) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "--compare: cannot read %s\n", path.c_str());
    return false;
  }
  std::stringstream text;
  text << file.rdbuf();
  std::string error;
  if (!obs::jsonlint::parse(text.str(), out, &error)) {
    std::fprintf(stderr, "--compare: %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

using Series = std::map<std::pair<std::string, std::string>, std::vector<double>>;

/// (workload, metric) -> values over the untraced runs of a report.
bool load_series(const std::string& path, Series* out) {
  obs::jsonlint::Value root;
  if (!read_json(path, &root)) {
    return false;
  }
  const obs::jsonlint::Value* runs = root.get("runs");
  if (runs == nullptr || !runs->is(obs::jsonlint::Value::Kind::kArray)) {
    std::fprintf(stderr, "--compare: %s has no \"runs\" array\n", path.c_str());
    return false;
  }
  for (const auto& run : runs->array) {
    const obs::jsonlint::Value* workload = run->get("workload");
    const obs::jsonlint::Value* trace = run->get("trace");
    const obs::jsonlint::Value* metrics = run->get("metrics");
    if (workload == nullptr || metrics == nullptr || (trace != nullptr && trace->boolean)) {
      continue;
    }
    for (const auto& [name, metric] : metrics->object) {
      if (const obs::jsonlint::Value* value = metric->get("value"); value != nullptr) {
        (*out)[{workload->string, name}].push_back(value->number);
      }
    }
  }
  return true;
}

struct Bound {
  std::string name;
  double bound{0.0};
  bool lower_is_better{true};
};

bool load_bounds(const std::string& path, std::vector<Bound>* out) {
  obs::jsonlint::Value root;
  if (!read_json(path, &root)) {
    return false;
  }
  const obs::jsonlint::Value* metrics = root.get("end_to_end");
  if (metrics == nullptr || !metrics->is(obs::jsonlint::Value::Kind::kArray)) {
    std::fprintf(stderr, "--compare: %s has no \"end_to_end\" array\n", path.c_str());
    return false;
  }
  for (const auto& metric : metrics->array) {
    const obs::jsonlint::Value* name = metric->get("name");
    const obs::jsonlint::Value* bound = metric->get("bound");
    const obs::jsonlint::Value* better = metric->get("better");
    if (name == nullptr || bound == nullptr || better == nullptr) {
      std::fprintf(stderr, "--compare: malformed end_to_end entry in %s\n", path.c_str());
      return false;
    }
    out->push_back({name->string, bound->number, better->string == "lower"});
  }
  return true;
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

std::vector<double> quantiles(std::vector<double> values, int parts) {
  std::vector<double> cuts;
  const auto n = static_cast<long>(values.size());
  if (n == 0) {
    return cuts;
  }
  std::sort(values.begin(), values.end());
  if (n == 1) {
    return std::vector<double>(static_cast<std::size_t>(parts - 1), values[0]);
  }
  const long m = n + 1;
  for (long i = 1; i < parts; ++i) {
    const long j = std::clamp(i * m / parts, 1L, n - 1);
    const auto delta = static_cast<double>(i * m - j * parts);
    cuts.push_back((values[static_cast<std::size_t>(j - 1)] * (parts - delta) +
                    values[static_cast<std::size_t>(j)] * delta) /
                   parts);
  }
  return cuts;
}

namespace {

/// Interquartile range over the median (0 when undefined).
double relative_iqr(const std::vector<double>& values) {
  const std::vector<double> q = quantiles(values, 4);
  const double mid = median(values);
  return q.size() == 3 && mid != 0.0 ? (q[2] - q[0]) / std::fabs(mid) : 0.0;
}

}  // namespace

std::string summary(const RunRecord& record) {
  char line[160];
  std::snprintf(line, sizeof(line), "== %s  seed %llu  %s  (%zu attempted, %zu failed)\n",
                record.workload.c_str(), static_cast<unsigned long long>(record.seed),
                record.trace ? "traced" : "untraced", record.attempted, record.failed);
  std::string out = line;
  for (const auto* group : {&record.metrics, &record.extras}) {
    for (const Metric& metric : *group) {
      std::snprintf(line, sizeof(line), "  %-34s %16.6f  %s\n", metric.name.c_str(), metric.value,
                    metric.unit.c_str());
      out += line;
    }
  }
  return out;
}

std::string result_line(const RunRecord& record) {
  return std::string("{\"correct\": ") + (record.correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(record.attempted) +
         ", \"failed\": " + std::to_string(record.failed) +
         ", \"metrics\": " + metrics_object(record.metrics) + "}";
}

bool write_report(const std::string& path, const std::vector<RunRecord>& records,
                  std::string* error) {
  std::string out = "{\n  \"bench\": \"e2e\",\n  \"host\": " + host_block() + ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const RunRecord& r = records[i];
    out += "    {\"workload\": " + quoted(r.workload) + ", \"seed\": " + std::to_string(r.seed) +
           ", \"seconds\": " + number(r.seconds) + ", \"trace\": " + (r.trace ? "true" : "false") +
           ", \"attempted\": " + std::to_string(r.attempted) +
           ", \"failed\": " + std::to_string(r.failed) + ",\n     \"metrics\": " +
           metrics_object(r.metrics) + ",\n     \"extras\": " + metrics_object(r.extras) + "}" +
           (i + 1 < records.size() ? ",\n" : "\n");
  }
  out += "  ]\n}\n";
  return obs::write_file(path, out, error);
}

int compare_reports(const std::string& before_path, const std::string& after_path,
                    const std::string& benchmark_json) {
  Series before;
  Series after;
  std::vector<Bound> bounds;
  if (!load_series(before_path, &before) || !load_series(after_path, &after) ||
      !load_bounds(benchmark_json, &bounds)) {
    return 2;
  }
  std::printf("%-14s %-16s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "before", "after",
              "change", "spread", "bound", "outcome");
  bool any_worse = false;
  bool compared = false;
  for (const char* workload : kWorkloads) {
    for (const Bound& bound : bounds) {
      const auto a = before.find({workload, bound.name});
      const auto b = after.find({workload, bound.name});
      if (a == before.end() && b == after.end()) {
        continue;
      }
      if (a == before.end() || b == after.end() || a->second.size() < 5 ||
          b->second.size() < 5) {
        std::fprintf(stderr, "--compare: %s %s needs at least 5 runs on each side\n", workload,
                     bound.name.c_str());
        return 2;
      }
      compared = true;
      const double median_a = median(a->second);
      const double median_b = median(b->second);
      const double spread = std::max(relative_iqr(a->second), relative_iqr(b->second));
      const double change = median_a != 0.0 ? (median_b - median_a) / std::fabs(median_a) : 0.0;
      const double worse_by = bound.lower_is_better ? change : -change;
      const auto better = [&](double x, double y) {
        return bound.lower_is_better ? x < y : x > y;
      };
      const bool all_better =
          better(*std::max_element(b->second.begin(), b->second.end(),
                                   [&](double x, double y) { return better(x, y); }),
                 *std::min_element(a->second.begin(), a->second.end(),
                                   [&](double x, double y) { return better(x, y); }));
      const char* outcome = "unchanged";
      if (bound.name == "setup_s" && std::fabs(median_b - median_a) < kSetupFloorS) {
        outcome = "unchanged";
      } else if (spread > bound.bound) {
        outcome = all_better ? "improved" : "unresolved";
      } else if (worse_by > bound.bound) {
        outcome = "worse";
        any_worse = true;
      } else if (worse_by < -bound.bound) {
        outcome = "improved";
      }
      std::printf("%-14s %-16s %14.6g %14.6g %+7.1f%% %7.1f%% %6.1f%%  %s\n", workload,
                  bound.name.c_str(), median_a, median_b, 100.0 * change, 100.0 * spread,
                  100.0 * bound.bound, outcome);
    }
  }
  if (!compared) {
    std::fprintf(stderr, "--compare: no workload appears in both reports\n");
    return 2;
  }
  return any_worse ? 1 : 0;
}

}  // namespace bench_e2e
