// Results of bench_e2e runs: statistics, the BENCH_e2e.json report with its
// host block, the one-line result the benchmark prints last, and the
// comparison of two reports (--compare).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace bench_e2e {

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

/// One workload measured once.
struct RunRecord {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{0.0};
  bool trace{false};
  std::size_t attempted{0};
  std::size_t failed{0};
  /// The gated end-to-end metrics, or the per-layer metrics of a traced run.
  std::vector<Metric> metrics;
  /// Printed and kept in the report, never gated.
  std::vector<Metric> extras;

  [[nodiscard]] bool correct() const { return attempted > 0 && failed == 0; }
};

[[nodiscard]] double median(std::vector<double> values);

/// Cut points of `parts` equal-probability intervals, computed like Python's
/// statistics.quantiles(values, n=parts) (the "exclusive" method).
[[nodiscard]] std::vector<double> quantiles(std::vector<double> values, int parts);

/// Human-readable summary of one record.
[[nodiscard]] std::string summary(const RunRecord& record);

/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
[[nodiscard]] std::string result_line(const RunRecord& record);

/// Write BENCH_e2e.json: the host block and every record.
[[nodiscard]] bool write_report(const std::string& path, const std::vector<RunRecord>& records,
                                std::string* error);

/// Compare the end-to-end metrics of two reports of at least five runs per
/// workload, judged by the bounds in `benchmark_json`. Prints one line per
/// workload and metric; returns 1 when any is worse, 2 on bad input.
[[nodiscard]] int compare_reports(const std::string& before_path, const std::string& after_path,
                                  const std::string& benchmark_json);

}  // namespace bench_e2e
