// Per-rank tool context: owns the rank's simulated device and the enabled
// tool runtimes (rsan/typeart/cusan/must), bound to the rank's thread via a
// thread-local pointer — one tool stack per MPI process, exactly as the
// paper deploys one TSan/MUST/CuSan instance per rank.
#pragma once

#include <memory>
#include <vector>

#include "capi/tool_config.hpp"
#include "cusim/device.hpp"
#include "obs/metrics.hpp"
#include "typeart/runtime.hpp"

namespace capi {

/// Everything a rank's tool stack produced, collected at finalize time — the
/// analog of the tool output + statistics the paper gathers per MPI process.
struct RankResult {
  int rank{-1};
  std::vector<rsan::RaceReport> races;
  std::vector<must::MustReport> must_reports;
  /// The rank's rsan.*, cusan.* and must.* counts (the paper's per-process
  /// Table I statistics), slot by slot; read with `metrics["rsan.plain_reads"]`
  /// or obs::value_of.
  obs::MetricCounts metrics;
  std::size_t shadow_bytes{};        ///< rsan shadow memory resident at finalize
  std::size_t device_live_bytes{};   ///< simulated device memory still allocated
  /// Devices whose sticky CUDA error was still latched at finalize (the app
  /// never observed it via cudaGetLastError); drained here so faults stay
  /// accounted even when the app ignores them.
  std::size_t sticky_errors{};
};

class ToolContext {
 public:
  /// `typedb` must outlive the context; pass nullptr to use the process's
  /// builtin-only DB.
  /// `device_count` simulated GPUs are created per rank (multi-GPU nodes);
  /// device 0 is current initially (cudaSetDevice analog: set_device).
  ToolContext(int rank, const ToolConfig& config, const cusim::DeviceProfile& profile,
              const typeart::TypeDB* typedb, int device_count = 1);
  ~ToolContext();

  ToolContext(const ToolContext&) = delete;
  ToolContext& operator=(const ToolContext&) = delete;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] const ToolConfig& config() const { return config_; }
  /// The current device (cudaGetDevice analog).
  [[nodiscard]] cusim::Device& device() { return *devices_[static_cast<std::size_t>(current_device_)]; }
  [[nodiscard]] cusim::Device& device(int ordinal) { return *devices_[static_cast<std::size_t>(ordinal)]; }
  [[nodiscard]] int device_count() const { return static_cast<int>(devices_.size()); }
  [[nodiscard]] int current_device() const { return current_device_; }
  /// cudaSetDevice analog; returns false for an invalid ordinal.
  bool set_device(int ordinal);

  /// The registry this rank's tool runtimes count into.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }

  /// Enabled tool runtimes; nullptr when the flavor disables them.
  [[nodiscard]] rsan::Runtime* tsan() { return tsan_.get(); }
  [[nodiscard]] typeart::Runtime* types() { return types_.get(); }
  [[nodiscard]] cusan::Runtime* cusan_rt() { return cusan_.get(); }
  [[nodiscard]] must::Runtime* must_rt() { return must_.get(); }

  /// Run finalize-time checks (MUST request-leak detection) and collect all
  /// tool state into a RankResult — the MPI_Finalize hook of the tool stack.
  /// The rank's counts are added once, slot by slot, into the calling
  /// thread's registry (the session's, or the global one).
  [[nodiscard]] RankResult finalize();

  /// The context bound to the calling thread (nullptr outside a rank).
  [[nodiscard]] static ToolContext* current();

  /// RAII binder installing `ctx` as the calling thread's current context.
  class Binder {
   public:
    explicit Binder(ToolContext& ctx);
    ~Binder();
    Binder(const Binder&) = delete;
    Binder& operator=(const Binder&) = delete;

   private:
    ToolContext* previous_;
  };

 private:
  int rank_;
  ToolConfig config_;
  std::vector<std::unique_ptr<cusim::Device>> devices_;
  int current_device_{0};
  obs::MetricsRegistry metrics_;  ///< declared before the runtimes holding handles on it
  std::unique_ptr<rsan::Runtime> tsan_;
  std::unique_ptr<typeart::Runtime> types_;
  std::unique_ptr<cusan::Runtime> cusan_;
  std::unique_ptr<must::Runtime> must_;
};

}  // namespace capi
