// Layer spans for the benchmark. Each span records one call into a layer on
// a thread-local stack, so a layer's self time is its span minus the spans of
// the layers it called. The benchmark opens spans itself around the calls it
// makes (session, rank body, exploration); the traced twin additionally
// routes each layer's cross-archive entry points through wrap.cpp. Spans are
// off unless enable_spans() ran, so the untraced binary pays one load per
// direct span and nothing per layer call.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace bench_e2e {

enum class Layer : std::uint8_t {
  kSession,     ///< capi::run_session, as called by the benchmark
  kRank,        ///< one rank's body inside a session
  kCapiCuda,    ///< capi::cuda::*
  kCapiMpi,     ///< capi::mpi::*
  kCusim,       ///< cusim::Device::*
  kMpisim,      ///< mpisim::Comm::*
  kCusan,       ///< cusan::Runtime::on_*
  kMust,        ///< must::Runtime::on_*
  kRsanRange,   ///< rsan read_range / write_range
  kRsanProven,  ///< rsan proven_range
  kRsanSync,    ///< rsan happens_before / happens_after / release_sync_object
  kRsanFiber,   ///< rsan create / switch / destroy fiber
  kTypeart,     ///< typeart::Runtime find / on_alloc / on_free
  kKir,         ///< kir analysis constructors
  kExplore,     ///< schedsim::Explorer::explore, as called by the benchmark
  kExploreRun,  ///< one explored execution (the explorer's run callback)
  kCount,
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

/// Metric-name prefix of a layer, e.g. "rsan.range".
[[nodiscard]] const char* layer_name(Layer layer);

struct LayerTotals {
  std::uint64_t calls{0};
  std::uint64_t self_ns{0};
};

using SpanTotals = std::array<LayerTotals, kLayerCount>;

/// Turn span recording on. Call before any thread that records spans starts.
void enable_spans();

class Span {
 public:
  explicit Span(Layer layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

/// Totals over every thread that recorded spans so far, live or exited.
[[nodiscard]] SpanTotals span_totals();

/// Record every span closed from now on (at most `max_events`) as a Chrome
/// trace event, until stop_capture() returns the trace_event JSON document.
void start_capture(std::size_t max_events);
[[nodiscard]] std::string stop_capture(const std::string& process_name);

}  // namespace bench_e2e
