#include "capi/context.hpp"

#include "common/assert.hpp"
#include "obs/ring.hpp"

namespace capi {

namespace {
thread_local ToolContext* t_current = nullptr;
}  // namespace

ToolContext::ToolContext(int rank, const ToolConfig& config, const cusim::DeviceProfile& profile,
                         const typeart::TypeDB* typedb, int device_count)
    : rank_(rank), config_(config) {
  CUSAN_ASSERT_MSG(device_count >= 1, "at least one device per rank");
  CUSAN_ASSERT_MSG(!(config.must && !config.tsan), "MUST requires TSan");
  CUSAN_ASSERT_MSG(!(config.cusan && !config.tsan), "CuSan requires TSan");
  CUSAN_ASSERT_MSG(!(config.cusan && !config.typeart), "CuSan requires TypeART");

  if (typedb == nullptr) {
    // The typeart runtimes only read it, so one immutable builtin-only DB
    // serves every rank of every session.
    static const typeart::TypeDB builtin;
    typedb = &builtin;
  }
  for (int d = 0; d < device_count; ++d) {
    devices_.push_back(std::make_unique<cusim::Device>(profile, rank * device_count + d));
    devices_.back()->set_obs_rank(rank);
  }
  if (config.tsan) {
    tsan_ = std::make_unique<rsan::Runtime>(metrics_, config.rsan_config);
  }
  if (config.typeart) {
    types_ = std::make_unique<typeart::Runtime>(typedb);
  }
  if (config.cusan) {
    cusan_ = std::make_unique<cusan::Runtime>(tsan_.get(), types_.get(), metrics_,
                                              config.cusan_config);
    for (const auto& device : devices_) {
      cusan_->bind_device(device.get());
    }
  }
  if (config.must) {
    // MUST uses TypeART when datatype checks are requested; races alone only
    // need the race detector. A private typeart runtime keeps layering clean.
    if (types_ == nullptr) {
      types_ = std::make_unique<typeart::Runtime>(typedb);
    }
    must_ = std::make_unique<must::Runtime>(tsan_.get(), types_.get(), metrics_,
                                            config.must_config);
  }
}

ToolContext::~ToolContext() = default;

RankResult ToolContext::finalize() {
  if (must_) {
    must_->on_finalize();
  }
  RankResult result;
  result.rank = rank_;
  if (tsan_) {
    result.races = tsan_->reports();
    result.shadow_bytes = tsan_->shadow_resident_bytes();
    metrics_.slot("rsan.shadow_bytes").set(result.shadow_bytes);
  }
  if (must_) {
    result.must_reports = must_->reports();
  }
  for (const auto& device : devices_) {
    result.device_live_bytes += device->memory().live_bytes();
    if (device->get_last_error() != cusim::Error::kSuccess) {
      ++result.sticky_errors;
    }
  }
  result.metrics = metrics_.counts();
  // Ranks sum up in the calling thread's registry; bench and tools diff its
  // snapshots around a session.
  obs::MetricsRegistry::instance().add(result.metrics);
  return result;
}

bool ToolContext::set_device(int ordinal) {
  if (ordinal < 0 || ordinal >= device_count()) {
    return false;
  }
  current_device_ = ordinal;
  return true;
}

ToolContext* ToolContext::current() { return t_current; }

ToolContext::Binder::Binder(ToolContext& ctx) : previous_(t_current) {
  t_current = &ctx;
  obs::bind_rank(ctx.rank());
}

ToolContext::Binder::~Binder() {
  t_current = previous_;
  obs::bind_rank(previous_ != nullptr ? previous_->rank() : -1);
}

}  // namespace capi
