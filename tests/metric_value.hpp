// Test helper: read one value out of a metrics registry the way every
// consumer does, through a snapshot.
#pragma once

#include <cstdint>
#include <string_view>

#include "obs/metrics.hpp"

[[nodiscard]] inline std::uint64_t metric_value(const obs::MetricsRegistry& registry,
                                                std::string_view name) {
  return obs::value_of(registry.snapshot(), name);
}
