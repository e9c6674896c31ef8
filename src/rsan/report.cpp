#include "rsan/report.hpp"

#include "common/format.hpp"

namespace rsan {
namespace {

std::string format_access(const char* role, const RaceAccess& access) {
  std::string out = common::format("  {} {} by {} '{}' (ctx {}, epoch {})", role,
                                   access.is_write ? "write" : "read", to_string(access.kind),
                                   access.ctx_name, access.ctx, access.clock);
  if (!access.label.empty()) {
    out += common::format("\n    operation: {}", access.label);
  }
  return out;
}

}  // namespace

std::string format_report(const RaceReport& report) {
  std::string out = common::format("WARNING: data race at address {} (access size {})\n",
                                   common::hex(report.addr), report.access_size);
  out += format_access("current ", report.current);
  out += '\n';
  out += format_access("previous", report.previous);
  return out;
}

}  // namespace rsan
