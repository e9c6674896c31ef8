#include "faultsim/plan.hpp"

#include <cctype>
#include <cstdlib>
#include <limits>

#include "common/parse.hpp"

namespace faultsim {
namespace {

struct SiteName {
  std::string_view name;
  Site site;
};

constexpr SiteName kSites[] = {
    {"malloc", Site::kMalloc},   {"memcpy", Site::kMemcpy},
    {"memset", Site::kMemset},   {"kernel", Site::kKernel},
    {"send", Site::kSend},       {"recv", Site::kRecv},
    {"wait", Site::kWait},       {"barrier", Site::kBarrier},
    {"collective", Site::kCollective}, {"rank_kill", Site::kRankKill},
};

[[nodiscard]] bool is_mpi_site(Site site) {
  switch (site) {
    case Site::kSend:
    case Site::kRecv:
    case Site::kWait:
    case Site::kBarrier:
    case Site::kCollective:
    case Site::kRankKill:
      return true;
    default:
      return false;
  }
}

[[nodiscard]] bool is_kill_action(Action action) {
  return action == Action::kSigkill || action == Action::kSigabrt || action == Action::kHang;
}

[[nodiscard]] bool is_async_capable_site(Site site) {
  return site == Site::kMemcpy || site == Site::kMemset || site == Site::kKernel;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())) != 0) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())) != 0) {
    s.remove_suffix(1);
  }
  return s;
}

FaultPlan::ParseResult fail(std::string_view spec, const std::string& why) {
  FaultPlan::ParseResult result;
  result.ok = false;
  result.error = "bad fault spec '" + std::string(spec) + "': " + why;
  return result;
}

}  // namespace

const char* to_string(Site site) {
  for (const SiteName& entry : kSites) {
    if (entry.site == site) {
      return entry.name.data();
    }
  }
  return "?";
}

const char* to_string(Action action) {
  switch (action) {
    case Action::kOom:
      return "oom";
    case Action::kFail:
      return "fail";
    case Action::kAbort:
      return "abort";
    case Action::kDelay:
      return "delay";
    case Action::kStall:
      return "stall";
    case Action::kSigkill:
      return "sigkill";
    case Action::kSigabrt:
      return "sigabrt";
    case Action::kHang:
      return "hang";
  }
  return "?";
}

std::string FaultSpec::to_string() const {
  std::string out = faultsim::to_string(site);
  switch (scope_kind) {
    case ScopeKind::kAny:
      break;
    case ScopeKind::kDevice:
      out += "@dev" + std::to_string(scope_id);
      break;
    case ScopeKind::kRank:
      out += "@rank" + std::to_string(scope_id);
      break;
    case ScopeKind::kStream:
      out += "@stream" + std::to_string(scope_id);
      break;
  }
  out += "#" + std::to_string(nth);
  if (period != 0) {
    out += "%" + std::to_string(period);
  }
  out += "=";
  out += faultsim::to_string(action);
  if (action == Action::kDelay) {
    out += ":" + std::to_string(delay.count()) + "us";
  }
  return out;
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const FaultSpec& spec : specs_) {
    if (!out.empty()) {
      out += ";";
    }
    out += spec.to_string();
  }
  return out;
}

FaultPlan::ParseResult FaultPlan::parse(std::string_view text, FaultPlan& out) {
  out = FaultPlan{};
  FaultPlan plan;
  std::string_view rest = text;
  while (!rest.empty()) {
    const std::size_t semi = rest.find(';');
    std::string_view raw =
        semi == std::string_view::npos ? rest : rest.substr(0, semi);
    rest = semi == std::string_view::npos ? std::string_view{} : rest.substr(semi + 1);
    const std::string_view spec_text = trim(raw);
    if (spec_text.empty()) {
      continue;
    }

    FaultSpec spec;
    const std::size_t eq = spec_text.find('=');
    if (eq == std::string_view::npos) {
      return fail(spec_text, "missing '=action'");
    }
    std::string_view lhs = spec_text.substr(0, eq);
    const std::string_view rhs = spec_text.substr(eq + 1);

    // lhs: site [@scope] [#n[%k]]
    std::string_view count_part;
    if (const std::size_t hash = lhs.find('#'); hash != std::string_view::npos) {
      count_part = lhs.substr(hash + 1);
      lhs = lhs.substr(0, hash);
    }
    std::string_view scope_part;
    if (const std::size_t at = lhs.find('@'); at != std::string_view::npos) {
      scope_part = lhs.substr(at + 1);
      lhs = lhs.substr(0, at);
    }

    bool site_found = false;
    for (const SiteName& entry : kSites) {
      if (entry.name == lhs) {
        spec.site = entry.site;
        site_found = true;
        break;
      }
    }
    if (!site_found) {
      return fail(spec_text, "unknown site '" + std::string(lhs) + "'");
    }

    if (!scope_part.empty() && scope_part != "*") {
      std::string_view id_part;
      if (scope_part.substr(0, 3) == "dev") {
        spec.scope_kind = ScopeKind::kDevice;
        id_part = scope_part.substr(3);
      } else if (scope_part.substr(0, 4) == "rank") {
        spec.scope_kind = ScopeKind::kRank;
        id_part = scope_part.substr(4);
      } else if (scope_part.substr(0, 6) == "stream") {
        spec.scope_kind = ScopeKind::kStream;
        id_part = scope_part.substr(6);
      } else {
        return fail(spec_text, "unknown scope '" + std::string(scope_part) + "'");
      }
      std::uint64_t id = 0;
      if (!common::parse_uint(id_part, id, std::numeric_limits<int>::max())) {
        return fail(spec_text, "bad scope id '" + std::string(id_part) + "'");
      }
      spec.scope_id = static_cast<int>(id);
    }

    if (!count_part.empty()) {
      std::string_view nth_part = count_part;
      if (const std::size_t pct = count_part.find('%'); pct != std::string_view::npos) {
        nth_part = count_part.substr(0, pct);
        const std::string_view period_part = count_part.substr(pct + 1);
        if (!common::parse_uint(period_part, spec.period) || spec.period == 0) {
          return fail(spec_text, "bad period '" + std::string(period_part) + "'");
        }
      }
      if (!common::parse_uint(nth_part, spec.nth) || spec.nth == 0) {
        return fail(spec_text, "bad occurrence count '" + std::string(nth_part) + "'");
      }
    }

    // rhs: action[:delay]
    if (rhs == "oom") {
      spec.action = Action::kOom;
    } else if (rhs == "fail") {
      spec.action = Action::kFail;
    } else if (rhs == "abort") {
      spec.action = Action::kAbort;
    } else if (rhs == "stall") {
      spec.action = Action::kStall;
    } else if (rhs == "sigkill") {
      spec.action = Action::kSigkill;
    } else if (rhs == "sigabrt") {
      spec.action = Action::kSigabrt;
    } else if (rhs == "hang") {
      spec.action = Action::kHang;
    } else if (rhs.substr(0, 6) == "delay:") {
      spec.action = Action::kDelay;
      std::string_view dur = rhs.substr(6);
      std::uint64_t scale_to_us = 1000;  // default unit: ms
      if (dur.size() >= 2 && dur.substr(dur.size() - 2) == "us") {
        scale_to_us = 1;
        dur = dur.substr(0, dur.size() - 2);
      } else if (dur.size() >= 2 && dur.substr(dur.size() - 2) == "ms") {
        dur = dur.substr(0, dur.size() - 2);
      } else if (dur.size() >= 1 && dur.substr(dur.size() - 1) == "s") {
        scale_to_us = 1000 * 1000;
        dur = dur.substr(0, dur.size() - 1);
      }
      // The delay must fit microseconds' signed count after scaling.
      std::uint64_t amount = 0;
      if (!common::parse_uint(
              dur, amount,
              static_cast<std::uint64_t>(std::chrono::microseconds::max().count()) / scale_to_us)) {
        return fail(spec_text, "bad delay duration '" + std::string(rhs.substr(6)) + "'");
      }
      spec.delay = std::chrono::microseconds(amount * scale_to_us);
    } else {
      return fail(spec_text, "unknown action '" + std::string(rhs) + "'");
    }

    // Action/site compatibility: a plan that cannot possibly fire the way it
    // reads is a configuration error, not a silent no-op.
    if (spec.action == Action::kOom && spec.site != Site::kMalloc) {
      return fail(spec_text, "'oom' applies to malloc sites only");
    }
    if (spec.action == Action::kAbort && !is_async_capable_site(spec.site)) {
      return fail(spec_text, "'abort' applies to memcpy/memset/kernel sites only");
    }
    if (spec.action == Action::kStall && !is_mpi_site(spec.site)) {
      return fail(spec_text, "'stall' applies to MPI sites only");
    }
    if (is_kill_action(spec.action) != (spec.site == Site::kRankKill)) {
      return fail(spec_text, spec.site == Site::kRankKill
                                 ? "rank_kill takes sigkill, sigabrt or hang"
                                 : "sigkill/sigabrt/hang apply to rank_kill sites only");
    }
    if (spec.scope_kind == ScopeKind::kRank && !is_mpi_site(spec.site)) {
      return fail(spec_text, "rank scopes apply to MPI sites only");
    }
    if ((spec.scope_kind == ScopeKind::kDevice || spec.scope_kind == ScopeKind::kStream) &&
        is_mpi_site(spec.site)) {
      return fail(spec_text, "device/stream scopes apply to CUDA sites only");
    }

    plan.add(spec);
  }
  out = std::move(plan);
  return ParseResult{};
}

}  // namespace faultsim
