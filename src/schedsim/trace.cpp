#include "schedsim/trace.hpp"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

#include "common/format.hpp"

namespace schedsim {

namespace {
constexpr const char* kMagic = "# cusan-schedule-trace v1";
}  // namespace

const char* to_string(Site site) {
  switch (site) {
    case Site::kStreamOp:
      return "stream_op";
    case Site::kMatchRecv:
      return "match_recv";
    case Site::kWakeOrder:
      return "wake_order";
    case Site::kWaitany:
      return "waitany";
    case Site::kWaitallOrder:
      return "waitall_order";
  }
  return "unknown";
}

bool site_from_string(const std::string& name, Site* out) {
  static constexpr Site kAll[] = {Site::kStreamOp, Site::kMatchRecv, Site::kWakeOrder,
                                  Site::kWaitany,  Site::kWaitallOrder};
  for (const Site site : kAll) {
    if (name == to_string(site)) {
      *out = site;
      return true;
    }
  }
  return false;
}

std::string ActorId::to_string() const {
  char buf[48];
  if (local == 0) {
    std::snprintf(buf, sizeof(buf), "%d:%c", rank, kind);
  } else {
    std::snprintf(buf, sizeof(buf), "%d:%c%u", rank, kind, local);
  }
  return buf;
}

std::string serialize_trace(const ScheduleTrace& trace) {
  std::string out = kMagic;
  out += '\n';
  if (!trace.strategy.empty()) {
    out += "# strategy ";
    out += trace.strategy;
    out += '\n';
  }
  for (const TraceEntry& e : trace.entries) {
    out += common::format("d {} {} {} {} {}\n", e.actor.to_string(), e.seq, to_string(e.site),
                          e.candidates, e.chosen);
  }
  return out;
}

namespace {

[[nodiscard]] bool fail(std::string* error, std::size_t line_no, const std::string& message) {
  if (error != nullptr) {
    *error = common::format("line {}: {}", line_no, message);
  }
  return false;
}

/// Parse `<rank>:<kind>[<local>]` (e.g. `0:h`, `1:s4097`, `-1:h`).
[[nodiscard]] bool parse_actor(const std::string& token, ActorId* out) {
  const std::size_t colon = token.find(':');
  if (colon == std::string::npos || colon + 1 >= token.size()) {
    return false;
  }
  char* end = nullptr;
  const long rank = std::strtol(token.c_str(), &end, 10);
  if (end != token.c_str() + colon) {
    return false;
  }
  const char kind = token[colon + 1];
  if (kind != 'h' && kind != 's') {
    return false;
  }
  unsigned long local = 0;
  if (colon + 2 < token.size()) {
    const char* rest = token.c_str() + colon + 2;
    local = std::strtoul(rest, &end, 10);
    if (*end != '\0') {
      return false;
    }
  }
  out->rank = static_cast<int>(rank);
  out->kind = kind;
  out->local = static_cast<std::uint32_t>(local);
  return true;
}

}  // namespace

bool parse_trace(const std::string& text, ScheduleTrace* out, std::string* error) {
  out->strategy.clear();
  out->entries.clear();
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  bool have_magic = false;
  // Per-(actor, site)-stream next-expected seq: replay identifies decisions
  // by their position in the stream, so a gap or repeat makes the whole
  // document meaningless — reject it here rather than misattribute decisions
  // later.
  std::map<std::uint64_t, std::uint64_t> next_seq;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (line.empty()) {
      continue;
    }
    if (line_no == 1 || !have_magic) {
      if (line != kMagic) {
        return fail(error, line_no, "missing 'cusan-schedule-trace v1' header");
      }
      have_magic = true;
      continue;
    }
    if (line.rfind("# strategy ", 0) == 0) {
      out->strategy = line.substr(11);
      continue;
    }
    if (line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string tag;
    std::string actor_token;
    std::string site_token;
    TraceEntry entry;
    long long seq = -1;
    if (!(fields >> tag >> actor_token >> seq >> site_token >> entry.candidates >>
          entry.chosen) ||
        tag != "d") {
      return fail(error, line_no, "malformed decision line (want 'd actor seq site cand chosen')");
    }
    std::string extra;
    if (fields >> extra) {
      return fail(error, line_no, "trailing fields on decision line");
    }
    if (!parse_actor(actor_token, &entry.actor)) {
      return fail(error, line_no, common::format("bad actor '{}'", actor_token));
    }
    if (!site_from_string(site_token, &entry.site)) {
      return fail(error, line_no, common::format("unknown site '{}'", site_token));
    }
    if (seq < 0) {
      return fail(error, line_no, "negative seq");
    }
    entry.seq = static_cast<std::uint64_t>(seq);
    if (entry.candidates < 1) {
      return fail(error, line_no, "candidates must be >= 1");
    }
    if (entry.chosen < 0 || entry.chosen >= entry.candidates) {
      return fail(error, line_no,
                  common::format("chosen {} outside [0, {})", entry.chosen, entry.candidates));
    }
    std::uint64_t& expect = next_seq[stream_key(entry.actor, entry.site)];
    if (entry.seq != expect) {
      return fail(error, line_no,
                  common::format("actor {} {} seq {} out of order (expected {})",
                                 entry.actor.to_string(), site_token, entry.seq, expect));
    }
    ++expect;
    out->entries.push_back(entry);
  }
  if (!have_magic) {
    return fail(error, line_no, "empty document (missing header)");
  }
  return true;
}

}  // namespace schedsim
