#include "schedsim/decision_log.hpp"

#include <limits>
#include <sstream>
#include <unordered_map>

#include "common/format.hpp"
#include "common/parse.hpp"

namespace schedsim {

namespace {

constexpr const char* kMagic = "# cusan-decision-log v2";
constexpr const char* kRetiredMagic = "# cusan-execution-graph v1";

[[nodiscard]] bool fail(std::string* error, std::size_t line_no, const std::string& message) {
  if (error != nullptr) {
    *error = common::format("line {}: {}", line_no, message);
  }
  return false;
}

/// `-1` (unattributed) or a rank in [0, INT_MAX).
[[nodiscard]] bool parse_rank(const std::string& token, int* rank) {
  if (token == "-1") {
    *rank = -1;
    return true;
  }
  std::uint64_t value = 0;
  if (!common::parse_uint(token, value, std::numeric_limits<int>::max() - 1)) {
    return false;
  }
  *rank = static_cast<int>(value);
  return true;
}

/// A count or index in [0, INT_MAX].
[[nodiscard]] bool parse_int(const std::string& token, int* out) {
  std::uint64_t value = 0;
  if (!common::parse_uint(token, value, std::numeric_limits<int>::max())) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

}  // namespace

const char* to_string(Site site) {
  switch (site) {
    case Site::kMatchRecv:
      return "match_recv";
    case Site::kWaitany:
      return "waitany";
  }
  return "unknown";
}

bool site_from_string(const std::string& name, Site* out) {
  static constexpr Site kAll[] = {Site::kMatchRecv, Site::kWaitany};
  for (const Site site : kAll) {
    if (name == to_string(site)) {
      *out = site;
      return true;
    }
  }
  return false;
}

std::string serialize_log(const DecisionLog& log) {
  std::string out = kMagic;
  out += '\n';
  if (!log.strategy.empty()) {
    out += "# strategy ";
    out += log.strategy;
    out += '\n';
  }
  for (const TraceEntry& e : log.decisions) {
    out += common::format("{} {} {} {} {}\n", e.rank, to_string(e.site), e.seq, e.candidates,
                          e.chosen);
  }
  return out;
}

bool parse_log(const std::string& text, DecisionLog* out, std::string* error) {
  out->strategy.clear();
  out->decisions.clear();
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  bool have_magic = false;
  std::unordered_map<std::uint64_t, std::uint64_t> next_seq;  ///< stream_key -> expected seq
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (line.empty()) {
      continue;
    }
    if (!have_magic) {
      if (line == kRetiredMagic) {
        return fail(error, line_no,
                    "'cusan-execution-graph v1' is a retired format; re-record the run with "
                    "record:<path>");
      }
      if (line != kMagic) {
        return fail(error, line_no, "missing 'cusan-decision-log v2' header");
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
    std::string rank_token;
    std::string site_token;
    std::string seq_token;
    std::string candidates_token;
    std::string chosen_token;
    if (!(fields >> rank_token >> site_token >> seq_token >> candidates_token >> chosen_token)) {
      return fail(error, line_no, "malformed decision line");
    }
    if (std::string extra; fields >> extra) {
      return fail(error, line_no, "trailing fields on decision line");
    }
    TraceEntry entry;
    if (!parse_rank(rank_token, &entry.rank)) {
      return fail(error, line_no, common::format("bad rank '{}'", rank_token));
    }
    if (!site_from_string(site_token, &entry.site)) {
      return fail(error, line_no, common::format("unknown site '{}'", site_token));
    }
    if (!common::parse_uint(seq_token, entry.seq) ||
        !parse_int(candidates_token, &entry.candidates) ||
        !parse_int(chosen_token, &entry.chosen)) {
      return fail(error, line_no, "malformed decision line");
    }
    if (entry.candidates < 1) {
      return fail(error, line_no, "candidates must be >= 1");
    }
    if (entry.chosen >= entry.candidates) {
      return fail(error, line_no, common::format("chosen {} outside [0, {})", entry.chosen,
                                                 entry.candidates));
    }
    std::uint64_t& expect = next_seq[stream_key(entry.rank, entry.site)];
    if (entry.seq != expect) {
      return fail(error, line_no,
                  common::format("rank {} {} seq {} out of order (expected {})", entry.rank,
                                 site_token, entry.seq, expect));
    }
    ++expect;
    out->decisions.push_back(entry);
  }
  if (!have_magic) {
    return fail(error, line_no, "empty document (missing header)");
  }
  return true;
}

}  // namespace schedsim
