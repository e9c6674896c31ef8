#include "schedsim/controller.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>

#include "common/format.hpp"
#include "common/parse.hpp"
#include "obs/diagnostics.hpp"
#include "obs/metrics.hpp"
#include "obs/ring.hpp"

namespace schedsim {

namespace {

[[nodiscard]] bool parse_error(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}

[[nodiscard]] bool read_file(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  char buf[1 << 14];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

/// The controller's counters, in the calling thread's registry (the
/// session's under svc scoping), listed together from the first one bumped.
constexpr obs::MetricId kSchedCounters[] = {"sched.decisions", "sched.replay_underruns",
                                            "sched.divergences"};

void count_sched(obs::MetricId id) {
  obs::MetricsRegistry::instance().group_slot(kSchedCounters, id).increment();
}

}  // namespace

bool parse_schedule(const std::string& text, Config* out, std::string* error) {
  Config config;
  if (text.empty() || text == "0" || text == "off" || text == "none") {
    *out = config;
    return true;
  }
  bool have_mode = false;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t end = text.find_first_of(";,", pos);
    if (end == std::string::npos) {
      end = text.size();
    }
    const std::string clause = text.substr(pos, end - pos);
    pos = end + 1;
    if (clause.empty()) {
      if (end == text.size()) {
        break;
      }
      continue;
    }
    const std::size_t colon = clause.find(':');
    const std::string head = clause.substr(0, colon);
    const std::string arg = colon == std::string::npos ? "" : clause.substr(colon + 1);
    if (head == "free") {
      if (have_mode) {
        return parse_error(error, "multiple strategy clauses");
      }
      have_mode = true;
      config.mode = Mode::kFree;
    } else if (head == "replay") {
      if (have_mode) {
        return parse_error(error, "multiple strategy clauses");
      }
      if (arg.empty()) {
        return parse_error(error, "replay: missing path");
      }
      have_mode = true;
      config.mode = Mode::kReplay;
      config.replay_path = arg;
    } else if (head == "dpor") {
      if (have_mode) {
        return parse_error(error, "multiple strategy clauses");
      }
      have_mode = true;
      config.mode = Mode::kDpor;
    } else if (head == "bound") {
      std::uint64_t k = 0;
      if (!common::parse_uint(arg, k, std::numeric_limits<std::uint32_t>::max()) || k == 0) {
        return parse_error(error, common::format("bound: not a number in 1..{}: '{}'",
                                                 std::numeric_limits<std::uint32_t>::max(), arg));
      }
      config.bound = static_cast<std::uint32_t>(k);
    } else if (head == "record") {
      if (arg.empty()) {
        return parse_error(error, "record: missing path");
      }
      config.record = true;
      config.record_path = arg;
    } else {
      return parse_error(error, common::format("unknown clause '{}'", clause));
    }
    if (end == text.size()) {
      break;
    }
  }
  *out = config;
  return true;
}

std::string to_string(const Config& config) {
  std::string out;
  switch (config.mode) {
    case Mode::kFree:
      out = "free";
      break;
    case Mode::kReplay:
      out = config.replay_path.empty() ? "replay" : "replay:" + config.replay_path;
      break;
    case Mode::kPrefix:
      out = "prefix";
      break;
    case Mode::kDpor:
      out = "dpor";
      break;
  }
  if (config.bound != 0) {
    out += common::format(";bound:{}", config.bound);
  }
  if (config.record) {
    out += config.record_path.empty() ? ";record" : ";record:" + config.record_path;
  }
  return out;
}

std::string Divergence::to_string() const {
  return common::format("rank {} {} decision {}: log recorded {} candidates, run asked for {}",
                        rank, schedsim::to_string(site), seq, expected_candidates,
                        got_candidates);
}

namespace detail {

constinit std::atomic<bool> g_process_armed{false};

}  // namespace detail

Controller& Controller::instance() {
  Controller* current = common::ThreadContext::current().controller;
  return current != nullptr ? *current : global();
}

Controller& Controller::global() {
  static Controller controller;
  return controller;
}

void Controller::set_armed(bool armed) {
  armed_.store(armed, std::memory_order_relaxed);
  if (this == &global()) {
    detail::g_process_armed.store(armed, std::memory_order_relaxed);
  }
}

int Controller::choose(Site site, int rank, int candidates, int default_index) {
  if (candidates <= 1) {
    return 0;
  }
  if (default_index < 0 || default_index >= candidates) {
    default_index = 0;
  }
  if (!armed_.load(std::memory_order_relaxed)) {
    return default_index;
  }
  int chosen = default_index;
  std::uint64_t seq = 0;
  const std::uint64_t key = stream_key(rank, site);
  {
    std::lock_guard lock(mutex_);
    StreamState& st = streams_[key];
    seq = st.seq++;
    ++stats_.decisions;
    switch (config_.mode) {
      case Mode::kFree:
      case Mode::kDpor:  // a single dpor run is free + record; the explorer
                         // owns the multi-run loop and installs prefixes
        break;
      case Mode::kPrefix:  // prefix pinning replays its pinned slice and
                           // records the suffix as tolerated underruns
      case Mode::kReplay: {
        if (st.diverged) {
          break;
        }
        const auto it = replay_streams_.find(key);
        const std::vector<std::size_t>* slice = it != replay_streams_.end() ? &it->second
                                                                            : nullptr;
        if (slice == nullptr || st.cursor >= slice->size()) {
          // Ran past the recording: timing-dependent entry into a choice
          // point (e.g. a wait whose predicate was already true at record
          // time). Counted, not a divergence — the recording still pins
          // every decision it covers.
          ++stats_.underruns;
          count_sched("sched.replay_underruns");
          break;
        }
        const TraceEntry& entry = replay_[(*slice)[st.cursor]];
        if (entry.candidates != candidates) {
          st.diverged = true;
          ++stats_.divergences;
          if (!divergence_.has_value()) {
            divergence_ = Divergence{rank, entry.seq, site, entry.candidates, candidates};
            count_sched("sched.divergences");
            obs::emit_diagnostic({"sched.divergence", obs::Severity::kError, rank,
                                  divergence_->to_string(), 0});
          }
          break;
        }
        ++st.cursor;
        ++stats_.replayed;
        chosen = entry.chosen < candidates ? entry.chosen : default_index;
        break;
      }
    }
    if (config_.record) {
      log_.push_back({rank, seq, site, candidates, chosen});
    }
  }
  count_sched("sched.decisions");
  if (obs::tracing_enabled()) {
    obs::emit_instant(rank, obs::EventKind::kSchedule, obs::kHostTrack, to_string(site),
                      (seq << 16) | (static_cast<std::uint64_t>(candidates) << 8) |
                          static_cast<std::uint64_t>(chosen));
  }
  return chosen;
}

void Controller::configure(const Config& config) {
  std::lock_guard lock(mutex_);
  config_ = config;
  if (config_.mode == Mode::kDpor) {
    config_.record = true;  // every explored run must yield its log
  }
  install_replay_locked({});
  set_armed(config_.mode != Mode::kFree || config_.record);
}

void Controller::configure_prefix(std::vector<TraceEntry> prefix) {
  std::lock_guard lock(mutex_);
  config_ = {};
  config_.mode = Mode::kPrefix;
  config_.record = true;
  install_replay_locked(std::move(prefix));
  set_armed(true);
}

bool Controller::configure_replay_text(const std::string& log_text, std::string* error,
                                       bool record) {
  DecisionLog parsed;
  if (!parse_log(log_text, &parsed, error)) {
    return false;
  }
  std::lock_guard lock(mutex_);
  config_ = {};
  config_.mode = Mode::kReplay;
  config_.record = record;
  install_replay_locked(std::move(parsed.decisions));
  set_armed(true);
  return true;
}

void Controller::install_replay_locked(std::vector<TraceEntry> entries) {
  replay_ = std::move(entries);
  replay_streams_.clear();
  for (std::size_t i = 0; i < replay_.size(); ++i) {
    replay_streams_[stream_key(replay_[i].rank, replay_[i].site)].push_back(i);
  }
  reset_run_state_locked();
}

bool Controller::load(const Config& config, std::string* error) {
  if (config.mode != Mode::kReplay) {
    configure(config);
    return true;
  }
  std::string text;
  if (!read_file(config.replay_path, &text)) {
    return parse_error(error, common::format("replay: cannot read '{}'", config.replay_path));
  }
  if (!configure_replay_text(text, error, config.record)) {
    return false;
  }
  std::lock_guard lock(mutex_);
  config_.record_path = config.record_path;
  return true;
}

bool Controller::load_env(std::string* error) {
  const char* env = std::getenv("CUSAN_SCHEDULE");
  if (env == nullptr || *env == '\0') {
    return true;
  }
  Config config;
  return parse_schedule(env, &config, error) && load(config, error);
}

void Controller::clear() {
  std::lock_guard lock(mutex_);
  config_ = {};
  install_replay_locked({});
  set_armed(false);
}

void Controller::begin_session() {
  if (!armed_.load(std::memory_order_relaxed)) {
    return;
  }
  std::lock_guard lock(mutex_);
  reset_run_state_locked();
}

void Controller::reset_run_state_locked() {
  streams_.clear();
  divergence_.reset();
  stats_ = {};
  log_.clear();
}

void Controller::absorb_child(const Stats& child_stats,
                              const std::optional<Divergence>& child_divergence,
                              const std::vector<TraceEntry>& child_decisions) {
  std::lock_guard lock(mutex_);
  if (config_.record) {
    log_.insert(log_.end(), child_decisions.begin(), child_decisions.end());
  }
  stats_.decisions += child_stats.decisions;
  stats_.replayed += child_stats.replayed;
  stats_.underruns += child_stats.underruns;
  stats_.divergences += child_stats.divergences;
  if (!divergence_.has_value() && child_divergence.has_value()) {
    divergence_ = child_divergence;
  }
}

Config Controller::config() const {
  std::lock_guard lock(mutex_);
  return config_;
}

std::string Controller::strategy_string_locked() const {
  std::string out = to_string(config_);
  if (config_.mode == Mode::kPrefix) {
    out.insert(std::string_view("prefix").size(), common::format(":{}", replay_.size()));
  }
  return out;
}

std::string Controller::strategy_string() const {
  std::lock_guard lock(mutex_);
  return strategy_string_locked();
}

DecisionLog Controller::log() const {
  std::lock_guard lock(mutex_);
  return {strategy_string_locked(), log_};
}

std::optional<Divergence> Controller::divergence() const {
  std::lock_guard lock(mutex_);
  return divergence_;
}

Stats Controller::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace schedsim
