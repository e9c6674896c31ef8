#include "mpisim/deadlock.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/assert.hpp"
#include "common/clock.hpp"
#include "common/parse.hpp"
#include "obs/diagnostics.hpp"
#include "obs/metrics.hpp"

namespace mpisim {

std::optional<std::chrono::milliseconds> parse_watchdog_ms(std::string_view value) {
  std::uint64_t ms = 0;
  if (!common::parse_uint(value, ms, std::numeric_limits<std::int64_t>::max() / 1'000'000)) {
    return std::nullopt;
  }
  return std::chrono::milliseconds(ms);
}

std::chrono::milliseconds default_watchdog_timeout() {
  // Parsed exactly once per process (thread-safe magic static), so a bad
  // value is reported once, not once per world.
  static const std::chrono::milliseconds timeout = [] {
    constexpr std::chrono::milliseconds kDefault(1000);
    const char* env = std::getenv("CUSAN_MPI_WATCHDOG_MS");
    if (env == nullptr || env[0] == '\0') {
      return kDefault;
    }
    if (const std::optional<std::chrono::milliseconds> parsed = parse_watchdog_ms(env)) {
      return *parsed;
    }
    std::fprintf(stderr,
                 "mpisim: invalid CUSAN_MPI_WATCHDOG_MS value '%s' (expected a decimal count "
                 "of milliseconds); the watchdog keeps 1000 ms\n",
                 env);
    return kDefault;
  }();
  return timeout;
}

const BlockedOp* DeadlockReport::for_rank(int rank) const {
  for (const BlockedOp& op : blocked) {
    if (op.rank == rank) {
      return &op;
    }
  }
  return nullptr;
}

std::string DeadlockReport::to_string() const {
  std::string out = "deadlock: no rank can make progress (world size " +
                    std::to_string(world_size) + ")\n";
  for (const BlockedOp& op : blocked) {
    out += "  rank " + std::to_string(op.rank) + ": blocked in " + op.op;
    if (op.peer >= 0) {
      out += " peer=" + std::to_string(op.peer);
    } else if (op.peer == -1 && (op.op.find("Recv") != std::string::npos ||
                                 op.op.find("Probe") != std::string::npos)) {
      out += " peer=MPI_ANY_SOURCE";
    }
    if (op.tag >= 0) {
      out += " tag=" + std::to_string(op.tag);
    }
    out += " comm=" + std::string(op.comm_id == 0 ? "world" : std::to_string(op.comm_id));
    if (op.soft) {
      out += " (polling MPI_Test)";
    }
    out += "\n";
  }
  return out;
}

Watchdog::Watchdog(std::chrono::milliseconds timeout)
    : timeout_ns_(timeout.count() > 0
                      ? static_cast<std::uint64_t>(
                            std::chrono::duration_cast<std::chrono::nanoseconds>(timeout).count())
                      : 0) {}

bool Watchdog::holds(std::uint64_t progress, std::span<const RankWait> ranks,
                     std::uint64_t now_ns) {
  if (timeout_ns_ == 0) {
    return false;
  }
  // Every live rank blocked (hard or soft) or exited, at least one blocked.
  // A rank still computing between MPI calls vetoes the declaration.
  bool any_blocked = false;
  bool any_running = false;
  for (const RankWait wait : ranks) {
    any_blocked = any_blocked || wait == RankWait::kBlocked || wait == RankWait::kSoftBlocked;
    any_running = any_running || wait == RankWait::kRunning;
  }
  const bool all_blocked = any_blocked && !any_running;
  if (!all_blocked || !quiet_ || progress != progress_) {
    // The quiet clock (re)starts at the first observation the condition
    // holds with this progress count.
    quiet_ = all_blocked;
    progress_ = progress;
    quiet_since_ns_ = now_ns;
    return false;
  }
  return now_ns - quiet_since_ns_ >= timeout_ns_;
}

DeadlockReport declare_deadlock(int world_size, std::vector<BlockedOp> blocked) {
  DeadlockReport report;
  report.world_size = world_size;
  report.blocked = std::move(blocked);
  std::sort(report.blocked.begin(), report.blocked.end(),
            [](const BlockedOp& a, const BlockedOp& b) { return a.rank < b.rank; });
  obs::count("mpisim.deadlocks_declared");
  obs::emit_diagnostic(obs::Diagnostic{"mpisim.deadlock", obs::Severity::kError,
                                       /*rank=*/-1, report.to_string(), 0});
  return report;
}

BlockedTable::BlockedTable(int size, bool watched)
    : size_(size),
      watched_(watched),
      entries_(std::make_unique<Entry[]>(static_cast<std::size_t>(size))),
      waits_(static_cast<std::size_t>(size)) {
  CUSAN_ASSERT(size > 0);
}

void BlockedTable::block(int rank, const char* op, int peer, int tag, int comm_id, bool soft) {
  Entry& entry = entries_[static_cast<std::size_t>(rank)];
  std::lock_guard lock(entry.mutex);
  entry.wait = soft ? RankWait::kSoftBlocked : RankWait::kBlocked;
  entry.op.rank = rank;
  entry.op.op.assign(op);  // reuses the string's capacity: no allocation per wait
  entry.op.peer = peer;
  entry.op.tag = tag;
  entry.op.comm_id = comm_id;
  entry.op.soft = soft;
}

void BlockedTable::unblock(int rank) {
  Entry& entry = entries_[static_cast<std::size_t>(rank)];
  std::lock_guard lock(entry.mutex);
  entry.wait = RankWait::kRunning;
}

void BlockedTable::exited(int rank) {
  {
    Entry& entry = entries_[static_cast<std::size_t>(rank)];
    std::lock_guard lock(entry.mutex);
    entry.wait = RankWait::kExited;
  }
  note_progress();
  {
    std::lock_guard lock(exit_mutex_);
    ++exits_;
  }
  exit_cv_.notify_one();  // the declarer is the only waiter
}

DeadlockReport BlockedTable::report() const { return deadlocked() ? report_ : DeadlockReport{}; }

bool BlockedTable::wait_exits(std::chrono::milliseconds poll) {
  std::unique_lock lock(exit_mutex_);
  return exit_cv_.wait_for(lock, poll, [&] { return exits_ == size_; });
}

bool BlockedTable::declare_if(Watchdog& rule) {
  if (deadlocked()) {
    return false;
  }
  const std::uint64_t progress = progress_.load(std::memory_order_relaxed);
  for (int r = 0; r < size_; ++r) {
    Entry& entry = entries_[static_cast<std::size_t>(r)];
    std::lock_guard lock(entry.mutex);
    waits_[static_cast<std::size_t>(r)] = entry.wait;
  }
  if (!rule.holds(progress, waits_, common::now_ns())) {
    return false;
  }
  std::vector<BlockedOp> blocked;
  for (int r = 0; r < size_; ++r) {
    Entry& entry = entries_[static_cast<std::size_t>(r)];
    std::lock_guard lock(entry.mutex);
    if (entry.wait != waits_[static_cast<std::size_t>(r)]) {
      return false;  // the rank moved since the snapshot: not quiet after all
    }
    if (entry.wait == RankWait::kBlocked || entry.wait == RankWait::kSoftBlocked) {
      blocked.push_back(entry.op);
    }
  }
  if (progress_.load(std::memory_order_relaxed) != progress) {
    return false;
  }
  report_ = declare_deadlock(size_, std::move(blocked));
  deadlocked_.store(true, std::memory_order_release);
  return true;
}

}  // namespace mpisim
