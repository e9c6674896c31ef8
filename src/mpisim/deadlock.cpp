#include "mpisim/deadlock.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/assert.hpp"
#include "obs/diagnostics.hpp"
#include "obs/metrics.hpp"

namespace mpisim {

std::chrono::milliseconds default_watchdog_timeout() {
  if (const char* env = std::getenv("CUSAN_MPI_WATCHDOG_MS"); env != nullptr && env[0] != '\0') {
    const long ms = std::strtol(env, nullptr, 10);
    return std::chrono::milliseconds(ms > 0 ? ms : 0);
  }
  return std::chrono::milliseconds(1000);
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

ProgressTracker::ProgressTracker(int world_size)
    : world_size_(world_size),
      timeout_us_(std::chrono::duration_cast<std::chrono::microseconds>(
                      default_watchdog_timeout())
                      .count()),
      exited_ranks_(static_cast<std::size_t>(world_size), false) {
  CUSAN_ASSERT(world_size > 0);
}

void ProgressTracker::set_timeout(std::chrono::milliseconds timeout) {
  timeout_us_.store(
      std::chrono::duration_cast<std::chrono::microseconds>(timeout).count(),
      std::memory_order_relaxed);
}

std::chrono::milliseconds ProgressTracker::timeout() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::microseconds(timeout_us_.load(std::memory_order_relaxed)));
}

void ProgressTracker::block(const BlockedOp& op) {
  std::lock_guard lock(mutex_);
  blocked_[op.rank] = op;
  soft_blocked_.erase(op.rank);
}

void ProgressTracker::unblock(int rank) {
  std::lock_guard lock(mutex_);
  blocked_.erase(rank);
}

void ProgressTracker::soft_block(const BlockedOp& op) {
  std::lock_guard lock(mutex_);
  BlockedOp entry = op;
  entry.soft = true;
  soft_blocked_[op.rank] = std::move(entry);
}

void ProgressTracker::soft_unblock(int rank) {
  std::lock_guard lock(mutex_);
  soft_blocked_.erase(rank);
}

void ProgressTracker::rank_exited(int rank) {
  {
    std::lock_guard lock(mutex_);
    if (!exited_ranks_[static_cast<std::size_t>(rank)]) {
      exited_ranks_[static_cast<std::size_t>(rank)] = true;
      ++exited_;
    }
    blocked_.erase(rank);
    soft_blocked_.erase(rank);
  }
  // An exiting rank is a state change: a peer waiting on it can now be part
  // of a provable deadlock, but in-flight sends it made were already counted.
  note_progress();
}

bool ProgressTracker::try_declare(std::uint64_t progress_snapshot) {
  if (deadlocked()) {
    return true;
  }
  std::lock_guard lock(mutex_);
  if (deadlocked()) {
    return true;
  }
  // Count soft blocks only for ranks not also hard-blocked (a rank moves
  // from soft to hard when it enters a real blocking call).
  std::size_t soft = 0;
  for (const auto& [rank, op] : soft_blocked_) {
    soft += blocked_.count(rank) == 0 ? 1 : 0;
  }
  const std::size_t accounted = blocked_.size() + soft + exited_;
  if (accounted < static_cast<std::size_t>(world_size_) ||
      blocked_.size() + soft == 0) {
    return false;
  }
  if (progress_.load(std::memory_order_relaxed) != progress_snapshot) {
    return false;
  }
  DeadlockReport report;
  report.world_size = world_size_;
  for (const auto& [rank, op] : blocked_) {
    report.blocked.push_back(op);
  }
  for (const auto& [rank, op] : soft_blocked_) {
    if (blocked_.count(rank) == 0) {
      report.blocked.push_back(op);
    }
  }
  std::sort(report.blocked.begin(), report.blocked.end(),
            [](const BlockedOp& a, const BlockedOp& b) { return a.rank < b.rank; });
  report_ = std::move(report);
  deadlocked_.store(true, std::memory_order_release);
  obs::count("mpisim.deadlocks_declared");
  obs::emit_diagnostic(obs::Diagnostic{"mpisim.deadlock", obs::Severity::kError,
                                       /*rank=*/-1, report_.to_string(), 0});
  return true;
}

DeadlockReport ProgressTracker::report() const {
  std::lock_guard lock(mutex_);
  return report_;
}

}  // namespace mpisim
