// MPI progress watchdog: converts "every live rank is blocked and nothing
// can make progress" from an eternal hang into a structured DeadlockReport —
// graceful degradation from "CI hangs" to "test fails with a diagnosis".
//
// The rule, one copy for both backends (Watchdog): a world is deadlocked
// when every live rank is blocked in a blocking call (or soft-blocked:
// spinning on an incomplete Test) or exited, at least one rank is blocked,
// and this has held with the world's progress counter — bumped on every
// delivery, completion and rank exit — unmoved for the watchdog timeout.
//
// Ranks only publish into a fixed per-rank blocked table (hard op, soft op
// or exited): BlockedTable in the thread backend, the shm RankSlot in the
// proc backend. One declarer per world applies the rule: the world's parent
// (World::run_threads' spawning thread; the proc Supervisor). On
// declaration it builds the report (declare_deadlock) and poisons the world:
// every blocked and future blocking call returns MpiError::kDeadlock.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace mpisim {

/// A CUSAN_MPI_WATCHDOG_MS value: a decimal count of milliseconds (digits
/// only; 0 disables declaration). std::nullopt: not such a count.
[[nodiscard]] std::optional<std::chrono::milliseconds> parse_watchdog_ms(std::string_view value);

/// Watchdog timeout: CUSAN_MPI_WATCHDOG_MS, default 1000 ms, parsed once per
/// process (a bad value is reported on stderr and keeps the default). 0
/// disables declaration (blocking calls then wait forever).
[[nodiscard]] std::chrono::milliseconds default_watchdog_timeout();

/// How often a declarer re-applies the rule.
inline constexpr auto kWatchdogPoll = std::chrono::milliseconds(2);

/// Consecutive incomplete Test calls before the rank counts as soft-blocked.
inline constexpr int kSoftBlockThreshold = 64;

/// One rank's blocked operation at declaration time.
struct BlockedOp {
  int rank{-1};
  std::string op;    ///< outermost MPI call, e.g. "MPI_Barrier"
  int peer{-1};      ///< source/dest rank (kAnySource / -1 if n/a)
  int tag{-1};       ///< message tag (-1 if n/a; internal tags are negative)
  int comm_id{0};    ///< 0 = world communicator, >0 = dup children
  bool soft{false};  ///< soft-blocked (Test polling loop), not a blocking call

  friend bool operator==(const BlockedOp&, const BlockedOp&) = default;
};

struct DeadlockReport {
  std::vector<BlockedOp> blocked;  ///< sorted by rank
  int world_size{0};

  [[nodiscard]] bool empty() const { return blocked.empty(); }
  [[nodiscard]] const BlockedOp* for_rank(int rank) const;
  /// Multi-line human-readable rendering (one line per blocked rank).
  [[nodiscard]] std::string to_string() const;
};

/// What a declarer sees of one rank.
enum class RankWait : std::uint8_t { kRunning, kBlocked, kSoftBlocked, kExited };

/// The declaration rule and its quiet clock; one per world, owned by the
/// world's declarer.
class Watchdog {
 public:
  /// timeout <= 0: the rule never holds.
  explicit Watchdog(std::chrono::milliseconds timeout);

  /// Apply the rule to one observation of the world at `now_ns`
  /// (common::now_ns): its progress count and every rank's wait state.
  [[nodiscard]] bool holds(std::uint64_t progress, std::span<const RankWait> ranks,
                           std::uint64_t now_ns);

 private:
  std::uint64_t timeout_ns_;
  std::uint64_t progress_{0};
  std::uint64_t quiet_since_ns_{0};
  bool quiet_{false};
};

/// The one report path: the report over the blocked ranks' ops (sorted by
/// rank), counted as mpisim.deadlocks_declared and emitted as the
/// mpisim.deadlock diagnostic.
[[nodiscard]] DeadlockReport declare_deadlock(int world_size, std::vector<BlockedOp> blocked);

/// A rank's run of incomplete MPI_Test calls; only the rank itself touches it.
struct TestStreak {
  int polls{0};
  bool soft{false};  ///< published as a soft block
};

/// The thread backend's blocked-rank table, shared by every communicator of
/// one world (ranks publish into it) and the world's declarer.
class BlockedTable {
 public:
  /// `watched`: a declarer applies the rule to this table (timeout > 0).
  BlockedTable(int size, bool watched);

  [[nodiscard]] bool watched() const { return watched_; }

  // -- rank side ------------------------------------------------------------

  /// Bumped on every state change that can unblock a rank (delivery,
  /// unexpected-message arrival, request completion, rank exit).
  void note_progress() { progress_.fetch_add(1, std::memory_order_relaxed); }
  void block(int rank, const char* op, int peer, int tag, int comm_id, bool soft);
  void unblock(int rank);
  /// The rank returned from rank_main; wakes the declarer.
  void exited(int rank);
  [[nodiscard]] TestStreak& streak(int rank) { return entries_[static_cast<std::size_t>(rank)].streak; }

  [[nodiscard]] bool deadlocked() const { return deadlocked_.load(std::memory_order_acquire); }
  /// The declared report (empty: none).
  [[nodiscard]] DeadlockReport report() const;

  // -- declarer side --------------------------------------------------------

  /// Wait up to `poll` for every rank to exit; true once all have.
  [[nodiscard]] bool wait_exits(std::chrono::milliseconds poll);
  /// Apply `rule` to the table and declare when it holds; true on declaration.
  bool declare_if(Watchdog& rule);

 private:
  /// One rank's row. Cacheline-aligned so neighbouring ranks don't
  /// false-share; `mutex` guards `wait` and `op`.
  struct alignas(64) Entry {
    std::mutex mutex;
    RankWait wait{RankWait::kRunning};
    BlockedOp op;
    TestStreak streak;
  };

  int size_;
  bool watched_;
  std::unique_ptr<Entry[]> entries_;
  std::atomic<std::uint64_t> progress_{0};
  std::atomic<bool> deadlocked_{false};
  DeadlockReport report_;  ///< written once, before deadlocked_ is released
  std::vector<RankWait> waits_;  ///< declarer's scratch

  std::mutex exit_mutex_;
  std::condition_variable exit_cv_;
  int exits_{0};  ///< guarded by exit_mutex_
};

}  // namespace mpisim
