// The proc backend's parent-side supervisor: owns the world segment's
// lifecycle (create → init → fork → monitor → collect → unlink), reaps rank
// processes, classifies deaths (signal / heartbeat timeout / exit code),
// poisons the world ULFM-style on the first failure, and declares deadlocks
// from outside the world (all live ranks blocked + progress quiet), since a
// fully-wedged world has no thread left to declare one from within.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include <sys/types.h>

#include "mpisim/comm.hpp"
#include "mpisim/deadlock.hpp"
#include "mpisim/failure.hpp"
#include "mpisim/shm.hpp"
#include "mpisim/shm_layout.hpp"

namespace mpisim {

class Supervisor {
 public:
  struct Options {
    int world_size{2};
    /// Deadlock quiet-time budget; <= 0 disables supervisor-side detection.
    std::chrono::milliseconds watchdog{std::chrono::milliseconds(1000)};
    std::uint32_t ring_bytes{0};  ///< 0: proc::default_ring_bytes(world_size)
    std::uint32_t eager_max{0};   ///< 0: proc::default_eager_max(ring_bytes)
  };

  explicit Supervisor(Options options);
  ~Supervisor();
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Fork one process per rank running `rank_main(comm)`, monitor them to
  /// completion, collect published results, and tear the segment down.
  /// Exactly one call per Supervisor.
  void run(const std::function<void(Comm)>& rank_main);

  /// The failure report, if a rank died (at most one: the first failure).
  [[nodiscard]] const std::optional<RankFailureReport>& failure_report() const {
    return failure_;
  }
  /// Non-empty when the supervisor declared a deadlock.
  [[nodiscard]] const DeadlockReport& deadlock_report() const { return deadlock_; }
  /// The blob rank published via proc::publish_result (empty: none).
  [[nodiscard]] const std::vector<std::byte>& rank_result(int rank) const {
    return results_[static_cast<std::size_t>(rank)];
  }
  /// what() of the first (by rank) rank_main exception, "" if none threw.
  [[nodiscard]] const std::string& first_app_error() const { return first_app_error_; }

 private:
  struct Child {
    pid_t pid{-1};
    bool reaped{false};
    bool hb_kill_sent{false};   ///< we SIGKILLed it on heartbeat staleness
    bool backstop_kill{false};  ///< we SIGKILLed it post-poison (teardown backstop)
  };

  /// Seqlock-consistent copy of a rank slot's descriptive block. A rank
  /// killed mid-write leaves `ver` odd forever; after a bounded retry the
  /// possibly-torn copy is used anyway (diagnostic data, not correctness).
  struct SlotSnap {
    shmlayout::ShmBlockedOp blocked{};
    char site[shmlayout::kMaxSite]{};
    std::uint32_t inflight_count{0};
    shmlayout::ShmInflight inflight[shmlayout::kMaxInflight]{};
    char error_msg[shmlayout::kMaxErrorMsg]{};
  };

  void setup_segment();
  [[noreturn]] void child_main(int rank, const std::function<void(Comm)>& rank_main);
  void monitor();
  void reap_once();
  void classify_death(int rank, int wait_status);
  void declare_failure(int rank, FailureKind kind, int signal, int exit_code);
  void check_heartbeats();
  void check_deadlock();
  void backstop_after_poison();
  void collect_results();
  void teardown();
  [[nodiscard]] SlotSnap read_slot(int rank) const;
  [[nodiscard]] int live_unreaped() const;

  Options options_;
  shm::Segment seg_;
  shmlayout::Layout layout_;
  std::vector<Child> children_;
  std::vector<std::vector<std::byte>> results_;
  std::optional<RankFailureReport> failure_;
  DeadlockReport deadlock_;
  std::string first_app_error_;

  Watchdog rule_;                ///< this world's declaration rule
  std::vector<RankWait> waits_;  ///< check_deadlock's per-rank scratch
  // Post-poison teardown backstop.
  std::uint64_t poisoned_at_ns_{0};
};

}  // namespace mpisim
