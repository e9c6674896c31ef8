// Targeted wakeups for the sharded communication engine: each rank of a
// world parks on its own WaiterSlot instead of a communicator-wide condition
// variable. Completing an operation wakes exactly the rank that can consume
// it; only deadlock declaration/poisoning broadcasts to every slot (the one
// place a thundering herd is the *point* — every blocked rank must observe
// the verdict).
//
// The slot is a (mutex, condvar, epoch) triple. Signalling bumps the epoch;
// a waiter passes the last epoch it saw and parks only if nothing was
// signalled since. The epoch closes the classic lost-wakeup window between
// "predicate checked false" and "parked": predicates are evaluated *outside*
// the slot lock (they take mailbox locks or read request atomics), so a
// completion racing with the check bumps the epoch and the park returns
// immediately.
//
// Lock-ordering rule: completers may signal a slot while holding a mailbox
// lock (mailbox -> slot), therefore waiters must never evaluate a predicate
// that takes a mailbox lock while holding their slot lock. WaiterSlot's API
// enforces this shape: predicates live in the caller's loop, not in here.
//
// One hub is shared by a world and all its dup'd communicators: a rank is a
// thread and can only be blocked in one call on one communicator at a time,
// so a per-(world, rank) slot is sufficient and keeps cross-communicator
// wakeups (e.g. a dup'd comm's delivery unblocking a rank) working.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "mpisim/counters.hpp"

namespace mpisim {

class WaiterSlot {
 public:
  /// Current epoch; pass it to wait() to detect signals delivered since.
  [[nodiscard]] std::uint64_t epoch() {
    std::lock_guard lock(mutex_);
    return epoch_;
  }

  /// Wake the parked owner (if any). Callers may hold a mailbox lock. The
  /// epoch bump is unconditional (so a racing waiter about to park returns
  /// immediately); the condvar notify — the expensive futex syscall — is
  /// skipped when the owner is not parked, which is the common case when it
  /// is still in its pre-park yield loop.
  void signal() {
    bool wake = false;
    {
      std::lock_guard lock(mutex_);
      ++epoch_;
      wake = parked_;
    }
    if (wake) {
      detail::contention("mpisim.wakeups_delivered").increment();
      cv_.notify_one();  // at most one thread (the owning rank) ever parks here
    }
  }

  /// Park until the epoch advances past `seen`; returns the epoch at wake
  /// time. A signal between the caller's predicate check and this call
  /// returns immediately. No timeout: a deadlock declaration broadcasts.
  std::uint64_t wait(std::uint64_t seen) {
    std::unique_lock lock(mutex_);
    if (epoch_ == seen) {
      parked_ = true;
      cv_.wait(lock, [&] { return epoch_ != seen; });
      parked_ = false;
    }
    return epoch_;
  }

 private:
  friend class WaiterHub;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t epoch_{0};  ///< guarded by mutex_
  bool parked_{false};      ///< guarded by mutex_; owner is inside a cv wait
};

/// Per-world array of waiter slots, shared by the world communicator and all
/// its dup children.
class WaiterHub {
 public:
  explicit WaiterHub(int size) : slots_(static_cast<std::size_t>(size)) {
    for (auto& slot : slots_) {
      slot = std::make_unique<WaiterSlot>();
    }
  }

  [[nodiscard]] WaiterSlot& slot(int rank) { return *slots_[static_cast<std::size_t>(rank)]; }
  [[nodiscard]] int size() const { return static_cast<int>(slots_.size()); }

  /// Wake every rank. Reserved for deadlock declaration/poisoning — the only
  /// events every blocked rank must observe regardless of what it waits on.
  /// The deadlock is latched before the broadcast and every woken rank reads
  /// it, so the order of the wakes decides nothing and is not a choice point.
  void broadcast() {
    for (auto& slot : slots_) {
      wake_slot(*slot);
    }
    detail::contention("mpisim.wakeups_broadcast").add(slots_.size());
  }

 private:
  static void wake_slot(WaiterSlot& slot) {
    {
      std::lock_guard lock(slot.mutex_);
      ++slot.epoch_;
    }
    slot.cv_.notify_all();
  }

  std::vector<std::unique_ptr<WaiterSlot>> slots_;
};

}  // namespace mpisim
