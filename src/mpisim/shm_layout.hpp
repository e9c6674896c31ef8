// The proc backend's world-segment layout. One named segment per World::run
// holds, in order: the header (poison word, progress counter, geometry),
// one RankSlot per rank (heartbeat, blocked-op seqlock block, in-flight
// table, rank_kill handshake), the deadlock and failure report areas, and
// the N×N grid of SPSC message rings.
//
// Everything here is shared across processes: only lock-free std::atomic
// and plain PODs — never a pthread mutex — live in the segment, so a rank
// dying at any instruction cannot leave shared state locked (the recovery
// invariant docs/architecture.md spells out).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "mpisim/shm_ring.hpp"

namespace mpisim::shmlayout {

inline constexpr std::uint64_t kMagic = 0x6375'7361'6e77'3031ULL;  // "cusanw01"
inline constexpr int kMaxInflight = 12;
inline constexpr int kMaxSite = 40;
inline constexpr int kMaxErrorMsg = 184;
inline constexpr int kMaxDeadlockEntries = 64;
/// Rank heartbeat stamping interval. Each rank stamps its slot every half
/// interval; the supervisor declares a rank hung after
/// max(8 x interval, 250 ms) without a stamp.
inline constexpr std::chrono::milliseconds kHeartbeatInterval{50};

/// Lifecycle of a rank process, stamped by the rank itself.
enum class RankState : std::uint32_t {
  kStarting = 0,
  kRunning = 1,
  kExited = 2,    ///< rank_main returned; the process is about to _exit(0)
  kAppError = 3,  ///< rank_main threw; error_msg holds what()
};

/// Poison word: why the world was poisoned (header.poison).
enum class Poison : std::uint32_t {
  kNone = 0,
  kDeadlock = 1,
  kRankFailure = 2,
};

struct ShmBlockedOp {
  char op[kMaxSite];
  std::int32_t peer;
  std::int32_t tag;
  std::int32_t comm_id;
  std::uint8_t active;  ///< currently inside a blocking wait
  std::uint8_t soft;    ///< Test-poll streak past the threshold
};

struct ShmInflight {
  std::uint8_t kind;  ///< 0 send, 1 recv
  std::int32_t peer;
  std::int32_t tag;
};

/// Per-rank slot. The seqlock (`ver` odd while writing) covers the
/// descriptive block: site/blocked/in-flight. Heartbeat and state are
/// plain atomics outside it — the heartbeat thread must never contend
/// with the rank thread's seqlock writes.
struct alignas(64) RankSlot {
  std::atomic<std::uint64_t> heartbeat_ns;  ///< common::now_ns stamp
  std::atomic<RankState> state;
  std::atomic<std::uint64_t> result_bytes;  ///< published result-blob size (0 = none)
  std::atomic<std::uint64_t> ver;           ///< seqlock for the block below

  char site[kMaxSite];        ///< last MPI operation entered (user-visible label)
  ShmBlockedOp blocked;
  std::uint32_t inflight_count;  ///< live requests (may exceed the table)
  ShmInflight inflight[kMaxInflight];
  char error_msg[kMaxErrorMsg];  ///< exception text when state == kAppError

  /// rank_kill handshake: the dying rank stamps what fired so the
  /// supervisor can import it into the parent's fired-fault ledger.
  std::atomic<std::uint32_t> kill_fired;  ///< 0 none, 1 record valid
  std::uint32_t kill_action;              ///< faultsim::Action
  std::uint32_t kill_spec_index;          ///< index of the spec in the plan
};

struct ShmDeadlockEntry {
  std::int32_t rank;
  std::int32_t peer;
  std::int32_t tag;
  std::int32_t comm_id;
  std::uint8_t soft;
  char op[kMaxSite];
};

struct ShmDeadlockArea {
  std::uint32_t count;
  ShmDeadlockEntry entries[kMaxDeadlockEntries];
};

/// Failure report area, written in full by the supervisor before the
/// release-store of header.poison = kRankFailure.
struct ShmFailureArea {
  std::int32_t rank;
  std::int32_t kind;       ///< FailureKind
  std::int32_t signal;     ///< terminating signal (0 if none)
  std::int32_t exit_code;  ///< exit status (kind kExitCode)
  std::uint64_t last_heartbeat_ns;
  std::uint64_t detected_ns;
  char site[kMaxSite];
  std::uint32_t inflight_count;
  ShmInflight inflight[kMaxInflight];
};

struct alignas(64) SegHeader {
  std::uint64_t magic;
  std::int32_t world_size;
  std::uint32_t ring_bytes;     ///< per-ring data capacity
  std::uint32_t eager_max;      ///< payloads above this take the rendezvous path
  std::int32_t supervisor_pid;
  std::uint32_t watchdog_ms;    ///< deadlock quiet-time budget (0 = no detection)
  std::atomic<std::uint64_t> progress;   ///< bumped on every message publish/delivery
  std::atomic<Poison> poison;
  std::atomic<std::int32_t> failed_rank; ///< valid when poison == kRankFailure
};

/// Offsets of each region within the segment, derived from the geometry.
struct Layout {
  int world_size{0};
  std::uint32_t ring_bytes{0};
  std::size_t slots_off{0};
  std::size_t deadlock_off{0};
  std::size_t failure_off{0};
  std::size_t rings_off{0};
  std::size_t total_bytes{0};

  [[nodiscard]] static constexpr std::size_t align64(std::size_t n) {
    return (n + 63) / 64 * 64;
  }

  [[nodiscard]] static Layout compute(int world_size, std::uint32_t ring_bytes) {
    Layout l;
    l.world_size = world_size;
    l.ring_bytes = ring_bytes;
    std::size_t off = align64(sizeof(SegHeader));
    l.slots_off = off;
    off = align64(off + sizeof(RankSlot) * static_cast<std::size_t>(world_size));
    l.deadlock_off = off;
    off = align64(off + sizeof(ShmDeadlockArea));
    l.failure_off = off;
    off = align64(off + sizeof(ShmFailureArea));
    l.rings_off = off;
    off += shmring::ring_footprint(ring_bytes) * static_cast<std::size_t>(world_size) *
           static_cast<std::size_t>(world_size);
    l.total_bytes = off;
    return l;
  }

  [[nodiscard]] SegHeader* header(void* base) const {
    return static_cast<SegHeader*>(base);
  }
  [[nodiscard]] RankSlot* slot(void* base, int rank) const {
    return reinterpret_cast<RankSlot*>(static_cast<std::byte*>(base) + slots_off) + rank;
  }
  [[nodiscard]] ShmDeadlockArea* deadlock(void* base) const {
    return reinterpret_cast<ShmDeadlockArea*>(static_cast<std::byte*>(base) + deadlock_off);
  }
  [[nodiscard]] ShmFailureArea* failure(void* base) const {
    return reinterpret_cast<ShmFailureArea*>(static_cast<std::byte*>(base) + failure_off);
  }
  /// Ring carrying messages src → dst.
  [[nodiscard]] shmring::Ring ring(void* base, int src, int dst) const {
    const std::size_t index = static_cast<std::size_t>(src) *
                                  static_cast<std::size_t>(world_size) +
                              static_cast<std::size_t>(dst);
    std::byte* ring_base = static_cast<std::byte*>(base) + rings_off +
                           index * shmring::ring_footprint(ring_bytes);
    return shmring::ring_at(ring_base);
  }
};

static_assert(std::atomic<std::uint64_t>::is_always_lock_free);
static_assert(std::atomic<RankState>::is_always_lock_free);
static_assert(std::atomic<Poison>::is_always_lock_free);

}  // namespace mpisim::shmlayout
