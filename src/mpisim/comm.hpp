// The simulator's communicator: point-to-point messaging with MPI matching
// semantics (source/tag matching incl. wildcards, FIFO per channel, eager
// buffered sends, posted-receive + unexpected-message queues) and tree
// collectives (binomial barrier/bcast/reduce/gather/scatter, recursive-
// doubling allreduce/allgather) built on the same p2p engine with reserved
// internal tags.
//
// Internally the engine is sharded: one mailbox per destination rank with
// its own lock and per-source FIFO sub-queues (ANY_SOURCE takes a
// documented scan-all-channels slow path ordered by a channel epoch
// counter), and completions wake only the involved rank via its waiter
// slot — the sole broadcast wakeup is deadlock declaration/poisoning. See
// docs/architecture.md ("Communication engine") and mpisim/counters.hpp
// for the observable contention counters.
//
// Ranks run as threads within one process (see world.hpp); buffers may be
// cusim device pointers — like a CUDA-aware MPI library, the engine copies
// from/to them directly without any stream synchronization, which is
// precisely the behaviour that makes user-side synchronization mandatory
// (paper §III-D).
#pragma once

#include <cstdint>
#include <span>
#include <memory>

#include "mpisim/datatype.hpp"
#include "mpisim/deadlock.hpp"

namespace mpisim {

enum class MpiError : int {
  kSuccess = 0,
  kTruncate,     ///< message longer than the posted receive buffer
  kInvalidArg,
  kInvalidRank,
  kRequestNull,
  kDeadlock,     ///< watchdog declared a deadlock; the blocking call was abandoned
  kRankFailed,   ///< a peer rank died (proc backend); comms are poisoned ULFM-style
  kOther,        ///< injected fault (MPI_ERR_OTHER)
};

[[nodiscard]] constexpr const char* to_string(MpiError e) {
  switch (e) {
    case MpiError::kSuccess:
      return "MPI_SUCCESS";
    case MpiError::kTruncate:
      return "MPI_ERR_TRUNCATE";
    case MpiError::kInvalidArg:
      return "MPI_ERR_ARG";
    case MpiError::kInvalidRank:
      return "MPI_ERR_RANK";
    case MpiError::kRequestNull:
      return "MPI_ERR_REQUEST";
    case MpiError::kDeadlock:
      return "MPI_ERR_DEADLOCK";
    case MpiError::kRankFailed:
      return "MPI_ERR_PROC_FAILED";
    case MpiError::kOther:
      return "MPI_ERR_OTHER";
  }
  return "?";
}

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

struct Status {
  int source{-1};
  int tag{-1};
  std::size_t received_bytes{};
  MpiError error{MpiError::kSuccess};
  /// The sender's scalar type signature differs from the receiver's (MPI
  /// makes this erroneous but delivers bytes anyway; MUST reports it).
  bool signature_mismatch{false};
};

class Request;
class CommImpl;
class WaiterHub;

/// The thread backend's world communicator over `table`'s and `hub`'s ranks
/// (used by World; applications normally never call this directly).
[[nodiscard]] std::shared_ptr<CommImpl> make_comm_impl(std::shared_ptr<BlockedTable> table,
                                                       std::shared_ptr<WaiterHub> hub);

/// A rank's view of a communicator (lightweight value handle).
class Comm {
 public:
  Comm() = default;
  Comm(std::shared_ptr<CommImpl> impl, int rank) : impl_(std::move(impl)), rank_(rank) {}

  [[nodiscard]] bool valid() const { return impl_ != nullptr; }
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const;

  /// MPI_Comm_dup: collective; every rank's k-th dup call yields a handle to
  /// the same fresh communication context, fully isolated from the parent
  /// (its own matching queues).
  MpiError dup(Comm* out);

  // -- Point-to-point -----------------------------------------------------------

  MpiError send(const void* buf, std::size_t count, const Datatype& type, int dest, int tag);
  MpiError recv(void* buf, std::size_t count, const Datatype& type, int source, int tag,
                Status* status = nullptr);
  MpiError isend(const void* buf, std::size_t count, const Datatype& type, int dest, int tag,
                 Request** request);
  MpiError irecv(void* buf, std::size_t count, const Datatype& type, int source, int tag,
                 Request** request);

  /// Completes the request, frees it and nulls the handle (MPI_Wait).
  MpiError wait(Request** request, Status* status = nullptr);
  /// Non-blocking completion check; on completion behaves like wait.
  MpiError test(Request** request, bool* completed, Status* status = nullptr);
  MpiError waitall(std::span<Request*> requests);
  /// Blocks until any request completes; completes it (like wait) and
  /// reports its position in `index`. All-null input yields kRequestNull.
  MpiError waitany(std::span<Request*> requests, int* index, Status* status = nullptr);

  /// Block until a matching message is available without receiving it
  /// (MPI_Probe). Wildcards allowed; status reports the actual envelope.
  MpiError probe(int source, int tag, Status* status);
  /// Non-blocking probe (MPI_Iprobe).
  MpiError iprobe(int source, int tag, bool* flag, Status* status = nullptr);

  MpiError sendrecv(const void* sendbuf, std::size_t sendcount, const Datatype& sendtype,
                    int dest, int sendtag, void* recvbuf, std::size_t recvcount,
                    const Datatype& recvtype, int source, int recvtag,
                    Status* status = nullptr);

  // -- Collectives -----------------------------------------------------------------

  MpiError barrier();
  MpiError bcast(void* buf, std::size_t count, const Datatype& type, int root);
  MpiError reduce(const void* sendbuf, void* recvbuf, std::size_t count, const Datatype& type,
                  ReduceOp op, int root);
  MpiError allreduce(const void* sendbuf, void* recvbuf, std::size_t count, const Datatype& type,
                     ReduceOp op);
  /// Gather `count` elements from every rank into recvbuf (size*count
  /// elements, ordered by rank) on every rank.
  MpiError allgather(const void* sendbuf, std::size_t count, const Datatype& type, void* recvbuf);
  /// Gather `count` elements from every rank at `root` (recvbuf used only
  /// there, size*count elements ordered by rank).
  MpiError gather(const void* sendbuf, std::size_t count, const Datatype& type, void* recvbuf,
                  int root);
  /// Scatter size*count elements from `root`'s sendbuf: rank r receives
  /// slice r (`count` elements) into recvbuf.
  MpiError scatter(const void* sendbuf, std::size_t count, const Datatype& type, void* recvbuf,
                   int root);

  // -- Deadlock diagnosis -----------------------------------------------------------

  /// True once the progress watchdog declared a deadlock on this
  /// communicator's world. All blocking calls then return kDeadlock.
  [[nodiscard]] bool deadlock_detected() const;
  /// The per-rank blocked-op table captured at declaration time (empty if
  /// no deadlock was declared).
  [[nodiscard]] DeadlockReport deadlock_report() const;
  /// One-line summary of the rank failure that poisoned this world ("" when
  /// none; only the proc backend can observe one).
  [[nodiscard]] std::string failure_summary() const;

 private:
  [[nodiscard]] bool rank_valid(int r) const { return r >= 0 && r < size(); }

  std::shared_ptr<CommImpl> impl_;
  int rank_{-1};
};

}  // namespace mpisim
