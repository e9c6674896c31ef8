// Non-blocking communication requests. Requests are heap-allocated by
// isend/irecv and destroyed by wait/test-success; the pointer value serves
// as MUST's stable key for its request-fiber mapping. A request the program
// never completes is reclaimed when its communicator is torn down, as
// MPI_Finalize would.
#pragma once

#include <atomic>

#include "mpisim/comm.hpp"

namespace mpisim {

class Request {
 public:
  enum class Kind : std::uint8_t { kSend, kRecv };

  [[nodiscard]] Kind kind() const { return kind_; }
  /// The user buffer of the operation (send or recv side).
  [[nodiscard]] const void* buffer() const { return buffer_; }
  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] const Datatype& datatype() const { return type_; }
  /// Envelope (dest for sends, source for recvs; wildcards stay -1) — used
  /// by the deadlock watchdog's blocked-op diagnostics.
  [[nodiscard]] int peer() const { return peer_; }
  [[nodiscard]] int tag() const { return tag_; }

  ~Request() {
    if (live_prev_ != nullptr) {
      live_prev_->live_next_ = live_next_;
    } else if (live_head_ != nullptr) {
      *live_head_ = live_next_;
    }
    if (live_next_ != nullptr) {
      live_next_->live_prev_ = live_prev_;
    }
  }

 private:
  friend class CommImpl;

  Request(Kind kind, const void* buffer, std::size_t count, Datatype type, int peer, int tag)
      : kind_(kind), buffer_(buffer), count_(count), type_(std::move(type)), peer_(peer),
        tag_(tag) {}

  /// Completion flag. The completer writes status_ first, then stores true
  /// with release; the owning rank loads with acquire before reading
  /// status_ or deleting the request. Only the posting rank ever waits on,
  /// tests or frees a request, so no further synchronization is needed.
  [[nodiscard]] bool complete() const { return complete_.load(std::memory_order_acquire); }

  Kind kind_;
  const void* buffer_;
  std::size_t count_;
  Datatype type_;
  int peer_{-1};
  int tag_{-1};
  std::atomic<bool> complete_{false};
  Status status_{};  ///< published by the release-store on complete_
  /// Links in the owning rank's list of outstanding requests (CommImpl);
  /// only that rank links or unlinks, so no lock is needed.
  Request** live_head_{nullptr};
  Request* live_prev_{nullptr};
  Request* live_next_{nullptr};
};

}  // namespace mpisim
