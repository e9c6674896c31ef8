// The backend interface behind Comm. Everything above this line — argument
// validation, fault-plan consultation, OpScope labelling and all the tree
// collectives — lives in Comm and is backend-agnostic; a backend only
// implements the point-to-point surface below with MPI matching semantics
// (source/tag matching incl. wildcards, FIFO per channel, eager buffered
// sends, posted-receive + unexpected-message queues).
//
// Two backends exist:
//   * ThreadCommImpl (comm.cpp)      — ranks as threads, sharded in-process
//     mailboxes with targeted wakeups. The default.
//   * ProcCommImpl   (proc_comm.cpp) — ranks as forked processes, mailboxes
//     fed by shared-memory rings, supervised failure detection.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "mpisim/comm.hpp"
#include "mpisim/request.hpp"

namespace mpisim {

class CommImpl {
 public:
  CommImpl(const CommImpl&) = delete;
  CommImpl& operator=(const CommImpl&) = delete;
  /// Reclaims the requests the ranks never completed (MPI_Finalize
  /// semantics). Runs once every rank handle is gone, after the tools'
  /// finalize hooks have read their outstanding requests.
  virtual ~CommImpl() {
    for (Request*& head : live_) {
      while (head != nullptr) {
        delete head;  // unlinks itself, advancing head
      }
    }
  }

  [[nodiscard]] virtual int size() const = 0;
  [[nodiscard]] virtual int comm_id() const = 0;

  /// True once the progress watchdog declared a deadlock on this world.
  [[nodiscard]] virtual bool deadlocked() const = 0;
  [[nodiscard]] virtual DeadlockReport deadlock_report() const = 0;

  /// One-line summary of the rank failure that poisoned this world ("" when
  /// none). Only the proc backend can observe one.
  [[nodiscard]] virtual std::string failure_summary() const { return {}; }

  /// The rank's k-th dup call maps to child context k (MPI's same-order
  /// collective-call requirement makes the indices agree across ranks).
  [[nodiscard]] virtual std::shared_ptr<CommImpl> dup_for_rank(int rank) = 0;

  virtual MpiError post_send(int src, int dest, int tag, const void* buf, std::size_t count,
                             const Datatype& type) = 0;
  virtual MpiError post_recv(int dest, int source, int tag, void* buf, std::size_t count,
                             const Datatype& type, Request* request) = 0;
  virtual MpiError wait(int rank, Request** request, Status* status) = 0;
  virtual MpiError test(int rank, Request** request, bool* completed, Status* status) = 0;
  virtual MpiError waitany(int rank, std::span<Request*> requests, int* index,
                           Status* status) = 0;
  virtual MpiError probe(int rank, int source, int tag, bool blocking, bool* flag,
                         Status* status) = 0;
  /// Eager sends complete on the posting rank itself: the owner cannot be
  /// waiting on the request yet, so no wakeup is needed.
  virtual void complete_send_request(Request* req, std::size_t bytes) = 0;
  /// An injected `stall` fault: park the calling rank as if the operation
  /// never completed, until the watchdog declares a deadlock.
  virtual MpiError stall(int rank, const char* op_name, int peer, int tag,
                         std::uint64_t fault_id) = 0;

  /// Requests are constructed through the base so the Request friendship
  /// stays with this one class. The request joins `owner`'s list of
  /// outstanding requests until it is deleted.
  [[nodiscard]] Request* make_request(int owner, Request::Kind kind, const void* buf,
                                      std::size_t count, const Datatype& type, int peer,
                                      int tag) {
    auto* req = new Request(kind, buf, count, type, peer, tag);
    Request*& head = live_[static_cast<std::size_t>(owner)];
    req->live_head_ = &head;
    req->live_next_ = head;
    if (head != nullptr) {
      head->live_prev_ = req;
    }
    head = req;
    return req;
  }

 protected:
  explicit CommImpl(int size) : live_(static_cast<std::size_t>(size), nullptr) {}

  // Derived backends complete requests and read their envelopes through
  // these helpers (same reason as make_request).
  static void publish_status(Request* req, const Status& st) {
    req->status_ = st;
    req->complete_.store(true, std::memory_order_release);
  }
  [[nodiscard]] static const Status& request_status(const Request* req) { return req->status_; }
  [[nodiscard]] static bool request_complete(const Request* req) { return req->complete(); }
  [[nodiscard]] static int request_peer(const Request* req) { return req->peer_; }
  [[nodiscard]] static int request_tag(const Request* req) { return req->tag_; }

 private:
  /// Per-rank head of the outstanding-request list.
  std::vector<Request*> live_;
};

}  // namespace mpisim
