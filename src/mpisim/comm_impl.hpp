// The backend interface behind Comm. Everything above this line — argument
// validation, fault-plan consultation, OpScope labelling and all the tree
// collectives — lives in Comm and is backend-agnostic. MPI matching (source
// and tag wildcards, oldest-first order, truncation, type signatures, the
// wildcard-receive schedule decision) lives in matching.hpp, and the request
// half (the wait/test epilogue, waitany's pick) and the rank's part of the
// progress watchdog (MPI_Test's soft-block streak, stall faults) in the
// helpers below. A backend implements only transport, locking and
// blocking: getting a message to its destination's Mailbox, serializing
// access to it, publishing a blocked rank into its blocked-rank table
// (deadlock.hpp), and parking it until its operation completes or the
// world's declarer declares a deadlock.
//
// Two backends exist:
//   * ThreadCommImpl (comm.cpp)      — ranks as threads, one locked Mailbox
//     per destination rank, targeted wakeups. The default.
//   * ProcCommImpl   (proc_comm.cpp) — ranks as forked processes, unlocked
//     per-process mailboxes fed by shared-memory rings, polling waits,
//     supervised failure detection.
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "mpisim/comm.hpp"
#include "mpisim/op_scope.hpp"
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
  /// Past kSoftBlockThreshold incomplete Tests in a row the rank counts as
  /// soft-blocked: it cannot make progress by itself, and a Test-polling
  /// rank must not mask a deadlock forever.
  MpiError test(int rank, Request** request, bool* completed, Status* status);
  virtual MpiError waitany(int rank, std::span<Request*> requests, int* index,
                           Status* status) = 0;
  virtual MpiError probe(int rank, int source, int tag, bool blocking, bool* flag,
                         Status* status) = 0;
  /// Eager sends complete on the posting rank itself: the owner cannot be
  /// waiting on the request yet, so no wakeup is needed.
  virtual void complete_send_request(Request* req, std::size_t bytes) = 0;
  /// An injected `stall` fault: park the calling rank as if the operation
  /// never completed, until the watchdog declares a deadlock. With no
  /// declarer watching the world the stall degrades to a synchronous
  /// failure (no hang).
  MpiError stall(int rank, const char* op_name, int peer, int tag, std::uint64_t fault_id);

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

  /// Complete a request with its final status: a delivered receive (from
  /// whichever thread ran the match) or an eager send.
  static void publish_status(Request* req, const Status& st) {
    req->status_ = st;
    req->complete_.store(true, std::memory_order_release);
  }

 protected:
  explicit CommImpl(int size) : live_(static_cast<std::size_t>(size), nullptr) {}

  [[nodiscard]] static bool request_complete(const Request* req) { return req->complete(); }

  // The backend's part of the watchdog, under test() and stall().

  /// The error every call returns once the world is poisoned (kSuccess: not
  /// poisoned). Only the proc backend can be poisoned by a rank failure.
  [[nodiscard]] virtual MpiError poison() const {
    return deadlocked() ? MpiError::kDeadlock : MpiError::kSuccess;
  }
  /// A declarer applies the rule to this world (its timeout is positive).
  [[nodiscard]] virtual bool watched() const = 0;
  /// Publish `rank` as soft-blocked (Test-polling) in `label` into the
  /// backend's blocked-rank table, and withdraw it again.
  virtual void publish_soft_block(int rank, const char* label, int peer, int tag) = 0;
  virtual void clear_blocked(int rank) = 0;
  /// Park `rank`, published as blocked in `label`, until the world is
  /// poisoned; returns the poison error.
  virtual MpiError park(int rank, const char* label, int peer, int tag) = 0;
  /// The rank's Test-poll streak: one per rank of the world, shared by all
  /// its communicators.
  [[nodiscard]] virtual TestStreak& test_streak(int rank) = 0;
  /// Make progress without blocking before MPI_Test reads its request.
  virtual void poll(int rank) { (void)rank; }

  /// Reset the rank's Test-poll streak (and withdraw its soft block): the
  /// rank just made or observed progress, or entered a real blocking call.
  void clear_soft(int rank) {
    TestStreak& streak = test_streak(rank);
    streak.polls = 0;
    if (streak.soft) {
      streak.soft = false;
      clear_blocked(rank);
    }
  }

  // The request half both backends share. `block(label, peer, tag, pred)`
  // is the backend's blocking primitive: it parks the calling rank until
  // `pred()` holds and returns kSuccess, or returns the error that ended the
  // wait (a declared deadlock, a poisoned world).

  /// The epilogue of a completed wait or test: report the status, free the
  /// request and null the handle.
  static MpiError finish(Request** request, Status* status, bool* completed = nullptr) {
    Request* req = *request;
    const Status st = req->status_;
    if (completed != nullptr) {
      *completed = true;
    }
    if (status != nullptr) {
      *status = st;
    }
    delete req;
    *request = nullptr;
    return st.error;
  }

  /// The epilogue of a blocking call whose wait ended in `error`.
  static MpiError abandon(Status* status, MpiError error) {
    if (status != nullptr) {
      *status = Status{};
      status->error = error;
    }
    return error;
  }

  template <typename Block>
  static MpiError wait_with(Request** request, Status* status, Block&& block) {
    if (request == nullptr || *request == nullptr) {
      return MpiError::kRequestNull;
    }
    const Request* req = *request;
    const MpiError blocked = block(current_op_label("MPI_Wait"), req->peer(), req->tag(),
                                   [req] { return req->complete(); });
    if (blocked != MpiError::kSuccess) {
      // The request stays pending (it can never complete); MUST's
      // finalize-time leak check will see and report it.
      return abandon(status, blocked);
    }
    return finish(request, status);
  }

  /// Blocks until any request completes, then completes it with this
  /// backend's wait. A blocked waitany reports the first live request's
  /// envelope.
  template <typename Block>
  MpiError waitany_with(int rank, std::span<Request*> requests, int* index, Status* status,
                        Block&& block) {
    if (index == nullptr) {
      return MpiError::kInvalidArg;
    }
    *index = -1;
    const auto first = std::find_if(requests.begin(), requests.end(),
                                    [](const Request* req) { return req != nullptr; });
    if (first == requests.end()) {
      return MpiError::kRequestNull;
    }
    const MpiError blocked =
        block(current_op_label("MPI_Waitany"), (*first)->peer(), (*first)->tag(), [&] {
          *index = first_complete(requests);
          return *index >= 0;
        });
    if (blocked != MpiError::kSuccess) {
      return abandon(status, blocked);
    }
    *index = waitany_pick(rank, requests, *index);
    return wait(rank, &requests[static_cast<std::size_t>(*index)], status);
  }

  /// MPI_Probe / MPI_Iprobe over the backend's `peek()`, which returns the
  /// envelope of a matching queued message (std::nullopt: none yet).
  template <typename Peek, typename Block>
  static MpiError probe_with(int source, int tag, bool blocking, bool* flag, Status* status,
                             Peek&& peek, Block&& block) {
    std::optional<Status> envelope = peek();
    if (!blocking) {
      if (flag != nullptr) {
        *flag = envelope.has_value();
      }
    } else if (!envelope.has_value()) {
      const MpiError blocked = block(current_op_label("MPI_Probe"), source, tag, [&] {
        envelope = peek();
        return envelope.has_value();
      });
      if (blocked != MpiError::kSuccess) {
        return abandon(status, blocked);
      }
    }
    if (envelope.has_value() && status != nullptr) {
      *status = *envelope;
    }
    return MpiError::kSuccess;
  }

 private:
  /// Position of the first completed request (-1: none).
  [[nodiscard]] static int first_complete(std::span<Request* const> requests) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (requests[i] != nullptr && requests[i]->complete()) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  /// The request waitany completes, given the first completed one. MPI lets
  /// waitany return *any* completed request; the free schedule takes the
  /// lowest index, and under exploration the schedule controller picks
  /// among every completed request (a re-scan only ever adds candidates,
  /// so a recorded choice stays valid on replay).
  [[nodiscard]] static int waitany_pick(int rank, std::span<Request* const> requests,
                                        int first);

  /// Per-rank head of the outstanding-request list.
  std::vector<Request*> live_;
};

}  // namespace mpisim
