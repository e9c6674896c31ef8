#include "mpisim/comm.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "common/clock.hpp"
#include "faultsim/injector.hpp"
#include "mpisim/comm_impl.hpp"
#include "mpisim/counters.hpp"
#include "mpisim/matching.hpp"
#include "mpisim/op_scope.hpp"
#include "mpisim/request.hpp"
#include "mpisim/wakeup.hpp"
#include "obs/ring.hpp"
#include "schedsim/controller.hpp"

namespace mpisim {

// Internal tags used by the collective tree implementations. User tags are
// required to be >= 0, so the reserved range can never collide.
namespace {
constexpr int kTagBarrierIn = -100;
constexpr int kTagBarrierOut = -101;
constexpr int kTagBcast = -102;
constexpr int kTagReduce = -103;
constexpr int kTagGather = -104;
constexpr int kTagScatter = -105;
constexpr int kTagAllreduce = -106;
constexpr int kTagAllgather = -107;

/// How often a blocked thread re-checks the watchdog condition.
constexpr auto kWatchdogPoll = std::chrono::milliseconds(5);
/// Predicate re-checks (with sched yields) before parking on the waiter
/// slot. On an oversubscribed host the peer usually completes the operation
/// within one timeslice, so yielding first avoids the two futex transitions
/// of a condvar park on the hot path.
constexpr int kParkSpinYields = 4;

// OpScope / current_op_label moved to mpisim/op_scope.hpp (shared with the
// proc backend).

/// Watchdog timeout in the shared monotonic-clock unit (common::now_ns).
[[nodiscard]] std::uint64_t timeout_as_ns(std::chrono::milliseconds timeout) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(timeout).count());
}

}  // namespace

// The sharded in-process transport (thread backend). One Mailbox
// (matching.hpp) per destination rank, each under its own lock; the sender's
// thread runs the match and the delivery. A completion signals only the
// involved rank's WaiterSlot; the sole broadcast is deadlock
// declaration/poisoning, which every blocked rank must observe.
class ThreadCommImpl final : public CommImpl {
 public:
  ThreadCommImpl(int size, std::shared_ptr<ProgressTracker> tracker, int comm_id,
                 std::shared_ptr<WaiterHub> hub)
      : CommImpl(size),
        size_(size),
        tracker_(std::move(tracker)),
        comm_id_(comm_id),
        hub_(std::move(hub)),
        rank_local_(static_cast<std::size_t>(size)),
        dup_counts_(static_cast<std::size_t>(size), 0) {
    shards_.reserve(static_cast<std::size_t>(size));
    for (int r = 0; r < size; ++r) {
      shards_.push_back(std::make_unique<Shard>(size));
    }
  }

  [[nodiscard]] int size() const override { return size_; }
  [[nodiscard]] int comm_id() const override { return comm_id_; }

  [[nodiscard]] bool deadlocked() const override {
    return tracker_ != nullptr && tracker_->deadlocked();
  }

  [[nodiscard]] DeadlockReport deadlock_report() const override {
    return tracker_ != nullptr ? tracker_->report() : DeadlockReport{};
  }

 private:
  [[nodiscard]] BlockedOp blocked_op(int rank, const char* label, int peer, int tag) const {
    BlockedOp op;
    op.rank = rank;
    op.op = label;
    op.peer = peer;
    op.tag = tag;
    op.comm_id = comm_id_;
    return op;
  }

  /// The blocking primitive of the shared request helpers (CommImpl).
  [[nodiscard]] auto blocker(int rank) {
    return [this, rank](const char* label, int peer, int tag, auto&& pred) {
      return blocked_wait(blocked_op(rank, label, peer, tag), pred);
    };
  }

 public:
  MpiError post_send(int src, int dest, int tag, const void* buf, std::size_t count,
                     const Datatype& type) override {
    Message msg;
    msg.src = src;
    msg.tag = tag;
    // Pack outside any lock: only the queue manipulation is serialized.
    msg.payload.resize(type.packed_size() * count);
    type.pack(buf, count, msg.payload.data());
    type.signature(count, msg.signature);

    clear_soft(src);
    Shard& shard = *shards_[static_cast<std::size_t>(dest)];
    {
      MailboxLock lock(shard);
      if (std::optional<PostedRecv> posted = shard.box.take_posted(src, tag)) {
        complete(*posted, deliver(msg, *posted));
      } else {
        shard.box.queue_unexpected(std::move(msg));
        note_progress();  // a blocked probe/recv poster may now match
      }
    }
    // Targeted wakeup: only the destination rank can be waiting on this
    // mailbox (its recv/probe/wait predicates), so only its slot is poked.
    hub_->slot(dest).signal();
    return MpiError::kSuccess;
  }

  MpiError post_recv(int dest, int source, int tag, void* buf, std::size_t count,
                     const Datatype& type, Request* request) override {
    PostedRecv posted{source, tag, 0, buf, count, type, request};
    clear_soft(dest);
    Shard& shard = *shards_[static_cast<std::size_t>(dest)];
    MailboxLock lock(shard);
    if (std::optional<Message> msg = shard.box.take_unexpected(dest, source, tag)) {
      complete(posted, deliver(*msg, posted));
    } else {
      shard.box.post(std::move(posted));
    }
    return MpiError::kSuccess;
  }

  MpiError wait(int rank, Request** request, Status* status) override {
    return wait_with(request, status, blocker(rank));
  }

  MpiError test(int rank, Request** request, bool* completed, Status* status) override {
    if (request == nullptr || *request == nullptr) {
      return MpiError::kRequestNull;
    }
    Request* req = *request;
    if (!request_complete(req)) {
      if (completed != nullptr) {
        *completed = false;
      }
      if (deadlocked()) {
        return MpiError::kDeadlock;
      }
      // A rank spinning on an incomplete Test cannot make progress by
      // itself: after a burst of fruitless polls it counts as (soft)
      // blocked so a Test-polling rank doesn't mask a deadlock forever.
      // The streak state is only ever touched by the owning rank's thread.
      RankLocal& rl = rank_local_[static_cast<std::size_t>(rank)];
      if (tracker_ != nullptr && ++rl.test_polls >= kSoftBlockThreshold) {
        if (!rl.soft_blocked) {
          tracker_->soft_block(blocked_op(rank, current_op_label("MPI_Test"), req->peer(),
                                          req->tag()));
          rl.soft_blocked = true;
          rl.soft_snapshot = tracker_->progress();
          rl.soft_quiet_since = common::now_ns();
        } else if (tracker_->timeout().count() > 0) {
          // A soft-blocked rank may be the only live thread (everyone else
          // hard-blocked or exited): it must drive declaration itself, or an
          // all-Test-polling deadlock would spin forever.
          const std::uint64_t progress = tracker_->progress();
          const std::uint64_t now = common::now_ns();
          if (progress != rl.soft_snapshot) {
            rl.soft_snapshot = progress;
            rl.soft_quiet_since = now;
          } else if (now - rl.soft_quiet_since >= timeout_as_ns(tracker_->timeout())) {
            if (tracker_->try_declare(rl.soft_snapshot)) {
              hub_->broadcast();  // poisoning: every blocked rank must see it
              return MpiError::kDeadlock;
            }
            rl.soft_quiet_since = now;
          }
        }
      }
      return MpiError::kSuccess;
    }
    clear_soft(rank);
    return finish(request, status, completed);
  }

  MpiError waitany(int rank, std::span<Request*> requests, int* index, Status* status) override {
    return waitany_with(rank, requests, index, status, blocker(rank));
  }

  MpiError probe(int rank, int source, int tag, bool blocking, bool* flag,
                 Status* status) override {
    Shard& shard = *shards_[static_cast<std::size_t>(rank)];
    // Envelope snapshot: the matched message cannot be referenced outside
    // the mailbox lock (the owning rank could consume it), so peek copies
    // what Status needs while holding it.
    const auto peek = [&] {
      MailboxLock lock(shard);
      return shard.box.peek(source, tag);
    };
    return probe_with(source, tag, blocking, flag, status, peek, blocker(rank));
  }

  /// Eager sends complete on the posting thread itself: the owner cannot be
  /// waiting on the request yet, so no wakeup is needed.
  void complete_send_request(Request* req, std::size_t bytes) override {
    publish_status(req, Status{-1, -1, bytes, MpiError::kSuccess});
    note_progress();
  }

  /// An injected `stall` fault: park the calling rank as if the operation
  /// never completed, until the watchdog declares a deadlock. With no
  /// tracker the stall degrades to a synchronous failure (no hang).
  MpiError stall(int rank, const char* op_name, int peer, int tag,
                 std::uint64_t fault_id) override {
    auto& injector = faultsim::Injector::instance();
    if (tracker_ != nullptr && tracker_->timeout().count() > 0) {
      const std::string label = std::string(op_name) + " [stalled by fault plan]";
      const MpiError err =
          blocked_wait(blocked_op(rank, label.c_str(), peer, tag), [] { return false; });
      injector.mark_surfaced(fault_id, faultsim::Channel::kDeadlockReport);
      return err;
    }
    injector.mark_surfaced(fault_id, faultsim::Channel::kApiError);
    return MpiError::kOther;
  }

 private:
  /// Per-destination shard: the destination's Mailbox under its own lock.
  /// Cacheline-aligned so neighbouring shards don't false-share.
  struct alignas(64) Shard {
    explicit Shard(int size) : box(size) {}
    std::mutex mutex;
    Mailbox box;  ///< guarded by mutex
  };

  class MailboxLock {
   public:
    explicit MailboxLock(Shard& shard) : lock_(shard.mutex) {
      detail::contention("mpisim.mailbox_locks").increment();
    }

   private:
    std::lock_guard<std::mutex> lock_;
  };

  /// Per-rank Test-poll streak. Only the owning rank's thread reads or
  /// writes its entry, so no lock is needed; padding avoids false sharing.
  struct alignas(64) RankLocal {
    int test_polls{0};
    bool soft_blocked{false};
    std::uint64_t soft_snapshot{0};
    std::uint64_t soft_quiet_since{0};  ///< common::now_ns timestamp
  };

  /// Complete a matched receive. Caller holds the destination mailbox lock.
  void complete(const PostedRecv& posted, const Status& st) {
    publish_status(posted.request, st);
    note_progress();
  }

  void note_progress() {
    if (tracker_ != nullptr) {
      tracker_->note_progress();
    }
  }

  /// Reset the rank's Test-poll streak (and soft-block registration): the
  /// rank just made or observed progress, or entered a real blocking call.
  void clear_soft(int rank) {
    if (rank < 0 || rank >= size_) {
      return;
    }
    RankLocal& rl = rank_local_[static_cast<std::size_t>(rank)];
    rl.test_polls = 0;
    if (rl.soft_blocked) {
      rl.soft_blocked = false;
      if (tracker_ != nullptr) {
        tracker_->soft_unblock(rank);
      }
    }
  }

  /// Block the rank until `pred` holds, parking on its WaiterSlot and
  /// participating in the progress watchdog: the blocked op is registered,
  /// the park re-checks periodically, and when every live rank is blocked
  /// with no progress for the timeout the wait returns kDeadlock instead of
  /// hanging. `pred` is evaluated with no locks held by this function; it
  /// may take mailbox locks or read request completion atomics. Templated
  /// over the predicate so the hot path allocates no std::function.
  template <typename Pred>
  MpiError blocked_wait(const BlockedOp& op, Pred&& pred) {
    clear_soft(op.rank);
    if (pred()) {
      return MpiError::kSuccess;
    }
    // Pre-park yield phase: on an oversubscribed host the peer usually
    // finishes within a timeslice, making the condvar round-trip (two futex
    // syscalls plus a scheduler wakeup) the dominant cost of a wait. The
    // count only changes timing, never which message matches or which
    // request completes, so it is not a schedule decision.
    for (int i = 0; i < kParkSpinYields; ++i) {
      std::this_thread::yield();
      if (pred()) {
        return MpiError::kSuccess;
      }
    }
    WaiterSlot& slot = hub_->slot(op.rank);
    if (tracker_ == nullptr || tracker_->timeout().count() <= 0) {
      std::uint64_t seen = slot.epoch();
      while (!pred()) {
        seen = slot.wait(seen);
      }
      return MpiError::kSuccess;
    }
    if (tracker_->deadlocked()) {
      return MpiError::kDeadlock;
    }
    tracker_->block(op);
    MpiError result = MpiError::kSuccess;
    std::uint64_t snapshot = tracker_->progress();
    std::uint64_t quiet_since = common::now_ns();
    std::uint64_t seen = slot.epoch();
    while (true) {
      if (pred()) {
        break;
      }
      if (tracker_->deadlocked()) {
        result = MpiError::kDeadlock;
        break;
      }
      const std::uint64_t woke = slot.wait(seen, kWatchdogPoll);
      const bool signalled = woke != seen;
      seen = woke;
      if (pred()) {
        break;
      }
      if (signalled) {
        // Signalled but the predicate is still false: the wakeup was for a
        // different condition (e.g. an unexpected message this rank's recv
        // doesn't match). With the old notify_all engine this was the norm;
        // now it is the exception the counter makes visible.
        detail::contention("mpisim.wakeups_spurious").increment();
      }
      if (tracker_->deadlocked()) {
        result = MpiError::kDeadlock;
        break;
      }
      const std::uint64_t progress = tracker_->progress();
      const std::uint64_t now = common::now_ns();
      if (progress != snapshot) {
        snapshot = progress;
        quiet_since = now;
        continue;
      }
      if (now - quiet_since >= timeout_as_ns(tracker_->timeout())) {
        if (tracker_->try_declare(snapshot)) {
          hub_->broadcast();  // wake peers so they observe the declaration
          result = MpiError::kDeadlock;
          break;
        }
        // Not a deadlock (some rank is still running); keep waiting.
        quiet_since = now;
      }
    }
    tracker_->unblock(op.rank);
    return result;
  }

  int size_;
  std::shared_ptr<ProgressTracker> tracker_;
  int comm_id_;
  std::shared_ptr<WaiterHub> hub_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<RankLocal> rank_local_;

 public:
  /// The rank's k-th dup call maps to child context k (MPI's same-order
  /// collective-call requirement makes the indices agree across ranks).
  /// Children share the parent's progress tracker AND waiter hub: a
  /// deadlock spanning communicators is still a deadlock of the one world,
  /// and a rank blocked on one communicator must be wakeable from another.
  std::shared_ptr<CommImpl> dup_for_rank(int rank) override {
    std::lock_guard lock(dup_mutex_);
    const std::size_t k = dup_counts_[static_cast<std::size_t>(rank)]++;
    if (k >= children_.size()) {
      children_.push_back(std::make_shared<ThreadCommImpl>(
          size_, tracker_, comm_id_ + static_cast<int>(k) + 1, hub_));
    }
    return children_[k];
  }

 private:
  std::mutex dup_mutex_;
  std::vector<std::size_t> dup_counts_;
  std::vector<std::shared_ptr<ThreadCommImpl>> children_;
};

int CommImpl::waitany_pick(int rank, std::span<Request* const> requests, int first) {
  if (!schedsim::Controller::armed()) {
    return first;
  }
  std::vector<int> complete;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i] != nullptr && request_complete(requests[i])) {
      complete.push_back(static_cast<int>(i));
    }
  }
  if (complete.size() < 2) {
    return first;
  }
  const int pick = schedsim::Controller::instance().choose(schedsim::Site::kWaitany, rank,
                                                           static_cast<int>(complete.size()), 0);
  return complete[static_cast<std::size_t>(pick)];
}

std::shared_ptr<CommImpl> make_comm_impl(int size) {
  return make_comm_impl(size, nullptr);
}

std::shared_ptr<CommImpl> make_comm_impl(int size, std::shared_ptr<ProgressTracker> tracker) {
  CUSAN_ASSERT(size > 0);
  return std::make_shared<ThreadCommImpl>(size, std::move(tracker), /*comm_id=*/0,
                                          std::make_shared<WaiterHub>(size));
}

// -- Comm: fault-plan consultation -------------------------------------------------

namespace {

/// Probe the fault plan for an outermost MPI call. Returns kSuccess when the
/// call should proceed normally (possibly after a delay); anything else is
/// the error the call must return.
MpiError consult_fault(CommImpl* impl, int rank, faultsim::Site site, const char* op_name,
                       int peer, int tag, bool outermost) {
  if (!outermost || !faultsim::Injector::armed()) {
    return MpiError::kSuccess;
  }
  faultsim::SiteContext where;
  where.rank = rank;
  auto& injector = faultsim::Injector::instance();
  const auto fired = injector.probe(site, where);
  if (!fired) {
    return MpiError::kSuccess;
  }
  switch (fired->action) {
    case faultsim::Action::kDelay:
      std::this_thread::sleep_for(fired->delay);
      return MpiError::kSuccess;
    case faultsim::Action::kStall:
      return impl->stall(rank, op_name, peer, tag, fired->id);
    default:
      injector.mark_surfaced(fired->id, faultsim::Channel::kApiError);
      return MpiError::kOther;
  }
}

/// Rank renumbering relative to a collective's root (MPICH convention):
/// tree algorithms are written for root 0 over relative ranks.
[[nodiscard]] int rel_rank(int rank, int root, int size) { return (rank - root + size) % size; }
[[nodiscard]] int abs_rank(int rel, int root, int size) { return (rel + root) % size; }

/// Largest power of two <= n (n >= 1).
[[nodiscard]] int floor_pow2(int n) {
  int p = 1;
  while (p * 2 <= n) {
    p *= 2;
  }
  return p;
}

/// Count an internal collective-tree message (instrumentation only).
void count_collective_message() {
  detail::contention("mpisim.collective_messages").increment();
}

}  // namespace

// -- Comm: point-to-point ---------------------------------------------------------

int Comm::size() const { return impl_ ? impl_->size() : 0; }

bool Comm::deadlock_detected() const { return impl_ != nullptr && impl_->deadlocked(); }

DeadlockReport Comm::deadlock_report() const {
  return impl_ != nullptr ? impl_->deadlock_report() : DeadlockReport{};
}

std::string Comm::failure_summary() const {
  return impl_ != nullptr ? impl_->failure_summary() : std::string{};
}

MpiError Comm::dup(Comm* out) {
  if (out == nullptr) {
    return MpiError::kInvalidArg;
  }
  if (!valid()) {
    return MpiError::kInvalidArg;
  }
  *out = Comm(impl_->dup_for_rank(rank_), rank_);
  return MpiError::kSuccess;
}

MpiError Comm::send(const void* buf, std::size_t count, const Datatype& type, int dest, int tag) {
  OpScope scope("MPI_Send", rank_);
  if (!valid() || !type.valid() || (buf == nullptr && count > 0)) {
    return MpiError::kInvalidArg;
  }
  if (!rank_valid(dest)) {
    return MpiError::kInvalidRank;
  }
  if (const MpiError err = consult_fault(impl_.get(), rank_, faultsim::Site::kSend, "MPI_Send",
                                         dest, tag, scope.outermost);
      err != MpiError::kSuccess) {
    return err;
  }
  // Eager buffered send: the payload is captured before returning, so the
  // send buffer is reusable immediately (standard-mode semantics).
  return impl_->post_send(rank_, dest, tag, buf, count, type);
}

MpiError Comm::recv(void* buf, std::size_t count, const Datatype& type, int source, int tag,
                    Status* status) {
  OpScope scope("MPI_Recv", rank_);
  if (scope.outermost && valid()) {
    if (const MpiError err = consult_fault(impl_.get(), rank_, faultsim::Site::kRecv, "MPI_Recv",
                                           source, tag, scope.outermost);
        err != MpiError::kSuccess) {
      return err;
    }
  }
  Request* request = nullptr;
  if (const MpiError err = irecv(buf, count, type, source, tag, &request);
      err != MpiError::kSuccess) {
    return err;
  }
  return wait(&request, status);
}

MpiError Comm::isend(const void* buf, std::size_t count, const Datatype& type, int dest, int tag,
                     Request** request) {
  OpScope scope("MPI_Isend", rank_);
  if (request == nullptr) {
    return MpiError::kInvalidArg;
  }
  *request = nullptr;
  if (!valid() || !type.valid() || (buf == nullptr && count > 0)) {
    return MpiError::kInvalidArg;
  }
  if (!rank_valid(dest)) {
    return MpiError::kInvalidRank;
  }
  if (const MpiError err = consult_fault(impl_.get(), rank_, faultsim::Site::kSend, "MPI_Isend",
                                         dest, tag, scope.outermost);
      err != MpiError::kSuccess) {
    return err;
  }
  Request* req = impl_->make_request(rank_, Request::Kind::kSend, buf, count, type, dest, tag);
  const MpiError err = impl_->post_send(rank_, dest, tag, buf, count, type);
  if (err != MpiError::kSuccess) {
    delete req;
    return err;
  }
  // Eager send: complete as soon as the payload is captured.
  impl_->complete_send_request(req, type.packed_size() * count);
  *request = req;
  return MpiError::kSuccess;
}

MpiError Comm::irecv(void* buf, std::size_t count, const Datatype& type, int source, int tag,
                     Request** request) {
  OpScope scope("MPI_Irecv", rank_);
  if (request == nullptr) {
    return MpiError::kInvalidArg;
  }
  *request = nullptr;
  if (!valid() || !type.valid() || (buf == nullptr && count > 0)) {
    return MpiError::kInvalidArg;
  }
  if (source != kAnySource && !rank_valid(source)) {
    return MpiError::kInvalidRank;
  }
  if (const MpiError err = consult_fault(impl_.get(), rank_, faultsim::Site::kRecv, "MPI_Irecv",
                                         source, tag, scope.outermost);
      err != MpiError::kSuccess) {
    return err;
  }
  Request* req = impl_->make_request(rank_, Request::Kind::kRecv, buf, count, type, source, tag);
  const MpiError err = impl_->post_recv(rank_, source, tag, buf, count, type, req);
  if (err != MpiError::kSuccess) {
    delete req;
    return err;
  }
  *request = req;
  return MpiError::kSuccess;
}

MpiError Comm::wait(Request** request, Status* status) {
  OpScope scope("MPI_Wait", rank_);
  if (scope.outermost) {
    const int peer = (request != nullptr && *request != nullptr) ? (*request)->peer() : -1;
    const int tag = (request != nullptr && *request != nullptr) ? (*request)->tag() : -1;
    if (const MpiError err = consult_fault(impl_.get(), rank_, faultsim::Site::kWait, "MPI_Wait",
                                           peer, tag, scope.outermost);
        err != MpiError::kSuccess) {
      return err;
    }
  }
  return impl_->wait(rank_, request, status);
}

MpiError Comm::test(Request** request, bool* completed, Status* status) {
  return impl_->test(rank_, request, completed, status);
}

MpiError Comm::waitany(std::span<Request*> requests, int* index, Status* status) {
  OpScope scope("MPI_Waitany", rank_);
  if (const MpiError err = consult_fault(impl_.get(), rank_, faultsim::Site::kWait, "MPI_Waitany",
                                         -1, -1, scope.outermost);
      err != MpiError::kSuccess) {
    if (index != nullptr) {
      *index = -1;
    }
    return err;
  }
  return impl_->waitany(rank_, requests, index, status);
}

MpiError Comm::probe(int source, int tag, Status* status) {
  OpScope scope("MPI_Probe", rank_);
  if (!valid() || (source != kAnySource && !rank_valid(source))) {
    return MpiError::kInvalidRank;
  }
  return impl_->probe(rank_, source, tag, /*blocking=*/true, nullptr, status);
}

MpiError Comm::iprobe(int source, int tag, bool* flag, Status* status) {
  if (flag == nullptr) {
    return MpiError::kInvalidArg;
  }
  if (!valid() || (source != kAnySource && !rank_valid(source))) {
    return MpiError::kInvalidRank;
  }
  return impl_->probe(rank_, source, tag, /*blocking=*/false, flag, status);
}

MpiError Comm::waitall(std::span<Request*> requests) {
  OpScope scope("MPI_Waitall", rank_);
  if (const MpiError err = consult_fault(impl_.get(), rank_, faultsim::Site::kWait, "MPI_Waitall",
                                         -1, -1, scope.outermost);
      err != MpiError::kSuccess) {
    return err;
  }
  MpiError first_error = MpiError::kSuccess;
  for (Request*& req : requests) {
    if (req == nullptr) {
      continue;
    }
    const MpiError err = wait(&req, nullptr);
    if (err != MpiError::kSuccess && first_error == MpiError::kSuccess) {
      first_error = err;
    }
  }
  return first_error;
}

MpiError Comm::sendrecv(const void* sendbuf, std::size_t sendcount, const Datatype& sendtype,
                        int dest, int sendtag, void* recvbuf, std::size_t recvcount,
                        const Datatype& recvtype, int source, int recvtag, Status* status) {
  OpScope scope("MPI_Sendrecv", rank_);
  if (const MpiError err = consult_fault(impl_.get(), rank_, faultsim::Site::kSend,
                                         "MPI_Sendrecv", dest, sendtag, scope.outermost);
      err != MpiError::kSuccess) {
    return err;
  }
  Request* recv_req = nullptr;
  if (const MpiError err = irecv(recvbuf, recvcount, recvtype, source, recvtag, &recv_req);
      err != MpiError::kSuccess) {
    return err;
  }
  if (const MpiError err = send(sendbuf, sendcount, sendtype, dest, sendtag);
      err != MpiError::kSuccess) {
    (void)wait(&recv_req, nullptr);
    return err;
  }
  return wait(&recv_req, status);
}

// -- Comm: collectives (binomial trees / recursive doubling over internal p2p) -----
//
// All algorithms follow the MPICH formulations over root-relative ranks.
// Messages travel on reserved negative tags, so user traffic (tags >= 0)
// can interleave freely. An error from an inner send/recv (deadlock
// poisoning, injected fault) aborts the tree immediately — peers observe
// the same poisoning through their own blocked calls, exactly as with the
// previous linear algorithms.

MpiError Comm::barrier() {
  OpScope scope("MPI_Barrier", rank_);
  if (const MpiError err = consult_fault(impl_.get(), rank_, faultsim::Site::kBarrier,
                                         "MPI_Barrier", -1, -1, scope.outermost);
      err != MpiError::kSuccess) {
    return err;
  }
  // Binomial-tree gather of a token at rank 0, then tree broadcast of the
  // release: 2*log2(P) rounds instead of the old 2*(P-1) at rank 0.
  const Datatype type = Datatype::byte();
  const int world = size();
  std::byte token{};
  int mask = 1;
  while (mask < world) {
    if ((rank_ & mask) != 0) {
      count_collective_message();
      if (const MpiError err = send(&token, 1, type, rank_ ^ mask, kTagBarrierIn);
          err != MpiError::kSuccess) {
        return err;
      }
      break;
    }
    const int child = rank_ | mask;
    if (child < world) {
      if (const MpiError err = recv(&token, 1, type, child, kTagBarrierIn);
          err != MpiError::kSuccess) {
        return err;
      }
    }
    mask <<= 1;
  }
  // Release phase: rank 0 falls through the loop above with mask >= world;
  // everyone else re-enters at the bit it sent on.
  int release_mask = 1;
  while (release_mask < world) {
    if ((rank_ & release_mask) != 0) {
      if (const MpiError err = recv(&token, 1, type, rank_ ^ release_mask, kTagBarrierOut);
          err != MpiError::kSuccess) {
        return err;
      }
      break;
    }
    release_mask <<= 1;
  }
  release_mask >>= 1;
  while (release_mask > 0) {
    if ((rank_ & release_mask) == 0) {
      const int child = rank_ | release_mask;
      if (child < world && child != rank_) {
        count_collective_message();
        if (const MpiError err = send(&token, 1, type, child, kTagBarrierOut);
            err != MpiError::kSuccess) {
          return err;
        }
      }
    }
    release_mask >>= 1;
  }
  return MpiError::kSuccess;
}

MpiError Comm::bcast(void* buf, std::size_t count, const Datatype& type, int root) {
  OpScope scope("MPI_Bcast", rank_);
  if (!rank_valid(root)) {
    return MpiError::kInvalidRank;
  }
  if (const MpiError err = consult_fault(impl_.get(), rank_, faultsim::Site::kCollective,
                                         "MPI_Bcast", root, -1, scope.outermost);
      err != MpiError::kSuccess) {
    return err;
  }
  const int world = size();
  const int rel = rel_rank(rank_, root, world);
  // Receive from the parent (the rank that differs at our lowest set bit)…
  int mask = 1;
  while (mask < world) {
    if ((rel & mask) != 0) {
      if (const MpiError err =
              recv(buf, count, type, abs_rank(rel ^ mask, root, world), kTagBcast);
          err != MpiError::kSuccess) {
        return err;
      }
      break;
    }
    mask <<= 1;
  }
  // …then forward to children at all lower bits.
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < world) {
      count_collective_message();
      if (const MpiError err =
              send(buf, count, type, abs_rank(rel + mask, root, world), kTagBcast);
          err != MpiError::kSuccess) {
        return err;
      }
    }
    mask >>= 1;
  }
  return MpiError::kSuccess;
}

MpiError Comm::reduce(const void* sendbuf, void* recvbuf, std::size_t count, const Datatype& type,
                      ReduceOp op, int root) {
  OpScope scope("MPI_Reduce", rank_);
  if (!rank_valid(root)) {
    return MpiError::kInvalidRank;
  }
  if (const MpiError err = consult_fault(impl_.get(), rank_, faultsim::Site::kCollective,
                                         "MPI_Reduce", root, -1, scope.outermost);
      err != MpiError::kSuccess) {
    return err;
  }
  const int world = size();
  const int rel = rel_rank(rank_, root, world);
  const std::size_t bytes = type.extent() * count;
  // Accumulate child subtree contributions in increasing-bit order (the
  // same association every rank uses, so results are deterministic). The
  // accumulator materializes lazily: a leaf never copies, it just forwards
  // its send buffer.
  const void* acc_read = sendbuf;
  void* acc_mut = nullptr;
  std::vector<std::byte> acc_store;
  std::vector<std::byte> scratch;
  if (rank_ == root && recvbuf != sendbuf) {
    std::memcpy(recvbuf, sendbuf, bytes);
  }
  int mask = 1;
  while (mask < world) {
    if ((rel & mask) != 0) {
      count_collective_message();
      return send(acc_read, count, type, abs_rank(rel ^ mask, root, world), kTagReduce);
    }
    const int child = rel | mask;
    if (child < world) {
      if (scratch.empty()) {
        scratch.resize(bytes);
      }
      if (const MpiError err =
              recv(scratch.data(), count, type, abs_rank(child, root, world), kTagReduce);
          err != MpiError::kSuccess) {
        return err;
      }
      if (acc_mut == nullptr) {
        if (rank_ == root) {
          acc_mut = recvbuf;  // already seeded with sendbuf above
        } else {
          acc_store.assign(static_cast<const std::byte*>(sendbuf),
                           static_cast<const std::byte*>(sendbuf) + bytes);
          acc_mut = acc_store.data();
        }
        acc_read = acc_mut;
      }
      if (!apply_reduce(op, type, count, scratch.data(), acc_mut)) {
        return MpiError::kInvalidArg;
      }
    }
    mask <<= 1;
  }
  // Only rel 0 — the root — falls through; with no children (world == 1)
  // recvbuf already holds sendbuf.
  return MpiError::kSuccess;
}

MpiError Comm::allreduce(const void* sendbuf, void* recvbuf, std::size_t count,
                         const Datatype& type, ReduceOp op) {
  OpScope scope("MPI_Allreduce", rank_);
  if (const MpiError err = consult_fault(impl_.get(), rank_, faultsim::Site::kCollective,
                                         "MPI_Allreduce", -1, -1, scope.outermost);
      err != MpiError::kSuccess) {
    return err;
  }
  const int world = size();
  const std::size_t bytes = type.extent() * count;
  if (recvbuf != sendbuf) {
    std::memcpy(recvbuf, sendbuf, bytes);
  }
  if (world == 1) {
    return MpiError::kSuccess;
  }
  // Recursive doubling with the MPICH non-power-of-two pre/post phase: the
  // first 2*rem ranks pair up, odd members absorb their even partner and
  // take part in the log2(pof2) exchange rounds; even members sit out and
  // receive the final result afterwards. Every participating rank applies
  // the reductions in the same order, so all ranks get bitwise-identical
  // results (commutative builtin ops).
  const int pof2 = floor_pow2(world);
  const int rem = world - pof2;
  std::vector<std::byte> scratch(bytes);
  int newrank;
  if (rank_ < 2 * rem) {
    if ((rank_ % 2) == 0) {
      count_collective_message();
      if (const MpiError err = send(recvbuf, count, type, rank_ + 1, kTagAllreduce);
          err != MpiError::kSuccess) {
        return err;
      }
      newrank = -1;
    } else {
      if (const MpiError err = recv(scratch.data(), count, type, rank_ - 1, kTagAllreduce);
          err != MpiError::kSuccess) {
        return err;
      }
      if (!apply_reduce(op, type, count, scratch.data(), recvbuf)) {
        return MpiError::kInvalidArg;
      }
      newrank = rank_ / 2;
    }
  } else {
    newrank = rank_ - rem;
  }
  if (newrank >= 0) {
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int newpeer = newrank ^ mask;
      const int peer = newpeer < rem ? newpeer * 2 + 1 : newpeer + rem;
      count_collective_message();
      if (const MpiError err = send(recvbuf, count, type, peer, kTagAllreduce);
          err != MpiError::kSuccess) {
        return err;
      }
      if (const MpiError err = recv(scratch.data(), count, type, peer, kTagAllreduce);
          err != MpiError::kSuccess) {
        return err;
      }
      if (!apply_reduce(op, type, count, scratch.data(), recvbuf)) {
        return MpiError::kInvalidArg;
      }
    }
  }
  if (rank_ < 2 * rem) {
    if ((rank_ % 2) != 0) {
      count_collective_message();
      return send(recvbuf, count, type, rank_ - 1, kTagAllreduce);
    }
    return recv(recvbuf, count, type, rank_ + 1, kTagAllreduce);
  }
  return MpiError::kSuccess;
}

MpiError Comm::gather(const void* sendbuf, std::size_t count, const Datatype& type,
                      void* recvbuf, int root) {
  OpScope scope("MPI_Gather", rank_);
  if (!rank_valid(root)) {
    return MpiError::kInvalidRank;
  }
  if (const MpiError err = consult_fault(impl_.get(), rank_, faultsim::Site::kCollective,
                                         "MPI_Gather", root, -1, scope.outermost);
      err != MpiError::kSuccess) {
    return err;
  }
  const int world = size();
  const std::size_t slot = type.extent() * count;
  if (world == 1) {
    std::memcpy(recvbuf, sendbuf, slot);
    return MpiError::kSuccess;
  }
  // Binomial aggregation needs rank blocks staged contiguously; derived
  // datatypes with holes would be clobbered by that staging, so they take
  // the linear path.
  if (!type.is_contiguous()) {
    if (rank_ != root) {
      count_collective_message();
      return send(sendbuf, count, type, root, kTagGather);
    }
    auto* recv_bytes = static_cast<std::byte*>(recvbuf);
    for (int r = 0; r < world; ++r) {
      std::byte* dst = recv_bytes + static_cast<std::size_t>(r) * slot;
      if (r == root) {
        std::memcpy(dst, sendbuf, slot);
        continue;
      }
      if (const MpiError err = recv(dst, count, type, r, kTagGather); err != MpiError::kSuccess) {
        return err;
      }
    }
    return MpiError::kSuccess;
  }
  const int rel = rel_rank(rank_, root, world);
  // Leaf fast path: a rank with lowest bit set owns only its own block.
  if ((rel & 1) != 0) {
    count_collective_message();
    return send(sendbuf, count, type, abs_rank(rel ^ 1, root, world), kTagGather);
  }
  // Interior ranks stage blocks [rel, rel + subtree) contiguously in
  // relative-rank order; the root with root == 0 can stage directly in
  // recvbuf (relative == absolute there).
  int subtree = 1;
  while ((rel & subtree) == 0 && subtree < world) {
    subtree <<= 1;
  }
  const int max_blocks = std::min(subtree, world - rel);
  const bool direct = rank_ == root && root == 0;
  std::vector<std::byte> staging;
  std::byte* stage;
  if (direct) {
    stage = static_cast<std::byte*>(recvbuf);
  } else {
    staging.resize(static_cast<std::size_t>(max_blocks) * slot);
    stage = staging.data();
  }
  std::memcpy(stage, sendbuf, slot);
  for (int mask = 1; mask < world; mask <<= 1) {
    if ((rel & mask) != 0) {
      const int have = std::min(mask, world - rel);
      count_collective_message();
      return send(stage, count * static_cast<std::size_t>(have), type,
                  abs_rank(rel ^ mask, root, world), kTagGather);
    }
    const int child = rel | mask;
    if (child < world) {
      const int child_blocks = std::min(mask, world - child);
      if (const MpiError err = recv(stage + static_cast<std::size_t>(mask) * slot,
                                    count * static_cast<std::size_t>(child_blocks), type,
                                    abs_rank(child, root, world), kTagGather);
          err != MpiError::kSuccess) {
        return err;
      }
    }
  }
  // Only the root (rel 0) reaches here. Rotate relative-order blocks into
  // absolute rank slots when the staging wasn't done in place.
  if (!direct) {
    auto* recv_bytes = static_cast<std::byte*>(recvbuf);
    for (int r = 0; r < world; ++r) {
      std::memcpy(recv_bytes + static_cast<std::size_t>(abs_rank(r, root, world)) * slot,
                  stage + static_cast<std::size_t>(r) * slot, slot);
    }
  }
  return MpiError::kSuccess;
}

MpiError Comm::scatter(const void* sendbuf, std::size_t count, const Datatype& type,
                       void* recvbuf, int root) {
  OpScope scope("MPI_Scatter", rank_);
  if (!rank_valid(root)) {
    return MpiError::kInvalidRank;
  }
  if (const MpiError err = consult_fault(impl_.get(), rank_, faultsim::Site::kCollective,
                                         "MPI_Scatter", root, -1, scope.outermost);
      err != MpiError::kSuccess) {
    return err;
  }
  const int world = size();
  const std::size_t slot = type.extent() * count;
  if (world == 1) {
    std::memcpy(recvbuf, sendbuf, slot);
    return MpiError::kSuccess;
  }
  if (!type.is_contiguous()) {
    // Linear fallback, mirroring gather: staging multi-block spans would
    // clobber the holes of non-contiguous datatypes.
    if (rank_ != root) {
      return recv(recvbuf, count, type, root, kTagScatter);
    }
    const auto* send_bytes = static_cast<const std::byte*>(sendbuf);
    for (int r = 0; r < world; ++r) {
      const std::byte* src = send_bytes + static_cast<std::size_t>(r) * slot;
      if (r == root) {
        std::memcpy(recvbuf, src, slot);
        continue;
      }
      count_collective_message();
      if (const MpiError err = send(src, count, type, r, kTagScatter); err != MpiError::kSuccess) {
        return err;
      }
    }
    return MpiError::kSuccess;
  }
  const int rel = rel_rank(rank_, root, world);
  // b: the subtree stride — the distance to the parent for non-roots, the
  // power-of-two ceiling of the world for the root.
  int b = 1;
  if (rel == 0) {
    while (b < world) {
      b <<= 1;
    }
  } else {
    while ((rel & b) == 0) {
      b <<= 1;
    }
  }
  const int span = rel == 0 ? world : std::min(b, world - rel);
  std::vector<std::byte> staging;
  const std::byte* stage;
  if (rel == 0) {
    if (root == 0) {
      stage = static_cast<const std::byte*>(sendbuf);
    } else {
      // Rotate absolute rank slots into relative order once at the root.
      staging.resize(static_cast<std::size_t>(world) * slot);
      const auto* send_bytes = static_cast<const std::byte*>(sendbuf);
      for (int r = 0; r < world; ++r) {
        std::memcpy(staging.data() + static_cast<std::size_t>(r) * slot,
                    send_bytes + static_cast<std::size_t>(abs_rank(r, root, world)) * slot, slot);
      }
      stage = staging.data();
    }
  } else {
    std::byte* dst;
    if (span > 1) {
      staging.resize(static_cast<std::size_t>(span) * slot);
      dst = staging.data();
    } else {
      dst = static_cast<std::byte*>(recvbuf);
    }
    if (const MpiError err = recv(dst, count * static_cast<std::size_t>(span), type,
                                  abs_rank(rel ^ b, root, world), kTagScatter);
        err != MpiError::kSuccess) {
      return err;
    }
    stage = dst;
  }
  for (int mask = b >> 1; mask >= 1; mask >>= 1) {
    const int child = rel | mask;
    if (child > rel && child < world) {
      const int child_span = std::min(mask, world - child);
      count_collective_message();
      if (const MpiError err = send(stage + static_cast<std::size_t>(mask) * slot,
                                    count * static_cast<std::size_t>(child_span), type,
                                    abs_rank(child, root, world), kTagScatter);
          err != MpiError::kSuccess) {
        return err;
      }
    }
  }
  if (rel == 0 || span > 1) {
    std::memcpy(recvbuf, stage, slot);  // own block is the first staged one
  }
  return MpiError::kSuccess;
}

MpiError Comm::allgather(const void* sendbuf, std::size_t count, const Datatype& type,
                         void* recvbuf) {
  OpScope scope("MPI_Allgather", rank_);
  if (const MpiError err = consult_fault(impl_.get(), rank_, faultsim::Site::kCollective,
                                         "MPI_Allgather", -1, -1, scope.outermost);
      err != MpiError::kSuccess) {
    return err;
  }
  const int world = size();
  const std::size_t slot = type.extent() * count;
  const bool pof2 = (world & (world - 1)) == 0;
  if (type.is_contiguous() && pof2 && world > 1) {
    // Recursive doubling: in round k each rank swaps its accumulated 2^k
    // blocks with the partner across bit k, in place in recvbuf.
    auto* base = static_cast<std::byte*>(recvbuf);
    std::memcpy(base + static_cast<std::size_t>(rank_) * slot, sendbuf, slot);
    for (int mask = 1; mask < world; mask <<= 1) {
      const int peer = rank_ ^ mask;
      const int send_base = rank_ & ~(mask - 1);
      const int recv_base = peer & ~(mask - 1);
      count_collective_message();
      if (const MpiError err = send(base + static_cast<std::size_t>(send_base) * slot,
                                    count * static_cast<std::size_t>(mask), type, peer,
                                    kTagAllgather);
          err != MpiError::kSuccess) {
        return err;
      }
      if (const MpiError err = recv(base + static_cast<std::size_t>(recv_base) * slot,
                                    count * static_cast<std::size_t>(mask), type, peer,
                                    kTagAllgather);
          err != MpiError::kSuccess) {
        return err;
      }
    }
    return MpiError::kSuccess;
  }
  // Non-power-of-two or non-contiguous: binomial gather + tree bcast.
  if (const MpiError err = gather(sendbuf, count, type, recvbuf, 0);
      err != MpiError::kSuccess) {
    return err;
  }
  return bcast(recvbuf, count * static_cast<std::size_t>(world), type, 0);
}

}  // namespace mpisim
