#include "mpisim/proc_comm.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "common/assert.hpp"
#include "common/clock.hpp"
#include "faultsim/injector.hpp"
#include "mpisim/counters.hpp"
#include "mpisim/deadlock.hpp"
#include "mpisim/failure.hpp"
#include "mpisim/op_scope.hpp"
#include "mpisim/request.hpp"
#include "mpisim/shm.hpp"
#include "obs/metrics.hpp"
#include "schedsim/controller.hpp"

namespace mpisim {

namespace {

/// Yield rounds before a blocked wait falls back to sleeping polls.
constexpr int kSpinRounds = 64;
/// Consecutive incomplete Test calls before the rank counts as soft-blocked
/// (same threshold as the thread backend).
constexpr int kSoftBlockThreshold = 64;

/// Poll-loop backoff: yield first, then sleep in growing steps. There is no
/// cross-process futex to park on by design (nothing a dying peer could
/// leave locked), so blocked ranks poll; the steps keep the idle cost low.
void poll_backoff(int& round) {
  if (round < kSpinRounds) {
    std::this_thread::yield();
  } else if (round < 512) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ++round;
}

[[nodiscard]] bool tag_accepts(int want_tag, int tag) {
  return want_tag == kAnyTag || want_tag == tag;
}

// Cached per thread and re-resolved when the current registry changes
// (session scoping), like detail::contention_counters().
struct ProcCounters {
  obs::MetricsRegistry* owner{nullptr};
  obs::Counter* eager_msgs{nullptr};
  obs::Counter* rendezvous_msgs{nullptr};
  obs::Counter* ring_full_backoffs{nullptr};
  obs::Counter* sends_dropped_dead{nullptr};
};

[[nodiscard]] ProcCounters& proc_counters() {
  thread_local ProcCounters counters;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  if (counters.owner != &registry) {
    counters.owner = &registry;
    counters.eager_msgs = &registry.counter("mpisim.proc.eager_msgs");
    counters.rendezvous_msgs = &registry.counter("mpisim.proc.rendezvous_msgs");
    counters.ring_full_backoffs = &registry.counter("mpisim.proc.ring_full_backoffs");
    counters.sends_dropped_dead = &registry.counter("mpisim.proc.sends_dropped_dead");
  }
  return counters;
}

ProcTransport* g_current_transport = nullptr;

void copy_label(char (&dst)[shmlayout::kMaxSite], const char* src) {
  std::strncpy(dst, src == nullptr ? "" : src, sizeof(dst) - 1);
  dst[sizeof(dst) - 1] = '\0';
}

}  // namespace

// The child-side engine. Single app thread per process (plus the heartbeat
// stamper, which only touches its own slot's plain atomics), so the local
// mailboxes need no locks — all cross-process synchronization is the rings'
// head/tail pairs and the poison word.
class ProcTransport {
 public:
  ProcTransport(void* base, shmlayout::Layout layout, int rank, std::string seg_prefix)
      : base_(base),
        layout_(layout),
        rank_(rank),
        seg_prefix_(std::move(seg_prefix)),
        header_(layout.header(base)),
        slot_(layout.slot(base, rank)) {
    CUSAN_ASSERT(header_->magic == shmlayout::kMagic);
    slot_->heartbeat_ns.store(common::now_ns(), std::memory_order_relaxed);
  }

  ~ProcTransport() { stop_heartbeat(); }

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int world() const { return layout_.world_size; }

  void start() {
    slot_->heartbeat_ns.store(common::now_ns(), std::memory_order_relaxed);
    slot_->state.store(shmlayout::RankState::kRunning, std::memory_order_release);
    heartbeat_stop_.store(false, std::memory_order_relaxed);
    const auto interval = shmlayout::kHeartbeatInterval / 2 + std::chrono::milliseconds(1);
    heartbeat_ = std::thread([this, interval] {
      while (!heartbeat_stop_.load(std::memory_order_relaxed)) {
        slot_->heartbeat_ns.store(common::now_ns(), std::memory_order_relaxed);
        std::this_thread::sleep_for(interval);
      }
    });
  }

  void finalize_clean() {
    stop_heartbeat();
    slot_->state.store(shmlayout::RankState::kExited, std::memory_order_release);
    note_progress();  // peers' quiet timers must see the exit as an event
  }

  void finalize_error(const char* what) {
    stop_heartbeat();
    slot_write([&] { copy_label_n(slot_->error_msg, what); });
    slot_->state.store(shmlayout::RankState::kAppError, std::memory_order_release);
    note_progress();
  }

  /// Publish this rank's result blob as `<prefix>.res.<rank>`; the
  /// supervisor collects it when the process has been reaped.
  void publish_result(std::span<const std::byte> bytes) {
    if (bytes.empty()) {
      return;
    }
    const std::string name = seg_prefix_ + ".res." + std::to_string(rank_);
    std::string error;
    shm::Segment seg = shm::Segment::create(name, bytes.size(), &error);
    if (!seg.valid()) {
      return;  // supervisor falls back to "no result from this rank"
    }
    std::memcpy(seg.data(), bytes.data(), bytes.size());
    slot_->result_bytes.store(bytes.size(), std::memory_order_release);
  }

  // -- p2p engine -----------------------------------------------------------

  MpiError post_send(int comm_id, int dest, int tag, const void* buf, std::size_t count,
                     const Datatype& type) {
    stamp_site(current_op_label("MPI_Send"));
    maybe_kill();
    clear_soft();
    const std::size_t payload_bytes = type.packed_size() * count;
    sig_scratch_.clear();
    type.signature(count, sig_scratch_);

    if (dest == rank_) {
      // Self-send: no ring round-trip; pack and route through the local
      // mailbox exactly as a drained record would be.
      send_scratch_.resize(payload_bytes);
      type.pack(buf, count, send_scratch_.data());
      route_payload(comm_id, rank_, tag, send_scratch_,
                    std::span<const Scalar>(sig_scratch_));
      note_progress();
      return MpiError::kSuccess;
    }

    shmring::RecordHdr hdr{};
    hdr.tag = tag;
    hdr.comm_id = comm_id;
    hdr.payload_bytes = payload_bytes;
    const auto sig_bytes = std::as_bytes(std::span<const Scalar>(sig_scratch_));

    if (shmring::record_size(sig_scratch_.size(), payload_bytes) <= header_->eager_max) {
      // Eager: pack into scratch, publish inline. The receiver unpacks
      // straight out of the mapped ring (its map-once path).
      hdr.kind = shmring::RecordKind::kMessage;
      send_scratch_.resize(payload_bytes);
      type.pack(buf, count, send_scratch_.data());
      detail::bump(*proc_counters().eager_msgs);
      return publish_blocking(dest, tag, hdr, sig_bytes, send_scratch_);
    }

    // Rendezvous: pack once directly into a fresh named segment (payload
    // then signature); the ring carries only the segment name. The receiver
    // maps it, unpacks once into the user buffer, and unlinks it.
    hdr.kind = shmring::RecordKind::kRendezvous;
    const std::string rv_name =
        seg_prefix_ + ".rv." + std::to_string(rank_) + "." + std::to_string(rendezvous_seq_++);
    std::string error;
    shm::Segment seg =
        shm::Segment::create(rv_name, payload_bytes + sig_scratch_.size(), &error);
    if (!seg.valid()) {
      return MpiError::kOther;  // shm exhausted: surface, don't crash
    }
    type.pack(buf, count, seg.data());
    if (!sig_scratch_.empty()) {
      std::memcpy(static_cast<std::byte*>(seg.data()) + payload_bytes, sig_scratch_.data(),
                  sig_scratch_.size());
    }
    std::vector<std::byte> name_body(rv_name.size() + 1);
    std::memcpy(name_body.data(), rv_name.c_str(), rv_name.size() + 1);
    detail::bump(*proc_counters().rendezvous_msgs);
    const MpiError err = publish_blocking(dest, tag, hdr, {}, name_body);
    if (err != MpiError::kSuccess) {
      seg.unlink();  // never published; reclaim the name now
    }
    return err;
  }

  MpiError post_recv(int comm_id, int source, int tag, void* buf, std::size_t count,
                     const Datatype& type, Request* request) {
    stamp_site(current_op_label("MPI_Recv"));
    maybe_kill();
    clear_soft();
    drain_rings();

    PostedRecv posted;
    posted.source = source;
    posted.tag = tag;
    posted.buffer = buf;
    posted.count = count;
    posted.type = type;
    posted.request = request;

    Box& box = box_for(comm_id);
    std::deque<PMessage>* match_queue = nullptr;
    std::deque<PMessage>::iterator match;
    if (source != kAnySource) {
      std::deque<PMessage>& q = box.by_src[static_cast<std::size_t>(source)].unexpected;
      const auto it = std::find_if(
          q.begin(), q.end(), [&](const PMessage& m) { return tag_accepts(tag, m.tag); });
      if (it != q.end()) {
        match_queue = &q;
        match = it;
      }
    } else {
      // ANY_SOURCE: the oldest head tag-acceptor across all source channels,
      // or a schedule-controller pick among them (same site and actor id as
      // the thread backend, so recorded schedules stay comparable).
      detail::bump(*detail::contention_counters().any_source_scans);
      if (schedsim::Controller::armed()) {
        struct Candidate {
          std::deque<PMessage>* queue;
          std::deque<PMessage>::iterator it;
        };
        std::vector<Candidate> candidates;
        for (auto& src_q : box.by_src) {
          const auto it =
              std::find_if(src_q.unexpected.begin(), src_q.unexpected.end(),
                           [&](const PMessage& m) { return tag_accepts(tag, m.tag); });
          if (it != src_q.unexpected.end()) {
            candidates.push_back({&src_q.unexpected, it});
          }
        }
        if (!candidates.empty()) {
          std::sort(candidates.begin(), candidates.end(),
                    [](const Candidate& a, const Candidate& b) {
                      return a.it->epoch < b.it->epoch;
                    });
          const int pick = schedsim::Controller::instance().choose(
              schedsim::Site::kMatchRecv, rank_,
              static_cast<int>(candidates.size()), 0);
          match_queue = candidates[static_cast<std::size_t>(pick)].queue;
          match = candidates[static_cast<std::size_t>(pick)].it;
        }
      } else {
        for (auto& src_q : box.by_src) {
          const auto it =
              std::find_if(src_q.unexpected.begin(), src_q.unexpected.end(),
                           [&](const PMessage& m) { return tag_accepts(tag, m.tag); });
          if (it != src_q.unexpected.end() &&
              (match_queue == nullptr || it->epoch < match->epoch)) {
            match_queue = &src_q.unexpected;
            match = it;
          }
        }
      }
    }
    if (match_queue != nullptr) {
      const PMessage msg = std::move(*match);
      match_queue->erase(match);
      deliver(msg.src, msg.tag, msg.payload, msg.signature, posted);
      return MpiError::kSuccess;
    }
    posted.epoch = box.next_epoch++;
    if (source != kAnySource) {
      box.by_src[static_cast<std::size_t>(source)].posted.push_back(posted);
    } else {
      box.wildcard.push_back(posted);
    }
    pending_recvs_.push_back({request, source, tag});
    stamp_inflight();
    return MpiError::kSuccess;
  }

  MpiError wait(int comm_id, Request** request, Status* status) {
    if (request == nullptr || *request == nullptr) {
      return MpiError::kRequestNull;
    }
    Request* req = *request;
    const MpiError blocked =
        blocked_wait(current_op_label("MPI_Wait"), req->peer_, req->tag_, comm_id,
                     [req] { return req->complete(); });
    if (blocked != MpiError::kSuccess) {
      // Poisoned: the request stays pending (it can never complete); MUST's
      // finalize-time leak check will see and report it.
      if (status != nullptr) {
        *status = Status{};
        status->error = blocked;
      }
      return blocked;
    }
    const Status st = req->status_;
    if (status != nullptr) {
      *status = st;
    }
    delete req;
    *request = nullptr;
    return st.error;
  }

  MpiError test(int comm_id, Request** request, bool* completed, Status* status) {
    if (request == nullptr || *request == nullptr) {
      return MpiError::kRequestNull;
    }
    Request* req = *request;
    if (!req->complete()) {
      drain_rings();
    }
    if (!req->complete()) {
      if (completed != nullptr) {
        *completed = false;
      }
      if (const MpiError poison = poison_error(); poison != MpiError::kSuccess) {
        return poison;
      }
      // Soft-block accounting: a rank spinning on incomplete Tests is not
      // making progress; past the streak threshold it counts as blocked so
      // the supervisor's all-blocked check can see a Test-polling deadlock.
      if (++test_polls_ >= kSoftBlockThreshold && !soft_blocked_) {
        soft_blocked_ = true;
        stamp_blocked(current_op_label("MPI_Test"), req->peer_, req->tag_, comm_id,
                      /*active=*/false, /*soft=*/true);
      }
      return MpiError::kSuccess;
    }
    clear_soft();
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

  MpiError waitany(int comm_id, std::span<Request*> requests, int* index, Status* status) {
    if (index == nullptr) {
      return MpiError::kInvalidArg;
    }
    *index = -1;
    const Request* first_pending = nullptr;
    for (const Request* req : requests) {
      if (req != nullptr) {
        first_pending = req;
        break;
      }
    }
    if (first_pending == nullptr) {
      return MpiError::kRequestNull;
    }
    const MpiError blocked = blocked_wait(
        current_op_label("MPI_Waitany"), first_pending->peer_, first_pending->tag_,
        comm_id, [&] {
          for (std::size_t i = 0; i < requests.size(); ++i) {
            if (requests[i] != nullptr && requests[i]->complete()) {
              *index = static_cast<int>(i);
              return true;
            }
          }
          return false;
        });
    if (blocked != MpiError::kSuccess) {
      if (status != nullptr) {
        *status = Status{};
        status->error = blocked;
      }
      return blocked;
    }
    if (schedsim::Controller::armed()) {
      std::vector<int> complete;
      for (std::size_t i = 0; i < requests.size(); ++i) {
        if (requests[i] != nullptr && requests[i]->complete()) {
          complete.push_back(static_cast<int>(i));
        }
      }
      if (complete.size() > 1) {
        const int pick = schedsim::Controller::instance().choose(
            schedsim::Site::kWaitany, rank_, static_cast<int>(complete.size()), 0);
        *index = complete[static_cast<std::size_t>(pick)];
      }
    }
    return wait(comm_id, &requests[static_cast<std::size_t>(*index)], status);
  }

  MpiError probe(int comm_id, int source, int tag, bool blocking, bool* flag, Status* status) {
    drain_rings();
    Box& box = box_for(comm_id);
    const auto find_match = [&]() -> std::optional<Status> {
      const PMessage* found = nullptr;
      if (source != kAnySource) {
        const std::deque<PMessage>& q =
            box.by_src[static_cast<std::size_t>(source)].unexpected;
        const auto it = std::find_if(
            q.begin(), q.end(), [&](const PMessage& m) { return tag_accepts(tag, m.tag); });
        if (it != q.end()) {
          found = &*it;
        }
      } else {
        detail::bump(*detail::contention_counters().any_source_scans);
        for (const auto& src_q : box.by_src) {
          const auto it =
              std::find_if(src_q.unexpected.begin(), src_q.unexpected.end(),
                           [&](const PMessage& m) { return tag_accepts(tag, m.tag); });
          if (it != src_q.unexpected.end() && (found == nullptr || it->epoch < found->epoch)) {
            found = &*it;
          }
        }
      }
      if (found == nullptr) {
        return std::nullopt;
      }
      return Status{found->src, found->tag, found->payload.size(), MpiError::kSuccess};
    };
    std::optional<Status> envelope = find_match();
    if (!blocking) {
      if (flag != nullptr) {
        *flag = envelope.has_value();
      }
    } else if (!envelope.has_value()) {
      const MpiError blocked =
          blocked_wait(current_op_label("MPI_Probe"), source, tag, comm_id, [&] {
            envelope = find_match();
            return envelope.has_value();
          });
      if (blocked != MpiError::kSuccess) {
        if (status != nullptr) {
          *status = Status{};
          status->error = blocked;
        }
        return blocked;
      }
    }
    if (envelope.has_value() && status != nullptr) {
      *status = *envelope;
    }
    return MpiError::kSuccess;
  }

  void complete_send_request(Request* req, std::size_t bytes) {
    req->status_ = Status{-1, -1, bytes, MpiError::kSuccess};
    req->complete_.store(true, std::memory_order_release);
    note_progress();
  }

  MpiError stall(int comm_id, const char* op_name, int peer, int tag, std::uint64_t fault_id) {
    auto& injector = faultsim::Injector::instance();
    if (header_->watchdog_ms > 0) {
      std::string label = std::string(op_name) + " [stalled by fault plan]";
      const MpiError err =
          blocked_wait(label.c_str(), peer, tag, comm_id, [] { return false; });
      injector.mark_surfaced(fault_id, faultsim::Channel::kDeadlockReport);
      return err;
    }
    injector.mark_surfaced(fault_id, faultsim::Channel::kApiError);
    return MpiError::kOther;
  }

  [[nodiscard]] bool deadlocked() const {
    return header_->poison.load(std::memory_order_acquire) == shmlayout::Poison::kDeadlock;
  }

  [[nodiscard]] DeadlockReport deadlock_report() const {
    DeadlockReport report;
    report.world_size = world();
    if (!deadlocked()) {
      return report;
    }
    // The supervisor wrote the area in full before the poison release-store,
    // so a plain read after the acquire above is safe.
    const shmlayout::ShmDeadlockArea* area = layout_.deadlock(base_);
    const std::uint32_t count =
        std::min<std::uint32_t>(area->count, shmlayout::kMaxDeadlockEntries);
    for (std::uint32_t i = 0; i < count; ++i) {
      const shmlayout::ShmDeadlockEntry& entry = area->entries[i];
      BlockedOp op;
      op.rank = entry.rank;
      op.op.assign(entry.op, strnlen(entry.op, sizeof(entry.op)));
      op.peer = entry.peer;
      op.tag = entry.tag;
      op.comm_id = entry.comm_id;
      op.soft = entry.soft != 0;
      report.blocked.push_back(std::move(op));
    }
    return report;
  }

  [[nodiscard]] std::string failure_summary() const {
    if (header_->poison.load(std::memory_order_acquire) != shmlayout::Poison::kRankFailure) {
      return {};
    }
    // Written in full before the poison release-store (see declare_failure).
    const shmlayout::ShmFailureArea* area = layout_.failure(base_);
    RankFailureReport report;
    report.rank = area->rank;
    report.kind = static_cast<FailureKind>(area->kind);
    report.signal = area->signal;
    report.exit_code = area->exit_code;
    report.last_heartbeat_ns = area->last_heartbeat_ns;
    report.detected_ns = area->detected_ns;
    report.site.assign(area->site, strnlen(area->site, sizeof(area->site)));
    report.inflight_total = area->inflight_count;
    const std::uint32_t table =
        std::min<std::uint32_t>(area->inflight_count, shmlayout::kMaxInflight);
    for (std::uint32_t i = 0; i < table; ++i) {
      report.inflight.push_back(InflightOp{area->inflight[i].kind == 0,
                                           area->inflight[i].peer, area->inflight[i].tag});
    }
    return report.to_string();
  }

 private:
  struct PMessage {
    int src{};
    int tag{};
    std::uint64_t epoch{};
    std::vector<std::byte> payload;
    std::vector<Scalar> signature;
  };

  struct PostedRecv {
    int source{};
    int tag{};
    std::uint64_t epoch{};
    void* buffer{};
    std::size_t count{};
    Datatype type;
    Request* request{};
  };

  struct SrcQueues {
    std::deque<PMessage> unexpected;
    std::deque<PostedRecv> posted;
  };

  /// Local mailbox of one communicator, keyed by comm_id. Created lazily so
  /// a message for a communicator this rank hasn't dup'd yet still has a
  /// place to queue (dup timing differs across ranks).
  struct Box {
    explicit Box(int size) : by_src(static_cast<std::size_t>(size)) {}
    std::uint64_t next_epoch{0};
    std::vector<SrcQueues> by_src;
    std::deque<PostedRecv> wildcard;
  };

  struct PendingRecv {
    Request* request;
    int peer;
    int tag;
  };

  [[nodiscard]] Box& box_for(int comm_id) {
    auto it = boxes_.find(comm_id);
    if (it == boxes_.end()) {
      it = boxes_.emplace(comm_id, Box(world())).first;
    }
    return it->second;
  }

  void note_progress() { header_->progress.fetch_add(1, std::memory_order_relaxed); }

  [[nodiscard]] MpiError poison_error() const {
    switch (header_->poison.load(std::memory_order_acquire)) {
      case shmlayout::Poison::kNone:
        return MpiError::kSuccess;
      case shmlayout::Poison::kDeadlock:
        return MpiError::kDeadlock;
      case shmlayout::Poison::kRankFailure:
        return MpiError::kRankFailed;
    }
    return MpiError::kSuccess;
  }

  // -- slot stamping (seqlock) ---------------------------------------------

  template <typename Fn>
  void slot_write(Fn&& fn) {
    slot_->ver.fetch_add(1, std::memory_order_acq_rel);  // odd: write in progress
    fn();
    slot_->ver.fetch_add(1, std::memory_order_release);  // even again
  }

  static void copy_label_n(char (&dst)[shmlayout::kMaxErrorMsg], const char* src) {
    std::strncpy(dst, src == nullptr ? "" : src, sizeof(dst) - 1);
    dst[sizeof(dst) - 1] = '\0';
  }

  void stamp_site(const char* label) {
    slot_write([&] { copy_label(slot_->site, label); });
  }

  void stamp_blocked(const char* label, int peer, int tag, int comm_id, bool active,
                     bool soft) {
    slot_write([&] {
      copy_label(slot_->site, label);
      copy_label(slot_->blocked.op, label);
      slot_->blocked.peer = peer;
      slot_->blocked.tag = tag;
      slot_->blocked.comm_id = comm_id;
      slot_->blocked.active = active ? 1 : 0;
      slot_->blocked.soft = soft ? 1 : 0;
    });
  }

  void clear_blocked() {
    slot_write([&] {
      slot_->blocked.active = 0;
      slot_->blocked.soft = 0;
    });
  }

  void clear_soft() {
    test_polls_ = 0;
    if (soft_blocked_) {
      soft_blocked_ = false;
      clear_blocked();
    }
  }

  void stamp_inflight() {
    slot_write([&] {
      slot_->inflight_count = static_cast<std::uint32_t>(pending_recvs_.size());
      const std::size_t n =
          std::min<std::size_t>(pending_recvs_.size(), shmlayout::kMaxInflight);
      for (std::size_t i = 0; i < n; ++i) {
        slot_->inflight[i].kind = 1;  // recv
        slot_->inflight[i].peer = pending_recvs_[i].peer;
        slot_->inflight[i].tag = pending_recvs_[i].tag;
      }
    });
  }

  void drop_pending(const Request* request) {
    for (auto it = pending_recvs_.begin(); it != pending_recvs_.end(); ++it) {
      if (it->request == request) {
        pending_recvs_.erase(it);
        stamp_inflight();
        return;
      }
    }
  }

  // -- fault plan: rank_kill ------------------------------------------------

  /// Probed at every posted operation (post_send/post_recv entry), making
  /// "the n-th posted MPI operation of rank r" the deterministic kill site.
  void maybe_kill() {
    if (!faultsim::Injector::armed()) {
      return;
    }
    faultsim::SiteContext where;
    where.rank = rank_;
    const auto fired =
        faultsim::Injector::instance().probe(faultsim::Site::kRankKill, where);
    if (!fired) {
      return;
    }
    // Stamp the handshake record first: this process may not get another
    // instruction after the raise, and the supervisor needs the record to
    // import the fired fault into the parent ledger.
    slot_->kill_action = static_cast<std::uint32_t>(fired->action);
    slot_->kill_spec_index = 0;
    slot_->kill_fired.store(1, std::memory_order_release);
    switch (fired->action) {
      case faultsim::Action::kSigkill:
        ::kill(::getpid(), SIGKILL);
        break;
      case faultsim::Action::kSigabrt:
        std::abort();
      case faultsim::Action::kHang:
        // A wedged rank: heartbeats stop, the process never exits on its
        // own. The supervisor's heartbeat timeout must catch it.
        stop_heartbeat();
        while (true) {
          std::this_thread::sleep_for(std::chrono::seconds(1));
        }
      default:
        break;
    }
  }

  void stop_heartbeat() {
    heartbeat_stop_.store(true, std::memory_order_relaxed);
    if (heartbeat_.joinable()) {
      heartbeat_.join();
    }
  }

  // -- transport proper -----------------------------------------------------

  /// Publish a record to dest's ring, blocking while it is full. The loop
  /// drains our own rings (a send-send cycle of full rings must not wedge),
  /// honours poisoning, and drops the message if the destination has already
  /// exited cleanly (an eager message nobody will ever receive — exactly
  /// what the thread backend's mailbox would have held until teardown).
  MpiError publish_blocking(int dest, int tag, const shmring::RecordHdr& hdr,
                            std::span<const std::byte> sig, std::span<const std::byte> body) {
    shmring::Ring ring = layout_.ring(base_, rank_, dest);
    if (shmring::try_publish(ring, hdr, sig, body)) {
      note_progress();
      return MpiError::kSuccess;
    }
    detail::bump(*proc_counters().ring_full_backoffs);
    stamp_blocked(current_op_label("MPI_Send"), dest, tag, hdr.comm_id,
                  /*active=*/true, /*soft=*/false);
    MpiError result = MpiError::kSuccess;
    int round = 0;
    while (true) {
      drain_rings();
      if (shmring::try_publish(ring, hdr, sig, body)) {
        note_progress();
        break;
      }
      if (result = poison_error(); result != MpiError::kSuccess) {
        break;
      }
      const auto dest_state =
          layout_.slot(base_, dest)->state.load(std::memory_order_acquire);
      if (dest_state == shmlayout::RankState::kExited ||
          dest_state == shmlayout::RankState::kAppError) {
        detail::bump(*proc_counters().sends_dropped_dead);
        break;  // destination gone for good: the message can never be drained
      }
      poll_backoff(round);
    }
    clear_blocked();
    return result;
  }

  /// Drain every ring targeting this rank, routing records into the local
  /// mailboxes (or straight into matching posted receives — the map-once
  /// unpack path).
  void drain_rings() {
    for (int src = 0; src < world(); ++src) {
      if (src == rank_) {
        continue;
      }
      shmring::Ring ring = layout_.ring(base_, src, rank_);
      shmring::drain(ring, [&](const shmring::RecordHdr& hdr, const std::byte* sig,
                               const std::byte* body) {
        const std::span<const Scalar> sig_span(reinterpret_cast<const Scalar*>(sig),
                                               hdr.sig_count);
        if (hdr.kind == shmring::RecordKind::kMessage) {
          route_payload(hdr.comm_id, src, hdr.tag,
                        std::span<const std::byte>(body, hdr.payload_bytes), sig_span);
        } else if (hdr.kind == shmring::RecordKind::kRendezvous) {
          receive_rendezvous(hdr, src, reinterpret_cast<const char*>(body));
        }
        note_progress();
      });
    }
  }

  void receive_rendezvous(const shmring::RecordHdr& hdr, int src, const char* name) {
    std::string error;
    shm::Segment seg = shm::Segment::open(name, &error);
    if (!seg.valid()) {
      return;  // sender died between create and publish — nothing to deliver
    }
    const auto* base = static_cast<const std::byte*>(seg.data());
    const std::size_t sig_count =
        seg.size() > hdr.payload_bytes ? seg.size() - hdr.payload_bytes : 0;
    route_payload(hdr.comm_id, src, hdr.tag,
                  std::span<const std::byte>(base, hdr.payload_bytes),
                  std::span<const Scalar>(
                      reinterpret_cast<const Scalar*>(base + hdr.payload_bytes), sig_count));
    seg.unlink();  // consumed: drop the name, the mapping dies with `seg`
  }

  /// Match-or-queue: deliver into the oldest accepting posted receive
  /// (specific vs wildcard by epoch, as one merged queue would), else copy
  /// into the unexpected queue.
  void route_payload(int comm_id, int src, int tag, std::span<const std::byte> payload,
                     std::span<const Scalar> sig) {
    Box& box = box_for(comm_id);
    std::deque<PostedRecv>& per_src = box.by_src[static_cast<std::size_t>(src)].posted;
    const auto specific = std::find_if(per_src.begin(), per_src.end(), [&](const PostedRecv& p) {
      return tag_accepts(p.tag, tag);
    });
    const auto wildcard =
        std::find_if(box.wildcard.begin(), box.wildcard.end(),
                     [&](const PostedRecv& p) { return tag_accepts(p.tag, tag); });
    const bool have_specific = specific != per_src.end();
    const bool have_wildcard = wildcard != box.wildcard.end();
    if (have_specific || have_wildcard) {
      const bool use_specific =
          have_specific && (!have_wildcard || specific->epoch < wildcard->epoch);
      PostedRecv posted = use_specific ? *specific : *wildcard;
      if (use_specific) {
        per_src.erase(specific);
      } else {
        box.wildcard.erase(wildcard);
      }
      deliver(src, tag, payload, sig, posted);
      return;
    }
    PMessage msg;
    msg.src = src;
    msg.tag = tag;
    msg.epoch = box.next_epoch++;
    msg.payload.assign(payload.begin(), payload.end());
    msg.signature.assign(sig.begin(), sig.end());
    box.by_src[static_cast<std::size_t>(src)].unexpected.push_back(std::move(msg));
  }

  /// Unpack into the posted buffer and complete the request — the same
  /// truncation and signature-matching rules as the thread backend's
  /// deliver (byte-like sides are untyped views and match anything).
  void deliver(int src, int tag, std::span<const std::byte> payload,
               std::span<const Scalar> sig, const PostedRecv& posted) {
    const std::size_t elem_packed = posted.type.packed_size();
    const std::size_t capacity_elems = posted.count;
    const std::size_t msg_elems = elem_packed != 0 ? payload.size() / elem_packed : 0;
    const bool truncated = msg_elems > capacity_elems;
    const std::size_t deliver_elems = truncated ? capacity_elems : msg_elems;
    posted.type.unpack(payload.data(), deliver_elems, posted.buffer);

    const auto all_byte_like = [](std::span<const Scalar> s) {
      for (const Scalar scalar : s) {
        if (scalar != Scalar::kByte && scalar != Scalar::kChar) {
          return false;
        }
      }
      return true;
    };
    std::vector<Scalar> recv_sig;
    posted.type.signature(deliver_elems, recv_sig);
    bool mismatch = false;
    if (!all_byte_like(recv_sig) && !all_byte_like(sig)) {
      mismatch = recv_sig.size() > sig.size();
      if (!mismatch) {
        for (std::size_t i = 0; i < recv_sig.size(); ++i) {
          if (recv_sig[i] != sig[i]) {
            mismatch = true;
            break;
          }
        }
      }
    }

    CUSAN_ASSERT(posted.request != nullptr);
    posted.request->status_ =
        Status{src, tag, deliver_elems * elem_packed,
               truncated ? MpiError::kTruncate : MpiError::kSuccess, mismatch};
    posted.request->complete_.store(true, std::memory_order_release);
    drop_pending(posted.request);
    note_progress();
  }

  /// Poll until `pred` holds: drain → predicate → poison → back off. The
  /// blocked op is stamped into the rank slot so the supervisor's
  /// all-blocked deadlock check and failure reports can describe it.
  template <typename Pred>
  MpiError blocked_wait(const char* label, int peer, int tag, int comm_id, Pred&& pred) {
    clear_soft();
    drain_rings();
    if (pred()) {
      return MpiError::kSuccess;
    }
    stamp_blocked(label, peer, tag, comm_id, /*active=*/true, /*soft=*/false);
    MpiError result = MpiError::kSuccess;
    int round = 0;
    while (true) {
      drain_rings();
      if (pred()) {
        break;
      }
      if (result = poison_error(); result != MpiError::kSuccess) {
        break;
      }
      poll_backoff(round);
    }
    clear_blocked();
    return result;
  }

  void* base_;
  shmlayout::Layout layout_;
  int rank_;
  std::string seg_prefix_;
  shmlayout::SegHeader* header_;
  shmlayout::RankSlot* slot_;

  std::map<int, Box> boxes_;
  std::vector<PendingRecv> pending_recvs_;
  std::vector<Scalar> sig_scratch_;
  std::vector<std::byte> send_scratch_;
  std::uint64_t rendezvous_seq_{0};

  int test_polls_{0};
  bool soft_blocked_{false};

  std::thread heartbeat_;
  std::atomic<bool> heartbeat_stop_{true};
};

// -- ProcCommImpl -----------------------------------------------------------

ProcCommImpl::ProcCommImpl(std::shared_ptr<ProcTransport> transport, int comm_id)
    : CommImpl(transport->world()), transport_(std::move(transport)), comm_id_(comm_id) {}

int ProcCommImpl::size() const { return transport_->world(); }

bool ProcCommImpl::deadlocked() const { return transport_->deadlocked(); }

DeadlockReport ProcCommImpl::deadlock_report() const { return transport_->deadlock_report(); }

std::string ProcCommImpl::failure_summary() const { return transport_->failure_summary(); }

/// The rank's k-th dup maps to comm_id parent+k+1 (MPI's same-order
/// collective-call rule makes the ids agree across ranks, mirroring the
/// thread backend's child-context numbering).
std::shared_ptr<CommImpl> ProcCommImpl::dup_for_rank(int rank) {
  (void)rank;  // one process == one rank; the transport is already ours
  const std::size_t k = dup_count_++;
  if (k >= children_.size()) {
    children_.push_back(
        std::make_shared<ProcCommImpl>(transport_, comm_id_ + static_cast<int>(k) + 1));
  }
  return children_[k];
}

MpiError ProcCommImpl::post_send(int src, int dest, int tag, const void* buf, std::size_t count,
                                 const Datatype& type) {
  (void)src;
  return transport_->post_send(comm_id_, dest, tag, buf, count, type);
}

MpiError ProcCommImpl::post_recv(int dest, int source, int tag, void* buf, std::size_t count,
                                 const Datatype& type, Request* request) {
  (void)dest;
  return transport_->post_recv(comm_id_, source, tag, buf, count, type, request);
}

MpiError ProcCommImpl::wait(int rank, Request** request, Status* status) {
  (void)rank;
  return transport_->wait(comm_id_, request, status);
}

MpiError ProcCommImpl::test(int rank, Request** request, bool* completed, Status* status) {
  (void)rank;
  return transport_->test(comm_id_, request, completed, status);
}

MpiError ProcCommImpl::waitany(int rank, std::span<Request*> requests, int* index,
                               Status* status) {
  (void)rank;
  return transport_->waitany(comm_id_, requests, index, status);
}

MpiError ProcCommImpl::probe(int rank, int source, int tag, bool blocking, bool* flag,
                             Status* status) {
  (void)rank;
  return transport_->probe(comm_id_, source, tag, blocking, flag, status);
}

void ProcCommImpl::complete_send_request(Request* req, std::size_t bytes) {
  transport_->complete_send_request(req, bytes);
}

MpiError ProcCommImpl::stall(int rank, const char* op_name, int peer, int tag,
                             std::uint64_t fault_id) {
  (void)rank;
  return transport_->stall(comm_id_, op_name, peer, tag, fault_id);
}

// -- proc:: free functions --------------------------------------------------

namespace proc {

std::uint32_t default_ring_bytes(int world_size) {
  // Scale so the N×N grid stays within ~64 MiB total.
  const std::uint64_t n = static_cast<std::uint64_t>(world_size);
  const std::uint64_t budget = 64ULL * 1024 * 1024 / (n * n);
  return shmring::align_up(std::clamp<std::uint64_t>(budget, 16 * 1024, 256 * 1024), 64);
}

std::uint32_t default_eager_max(std::uint32_t ring_bytes) {
  return std::min<std::uint32_t>(ring_bytes / 8, 32 * 1024);
}

std::shared_ptr<ProcTransport> make_transport(void* base, const shmlayout::Layout& layout,
                                              int rank, std::string seg_prefix) {
  auto transport =
      std::make_shared<ProcTransport>(base, layout, rank, std::move(seg_prefix));
  g_current_transport = transport.get();
  return transport;
}

std::shared_ptr<CommImpl> root_comm(const std::shared_ptr<ProcTransport>& t) {
  return std::make_shared<ProcCommImpl>(t, /*comm_id=*/0);
}

void start(ProcTransport& t) { t.start(); }
void finalize_clean(ProcTransport& t) { t.finalize_clean(); }
void finalize_error(ProcTransport& t, const char* what) { t.finalize_error(what); }
void publish_result(ProcTransport& t, std::span<const std::byte> bytes) {
  t.publish_result(bytes);
}

ProcTransport* current_transport() { return g_current_transport; }

}  // namespace proc

}  // namespace mpisim
