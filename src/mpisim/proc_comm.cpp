#include "mpisim/proc_comm.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
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
#include "mpisim/matching.hpp"
#include "mpisim/op_scope.hpp"
#include "mpisim/request.hpp"
#include "mpisim/shm.hpp"

namespace mpisim {

namespace {

/// Yield rounds before a blocked wait falls back to sleeping polls.
constexpr int kSpinRounds = 64;

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

ProcTransport* g_current_transport = nullptr;

void copy_label(char (&dst)[shmlayout::kMaxSite], const char* src) {
  std::strncpy(dst, src == nullptr ? "" : src, sizeof(dst) - 1);
  dst[sizeof(dst) - 1] = '\0';
}

}  // namespace

// The child-side transport. Single app thread per process (plus the
// heartbeat stamper, which only touches its own slot's plain atomics), so the
// local mailboxes (matching.hpp) need no locks — all cross-process
// synchronization is the rings' head/tail pairs and the poison word.
// ProcCommImpl's request calls block through blocked_wait.
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

  /// The communicators publish into this rank's slot (the proc backend's
  /// row of the blocked-rank table) and read the poison word.
  friend class ProcCommImpl;

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
      detail::proc_transport("mpisim.proc.eager_msgs").increment();
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
    detail::proc_transport("mpisim.proc.rendezvous_msgs").increment();
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
    drain_rings();

    PostedRecv posted{source, tag, 0, buf, count, type, request};
    Mailbox& box = box_for(comm_id);
    if (std::optional<Message> msg = box.take_unexpected(rank_, source, tag)) {
      complete(posted, deliver(*msg, posted));
      return MpiError::kSuccess;
    }
    box.post(std::move(posted));
    pending_recvs_.push_back({request, source, tag});
    stamp_inflight();
    return MpiError::kSuccess;
  }

  /// The supervisor declares deadlocks for this world (timeout > 0).
  [[nodiscard]] bool watched() const { return header_->watchdog_ms > 0; }

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

  /// Local mailbox of one communicator, keyed by comm_id. Created lazily so
  /// a message for a communicator this rank hasn't dup'd yet still has a
  /// place to queue (dup timing differs across ranks).
  [[nodiscard]] Mailbox& box_for(int comm_id) {
    auto it = boxes_.find(comm_id);
    if (it == boxes_.end()) {
      it = boxes_.emplace(comm_id, Mailbox(world())).first;
    }
    return it->second;
  }

  void note_progress() { header_->progress.fetch_add(1, std::memory_order_relaxed); }

  /// This process's one rank's Test-poll streak, across its communicators.
  TestStreak streak;

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

  /// Poll until `pred` holds: drain → predicate → poison → back off. The
  /// blocked op is stamped into the rank slot so the supervisor's
  /// all-blocked deadlock check and failure reports can describe it.
  template <typename Pred>
  MpiError blocked_wait(const char* label, int peer, int tag, int comm_id, Pred&& pred) {
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

 private:
  struct PendingRecv {
    Request* request;
    int peer;
    int tag;
  };

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
    detail::proc_transport("mpisim.proc.ring_full_backoffs").increment();
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
        detail::proc_transport("mpisim.proc.sends_dropped_dead").increment();
        break;  // destination gone for good: the message can never be drained
      }
      poll_backoff(round);
    }
    clear_blocked();
    return result;
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

  /// Match-or-queue: deliver into the oldest accepting posted receive, else
  /// copy into the unexpected queue.
  void route_payload(int comm_id, int src, int tag, std::span<const std::byte> payload,
                     std::span<const Scalar> sig) {
    Mailbox& box = box_for(comm_id);
    if (std::optional<PostedRecv> posted = box.take_posted(src, tag)) {
      complete(*posted, deliver(src, tag, payload, sig, *posted));
      return;
    }
    box.queue_unexpected(Message{src, tag, 0, {payload.begin(), payload.end()},
                                 {sig.begin(), sig.end()}});
  }

  void complete(const PostedRecv& posted, const Status& st) {
    CommImpl::publish_status(posted.request, st);
    drop_pending(posted.request);
    note_progress();
  }

  void* base_;
  shmlayout::Layout layout_;
  int rank_;
  std::string seg_prefix_;
  shmlayout::SegHeader* header_;
  shmlayout::RankSlot* slot_;

  std::map<int, Mailbox> boxes_;
  std::vector<PendingRecv> pending_recvs_;
  std::vector<Scalar> sig_scratch_;
  std::vector<std::byte> send_scratch_;
  std::uint64_t rendezvous_seq_{0};

  std::thread heartbeat_;
  std::atomic<bool> heartbeat_stop_{true};
};

// -- ProcCommImpl -----------------------------------------------------------

auto ProcCommImpl::blocker(int rank) {
  return [this, rank](const char* label, int peer, int tag, auto&& pred) {
    clear_soft(rank);
    return transport_->blocked_wait(label, peer, tag, comm_id_, pred);
  };
}

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
  clear_soft(src);
  return transport_->post_send(comm_id_, dest, tag, buf, count, type);
}

MpiError ProcCommImpl::post_recv(int dest, int source, int tag, void* buf, std::size_t count,
                                 const Datatype& type, Request* request) {
  clear_soft(dest);
  return transport_->post_recv(comm_id_, source, tag, buf, count, type, request);
}

MpiError ProcCommImpl::wait(int rank, Request** request, Status* status) {
  return wait_with(request, status, blocker(rank));
}

MpiError ProcCommImpl::waitany(int rank, std::span<Request*> requests, int* index,
                               Status* status) {
  return waitany_with(rank, requests, index, status, blocker(rank));
}

MpiError ProcCommImpl::probe(int rank, int source, int tag, bool blocking, bool* flag,
                             Status* status) {
  transport_->drain_rings();
  Mailbox& box = transport_->box_for(comm_id_);
  return probe_with(source, tag, blocking, flag, status, [&] { return box.peek(source, tag); },
                    blocker(rank));
}

void ProcCommImpl::complete_send_request(Request* req, std::size_t bytes) {
  publish_status(req, Status{-1, -1, bytes, MpiError::kSuccess});
  transport_->note_progress();
}

MpiError ProcCommImpl::poison() const { return transport_->poison_error(); }

bool ProcCommImpl::watched() const { return transport_->watched(); }

void ProcCommImpl::publish_soft_block(int rank, const char* label, int peer, int tag) {
  (void)rank;
  transport_->stamp_blocked(label, peer, tag, comm_id_, /*active=*/false, /*soft=*/true);
}

void ProcCommImpl::clear_blocked(int rank) {
  (void)rank;
  transport_->clear_blocked();
}

MpiError ProcCommImpl::park(int rank, const char* label, int peer, int tag) {
  return blocker(rank)(label, peer, tag, [] { return false; });
}

TestStreak& ProcCommImpl::test_streak(int rank) {
  (void)rank;  // one process == one rank
  return transport_->streak;
}

void ProcCommImpl::poll(int rank) {
  (void)rank;
  transport_->drain_rings();
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
