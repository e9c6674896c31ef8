// The proc backend's child-side transport. After the supervisor forks a
// rank, the child builds one ProcTransport over the inherited world-segment
// mapping: per-communicator mailboxes (the matching engine both backends
// share, matching.hpp), fed by draining the rank's column of SPSC
// shared-memory rings. Blocking calls poll: drain own rings → check the
// predicate → check the poison word → back off. There is no cross-process
// lock to block on — which is precisely why a dying peer can never wedge a
// survivor (the supervisor's poison store is the only wakeup needed).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mpisim/comm_impl.hpp"
#include "mpisim/shm_layout.hpp"

namespace mpisim {

class ProcTransport;

/// One communicator (world or dup) of a forked rank; thin facade over the
/// shared ProcTransport.
class ProcCommImpl final : public CommImpl {
 public:
  ProcCommImpl(std::shared_ptr<ProcTransport> transport, int comm_id);

  [[nodiscard]] int size() const override;
  [[nodiscard]] int comm_id() const override { return comm_id_; }
  [[nodiscard]] bool deadlocked() const override;
  [[nodiscard]] DeadlockReport deadlock_report() const override;
  [[nodiscard]] std::string failure_summary() const override;
  [[nodiscard]] std::shared_ptr<CommImpl> dup_for_rank(int rank) override;

  MpiError post_send(int src, int dest, int tag, const void* buf, std::size_t count,
                     const Datatype& type) override;
  MpiError post_recv(int dest, int source, int tag, void* buf, std::size_t count,
                     const Datatype& type, Request* request) override;
  MpiError wait(int rank, Request** request, Status* status) override;
  MpiError waitany(int rank, std::span<Request*> requests, int* index, Status* status) override;
  MpiError probe(int rank, int source, int tag, bool blocking, bool* flag,
                 Status* status) override;
  void complete_send_request(Request* req, std::size_t bytes) override;

 private:
  [[nodiscard]] MpiError poison() const override;
  [[nodiscard]] bool watched() const override;
  void publish_soft_block(int rank, const char* label, int peer, int tag) override;
  void clear_blocked(int rank) override;
  MpiError park(int rank, const char* label, int peer, int tag) override;
  [[nodiscard]] TestStreak& test_streak(int rank) override;
  void poll(int rank) override;
  /// The blocking primitive of the shared request helpers (CommImpl).
  [[nodiscard]] auto blocker(int rank);

  std::shared_ptr<ProcTransport> transport_;
  int comm_id_;
  std::size_t dup_count_{0};
  std::vector<std::shared_ptr<ProcCommImpl>> children_;
};

namespace proc {

/// Per-ring data bytes, scaled so the N×N grid stays within ~64 MiB
/// (min 16 KiB, max 256 KiB per ring).
[[nodiscard]] std::uint32_t default_ring_bytes(int world_size);

/// Largest eager record (header+signature+payload): ring/8, at most
/// 32 KiB; bigger payloads take the rendezvous path.
[[nodiscard]] std::uint32_t default_eager_max(std::uint32_t ring_bytes);

/// Child-side bootstrap, called once right after fork. `seg_prefix` is the
/// world-segment name without the leading '/' suffix part (used to derive
/// rendezvous / result segment names).
[[nodiscard]] std::shared_ptr<ProcTransport> make_transport(void* base,
                                                            const shmlayout::Layout& layout,
                                                            int rank,
                                                            std::string seg_prefix);

/// The world communicator (comm_id 0) of a transport.
[[nodiscard]] std::shared_ptr<CommImpl> root_comm(const std::shared_ptr<ProcTransport>& t);

/// Stamp state kRunning and start the heartbeat thread.
void start(ProcTransport& t);
/// Clean exit: state kExited, progress bump, heartbeat stopped.
void finalize_clean(ProcTransport& t);
/// rank_main threw: record the message, state kAppError, heartbeat stopped.
void finalize_error(ProcTransport& t, const char* what);
/// Publish this rank's opaque result blob (a named segment the supervisor
/// collects at teardown).
void publish_result(ProcTransport& t, std::span<const std::byte> bytes);

/// The transport of the current (child) process, if any — set between
/// make_transport and process exit; World::publish_result routes here.
[[nodiscard]] ProcTransport* current_transport();

}  // namespace proc

}  // namespace mpisim
