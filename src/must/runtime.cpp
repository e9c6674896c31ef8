#include "must/runtime.hpp"

#include <cstdio>

#include "common/assert.hpp"
#include "common/format.hpp"
#include "obs/diagnostics.hpp"
#include "obs/ring.hpp"

namespace must {

namespace {

/// Stable diagnostic id per MUST error class (the DiagnosticSink contract:
/// ids never change across releases, messages may).
[[nodiscard]] constexpr const char* diagnostic_id(ReportKind kind) {
  switch (kind) {
    case ReportKind::kTypeMismatch:
      return "must.type_mismatch";
    case ReportKind::kBufferOverflow:
      return "must.buffer_overflow";
    case ReportKind::kUntrackedBuffer:
      return "must.untracked_buffer";
    case ReportKind::kRequestLeak:
      return "must.request_leak";
    case ReportKind::kSignatureMismatch:
      return "must.signature_mismatch";
    case ReportKind::kDeadlock:
      return "must.deadlock";
    case ReportKind::kRankFailure:
      return "must.rank_failure";
  }
  return "must.report";
}

[[nodiscard]] constexpr obs::Severity diagnostic_severity(ReportKind kind) {
  // Untracked buffers are advisory (stack buffers trip them); everything
  // else is a correctness error.
  return kind == ReportKind::kUntrackedBuffer ? obs::Severity::kWarning : obs::Severity::kError;
}

/// Forward a freshly filed MustReport into the obs diagnostics hub.
void emit_report_diagnostic(const MustReport& report) {
  obs::emit_diagnostic({diagnostic_id(report.kind), diagnostic_severity(report.kind),
                        obs::bound_rank(),
                        common::format("{}: {} — {}", report.mpi_call, to_string(report.kind),
                                       report.detail),
                        0});
}

}  // namespace

Runtime::Runtime(rsan::Runtime* tsan, typeart::Runtime* types, obs::MetricsRegistry& metrics,
                 Config config)
    : tsan_(tsan), types_(types), config_(config), metrics_(metrics) {
  CUSAN_ASSERT(tsan != nullptr && types != nullptr);
}

// -- helpers --------------------------------------------------------------------

void Runtime::annotate_datatype_range(const void* buf, std::size_t count,
                                      const mpisim::Datatype& type, bool is_write,
                                      const char* label) {
  if (!config_.check_races || buf == nullptr || count == 0) {
    return;
  }
  const auto* base = static_cast<const std::byte*>(buf);
  if (type.is_contiguous()) {
    const std::size_t bytes = type.extent() * count;
    if (is_write) {
      tsan_->write_range(base, bytes, label);
    } else {
      tsan_->read_range(base, bytes, label);
    }
    return;
  }
  // Non-contiguous datatype: annotate only the bytes MPI actually touches,
  // per layout entry, so accesses to the holes do not produce false races.
  for (std::size_t i = 0; i < count; ++i) {
    const std::byte* elem = base + i * type.extent();
    for (const auto& entry : type.layout()) {
      const std::size_t n = scalar_size(entry.scalar);
      if (is_write) {
        tsan_->write_range(elem + entry.offset, n, label);
      } else {
        tsan_->read_range(elem + entry.offset, n, label);
      }
    }
  }
}

void Runtime::run_type_check(const char* mpi_call, const void* buf, std::size_t count,
                             const mpisim::Datatype& type) {
  if (!config_.check_types || buf == nullptr || count == 0) {
    return;
  }
  metrics_.slot("must.type_checks").increment_owned();
  TypeCheckOutcome outcome = check_buffer(*types_, buf, count, type);
  if (outcome.result == TypeCheckResult::kOk) {
    return;
  }
  if (outcome.result == TypeCheckResult::kUntrackedBuffer && !config_.report_untracked) {
    return;
  }
  metrics_.slot("must.type_errors").increment_owned();
  ReportKind kind = ReportKind::kUntrackedBuffer;
  if (outcome.result == TypeCheckResult::kTypeMismatch) {
    kind = ReportKind::kTypeMismatch;
  } else if (outcome.result == TypeCheckResult::kBufferOverflow) {
    kind = ReportKind::kBufferOverflow;
  }
  reports_.push_back(MustReport{kind, mpi_call, std::move(outcome.detail)});
  emit_report_diagnostic(reports_.back());
}

rsan::CtxId Runtime::acquire_fiber() {
  if (!fiber_pool_.empty()) {
    const rsan::CtxId id = fiber_pool_.back();
    fiber_pool_.pop_back();
    metrics_.slot("must.request_fibers_reused").increment_owned();
    return id;
  }
  metrics_.slot("must.request_fibers_created").increment_owned();
  return tsan_->create_fiber(rsan::CtxKind::kMpiRequestFiber,
                             common::format("MPI request fiber {}", ++request_fibers_));
}

// -- blocking p2p ------------------------------------------------------------------

void Runtime::on_send(const void* buf, std::size_t count, const mpisim::Datatype& type) {
  metrics_.slot("must.calls_intercepted").increment_owned();
  run_type_check("MPI_Send", buf, count, type);
  annotate_datatype_range(buf, count, type, /*is_write=*/false, "MPI_Send buffer (read)");
}

void Runtime::on_recv(void* buf, std::size_t count, const mpisim::Datatype& type) {
  metrics_.slot("must.calls_intercepted").increment_owned();
  run_type_check("MPI_Recv", buf, count, type);
  annotate_datatype_range(buf, count, type, /*is_write=*/true, "MPI_Recv buffer (write)");
}

// -- non-blocking p2p -----------------------------------------------------------------

void Runtime::on_isend(const void* buf, std::size_t count, const mpisim::Datatype& type,
                       const mpisim::Request* request) {
  metrics_.slot("must.calls_intercepted").increment_owned();
  run_type_check("MPI_Isend", buf, count, type);
  if (!config_.check_races || request == nullptr) {
    return;
  }
  auto [it, inserted] = pending_.emplace(request, PendingRequest{});
  CUSAN_ASSERT_MSG(inserted, "request already tracked");
  PendingRequest& pr = it->second;
  pr.fiber = acquire_fiber();
  pr.call = "MPI_Isend";
  if (obs::tracing_enabled()) {
    pr.track = obs::request_track(static_cast<std::uint32_t>(next_request_ordinal_++));
    pr.start_ns = obs::trace_now_ns();
  }
  // Host -> fiber ordering at issue time (the request sees all prior host
  // writes to the buffer), then the buffer access on the request fiber, then
  // the arc that Wait will terminate (paper Fig. 1, mirrored for Isend).
  tsan_->happens_before(&pr.key);
  tsan_->switch_to_fiber(pr.fiber);
  tsan_->happens_after(&pr.key);
  annotate_datatype_range(buf, count, type, /*is_write=*/false, "MPI_Isend buffer (read)");
  tsan_->happens_before(&pr.key);
  tsan_->switch_to_fiber(tsan_->host_ctx());
}

void Runtime::on_irecv(void* buf, std::size_t count, const mpisim::Datatype& type,
                       const mpisim::Request* request) {
  metrics_.slot("must.calls_intercepted").increment_owned();
  run_type_check("MPI_Irecv", buf, count, type);
  if (!config_.check_races || request == nullptr) {
    return;
  }
  auto [it, inserted] = pending_.emplace(request, PendingRequest{});
  CUSAN_ASSERT_MSG(inserted, "request already tracked");
  PendingRequest& pr = it->second;
  pr.fiber = acquire_fiber();
  pr.call = "MPI_Irecv";
  if (obs::tracing_enabled()) {
    pr.track = obs::request_track(static_cast<std::uint32_t>(next_request_ordinal_++));
    pr.start_ns = obs::trace_now_ns();
  }
  tsan_->happens_before(&pr.key);
  tsan_->switch_to_fiber(pr.fiber);
  tsan_->happens_after(&pr.key);
  annotate_datatype_range(buf, count, type, /*is_write=*/true, "MPI_Irecv buffer (write)");
  tsan_->happens_before(&pr.key);
  tsan_->switch_to_fiber(tsan_->host_ctx());
}

void Runtime::on_complete(const mpisim::Request* request) {
  metrics_.slot("must.calls_intercepted").increment_owned();
  const auto it = pending_.find(request);
  if (it == pending_.end()) {
    return;  // races unchecked, or request not tracked
  }
  if (it->second.start_ns != 0 && obs::tracing_enabled()) {
    // The request's concurrent region as a span on its own fiber track,
    // issue -> completion (paper Fig. 1's lifetime, rendered as a timeline).
    obs::Event event;
    event.ts_ns = it->second.start_ns;
    const std::uint64_t end_ns = obs::trace_now_ns();
    event.dur_ns = end_ns > event.ts_ns ? end_ns - event.ts_ns : 1;
    event.rank = obs::bound_rank();
    event.track = it->second.track;
    event.kind = obs::EventKind::kRequest;
    std::snprintf(event.name, sizeof(event.name), "%s", it->second.call);
    obs::emit_event(event);
  }
  // MPI_Wait: the request's concurrent region ends; synchronize fiber -> host.
  tsan_->happens_after(&it->second.key);
  tsan_->release_sync_object(&it->second.key);
  fiber_pool_.push_back(it->second.fiber);
  pending_.erase(it);
}

void Runtime::on_gather(const void* sendbuf, std::size_t count, const mpisim::Datatype& type,
                        void* recvbuf, bool is_root, int comm_size) {
  metrics_.slot("must.calls_intercepted").increment_owned();
  run_type_check("MPI_Gather", sendbuf, count, type);
  annotate_datatype_range(sendbuf, count, type, /*is_write=*/false,
                          "MPI_Gather send buffer (read)");
  if (is_root) {
    annotate_datatype_range(recvbuf, count * static_cast<std::size_t>(comm_size), type,
                            /*is_write=*/true, "MPI_Gather recv buffer (write)");
  }
}

void Runtime::on_scatter(const void* sendbuf, std::size_t count, const mpisim::Datatype& type,
                         void* recvbuf, bool is_root, int comm_size) {
  metrics_.slot("must.calls_intercepted").increment_owned();
  run_type_check("MPI_Scatter", recvbuf, count, type);
  if (is_root) {
    annotate_datatype_range(sendbuf, count * static_cast<std::size_t>(comm_size), type,
                            /*is_write=*/false, "MPI_Scatter send buffer (read)");
  }
  annotate_datatype_range(recvbuf, count, type, /*is_write=*/true,
                          "MPI_Scatter recv buffer (write)");
}

void Runtime::on_receive_status(const char* mpi_call, const mpisim::Status& status) {
  if (!status.signature_mismatch) {
    return;
  }
  metrics_.slot("must.signature_mismatches").increment_owned();
  reports_.push_back(MustReport{
      ReportKind::kSignatureMismatch, mpi_call,
      common::format("message from rank {} (tag {}) was sent with a type signature "
                     "incompatible with the receive datatype",
                     status.source, status.tag)});
  emit_report_diagnostic(reports_.back());
}

void Runtime::on_deadlock(int rank, const mpisim::DeadlockReport& report) {
  if (deadlock_reported_ || report.empty()) {
    return;
  }
  deadlock_reported_ = true;
  metrics_.slot("must.deadlocks_reported").increment_owned();
  const mpisim::BlockedOp* own = report.for_rank(rank);
  reports_.push_back(MustReport{ReportKind::kDeadlock,
                                own != nullptr ? own->op : std::string("MPI (blocked)"),
                                report.to_string()});
  emit_report_diagnostic(reports_.back());
}

void Runtime::on_rank_failure(int rank, const std::string& detail) {
  (void)rank;
  if (rank_failure_reported_) {
    return;
  }
  rank_failure_reported_ = true;
  metrics_.slot("must.rank_failures_reported").increment_owned();
  reports_.push_back(MustReport{ReportKind::kRankFailure, "MPI (poisoned)",
                                detail.empty() ? "a peer rank process died" : detail});
  emit_report_diagnostic(reports_.back());
}

void Runtime::on_finalize() {
  for (const auto& [request, pr] : pending_) {
    metrics_.slot("must.request_leaks").increment_owned();
    reports_.push_back(MustReport{
        ReportKind::kRequestLeak, pr.call,
        common::format("request {} was never completed (missing MPI_Wait/MPI_Test); its "
                       "concurrent region extends to MPI_Finalize",
                       static_cast<const void*>(request))});
    emit_report_diagnostic(reports_.back());
  }
}

// -- collectives ---------------------------------------------------------------------

void Runtime::on_barrier() { metrics_.slot("must.calls_intercepted").increment_owned(); }

void Runtime::on_bcast(void* buf, std::size_t count, const mpisim::Datatype& type, bool is_root) {
  metrics_.slot("must.calls_intercepted").increment_owned();
  run_type_check("MPI_Bcast", buf, count, type);
  if (is_root) {
    annotate_datatype_range(buf, count, type, /*is_write=*/false, "MPI_Bcast buffer (read)");
  } else {
    annotate_datatype_range(buf, count, type, /*is_write=*/true, "MPI_Bcast buffer (write)");
  }
}

void Runtime::on_reduce(const void* sendbuf, void* recvbuf, std::size_t count,
                        const mpisim::Datatype& type, bool is_root) {
  metrics_.slot("must.calls_intercepted").increment_owned();
  run_type_check("MPI_Reduce", sendbuf, count, type);
  annotate_datatype_range(sendbuf, count, type, /*is_write=*/false, "MPI_Reduce send buffer (read)");
  if (is_root && recvbuf != sendbuf) {
    annotate_datatype_range(recvbuf, count, type, /*is_write=*/true,
                            "MPI_Reduce recv buffer (write)");
  }
}

void Runtime::on_allreduce(const void* sendbuf, void* recvbuf, std::size_t count,
                           const mpisim::Datatype& type) {
  metrics_.slot("must.calls_intercepted").increment_owned();
  run_type_check("MPI_Allreduce", sendbuf, count, type);
  if (sendbuf != recvbuf) {
    annotate_datatype_range(sendbuf, count, type, /*is_write=*/false,
                            "MPI_Allreduce send buffer (read)");
  }
  annotate_datatype_range(recvbuf, count, type, /*is_write=*/true,
                          "MPI_Allreduce recv buffer (write)");
}

void Runtime::on_allgather(const void* sendbuf, std::size_t count, const mpisim::Datatype& type,
                           void* recvbuf, int comm_size) {
  metrics_.slot("must.calls_intercepted").increment_owned();
  run_type_check("MPI_Allgather", sendbuf, count, type);
  annotate_datatype_range(sendbuf, count, type, /*is_write=*/false,
                          "MPI_Allgather send buffer (read)");
  annotate_datatype_range(recvbuf, count * static_cast<std::size_t>(comm_size), type,
                          /*is_write=*/true, "MPI_Allgather recv buffer (write)");
}

}  // namespace must
