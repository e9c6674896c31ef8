#include "capi/mpi.hpp"

#include <vector>

namespace capi::mpi {
namespace {

[[nodiscard]] must::Runtime* must_rt() {
  ToolContext* ctx = ToolContext::current();
  return ctx != nullptr ? ctx->must_rt() : nullptr;
}

/// Deliver a world-level verdict to MUST (one structured report per rank
/// runtime): the watchdog's deadlock declaration, or — proc backend — the
/// supervisor's rank-failure poisoning. Returns `err` so callers can
/// tail-call through it.
mpisim::MpiError note_deadlock(mpisim::Comm& comm, mpisim::MpiError err) {
  if (err == mpisim::MpiError::kDeadlock) {
    if (auto* m = must_rt()) {
      m->on_deadlock(comm.rank(), comm.deadlock_report());
    }
  } else if (err == mpisim::MpiError::kRankFailed) {
    if (auto* m = must_rt()) {
      m->on_rank_failure(comm.rank(), comm.failure_summary());
    }
  }
  return err;
}

}  // namespace

mpisim::MpiError send(mpisim::Comm& comm, const void* buf, std::size_t count,
                      const mpisim::Datatype& type, int dest, int tag) {
  if (auto* m = must_rt()) {
    m->on_send(buf, count, type);
  }
  return note_deadlock(comm, comm.send(buf, count, type, dest, tag));
}

mpisim::MpiError recv(mpisim::Comm& comm, void* buf, std::size_t count,
                      const mpisim::Datatype& type, int source, int tag, mpisim::Status* status) {
  mpisim::Status local;
  const mpisim::MpiError err = comm.recv(buf, count, type, source, tag, &local);
  // On a declared deadlock nothing was received: publishing the buffer-write
  // annotation would fabricate accesses that never happened.
  if (err != mpisim::MpiError::kDeadlock) {
    if (auto* m = must_rt()) {
      m->on_recv(buf, count, type);
      m->on_receive_status("MPI_Recv", local);
    }
  }
  if (status != nullptr) {
    *status = local;
  }
  return note_deadlock(comm, err);
}

mpisim::MpiError isend(mpisim::Comm& comm, const void* buf, std::size_t count,
                       const mpisim::Datatype& type, int dest, int tag,
                       mpisim::Request** request) {
  const mpisim::MpiError err = comm.isend(buf, count, type, dest, tag, request);
  if (err == mpisim::MpiError::kSuccess) {
    if (auto* m = must_rt()) {
      m->on_isend(buf, count, type, *request);
    }
  }
  return note_deadlock(comm, err);
}

mpisim::MpiError irecv(mpisim::Comm& comm, void* buf, std::size_t count,
                       const mpisim::Datatype& type, int source, int tag,
                       mpisim::Request** request) {
  const mpisim::MpiError err = comm.irecv(buf, count, type, source, tag, request);
  if (err == mpisim::MpiError::kSuccess) {
    if (auto* m = must_rt()) {
      m->on_irecv(buf, count, type, *request);
    }
  }
  return note_deadlock(comm, err);
}

mpisim::MpiError wait(mpisim::Comm& comm, mpisim::Request** request, mpisim::Status* status) {
  // Keep the handle value for the MUST lookup: mpisim frees the request on
  // completion, but MUST only uses the pointer as a map key.
  const mpisim::Request* handle = request != nullptr ? *request : nullptr;
  mpisim::Status local;
  const mpisim::MpiError err = comm.wait(request, &local);
  // kDeadlock means the wait was abandoned: the request did not complete and
  // its fiber must stay open (MUST later reports it as a leak).
  if (handle != nullptr && err != mpisim::MpiError::kDeadlock) {
    if (auto* m = must_rt()) {
      m->on_complete(handle);
      m->on_receive_status("MPI_Wait", local);
    }
  }
  if (status != nullptr) {
    *status = local;
  }
  return note_deadlock(comm, err);
}

mpisim::MpiError test(mpisim::Comm& comm, mpisim::Request** request, bool* completed,
                      mpisim::Status* status) {
  const mpisim::Request* handle = request != nullptr ? *request : nullptr;
  bool done = false;
  mpisim::Status local;
  const mpisim::MpiError err = comm.test(request, &done, &local);
  if (completed != nullptr) {
    *completed = done;
  }
  if (done && handle != nullptr) {
    if (auto* m = must_rt()) {
      m->on_complete(handle);
      m->on_receive_status("MPI_Test", local);
    }
  }
  if (status != nullptr) {
    *status = local;
  }
  return note_deadlock(comm, err);
}

mpisim::MpiError waitall(mpisim::Comm& comm, std::span<mpisim::Request*> requests) {
  // Index order: each wait() joins its request's fiber, and joins commute, so
  // no other order could add or remove a happens-before edge.
  mpisim::MpiError first_error = mpisim::MpiError::kSuccess;
  for (mpisim::Request*& req : requests) {
    if (req == nullptr) {
      continue;
    }
    const mpisim::MpiError err = wait(comm, &req, nullptr);
    if (err != mpisim::MpiError::kSuccess && first_error == mpisim::MpiError::kSuccess) {
      first_error = err;
    }
  }
  return first_error;
}

mpisim::MpiError waitany(mpisim::Comm& comm, std::span<mpisim::Request*> requests, int* index,
                         mpisim::Status* status) {
  // Snapshot the handles: the completed one is freed and nulled by mpisim,
  // but MUST needs its value as the fiber-map key.
  std::vector<const mpisim::Request*> handles(requests.begin(), requests.end());
  int completed_index = -1;
  mpisim::Status local;
  const mpisim::MpiError err = comm.waitany(requests, &completed_index, &local);
  if (index != nullptr) {
    *index = completed_index;
  }
  if (completed_index >= 0 && handles[static_cast<std::size_t>(completed_index)] != nullptr) {
    if (auto* m = must_rt()) {
      m->on_complete(handles[static_cast<std::size_t>(completed_index)]);
      m->on_receive_status("MPI_Waitany", local);
    }
  }
  if (status != nullptr) {
    *status = local;
  }
  return note_deadlock(comm, err);
}

mpisim::MpiError probe(mpisim::Comm& comm, int source, int tag, mpisim::Status* status) {
  if (auto* m = must_rt()) {
    m->on_probe();
  }
  return note_deadlock(comm, comm.probe(source, tag, status));
}

mpisim::MpiError iprobe(mpisim::Comm& comm, int source, int tag, bool* flag,
                        mpisim::Status* status) {
  if (auto* m = must_rt()) {
    m->on_probe();
  }
  return comm.iprobe(source, tag, flag, status);
}

mpisim::MpiError sendrecv(mpisim::Comm& comm, const void* sendbuf, std::size_t sendcount,
                          const mpisim::Datatype& sendtype, int dest, int sendtag, void* recvbuf,
                          std::size_t recvcount, const mpisim::Datatype& recvtype, int source,
                          int recvtag, mpisim::Status* status) {
  if (auto* m = must_rt()) {
    m->on_send(sendbuf, sendcount, sendtype);
  }
  mpisim::Status local;
  const mpisim::MpiError err = comm.sendrecv(sendbuf, sendcount, sendtype, dest, sendtag, recvbuf,
                                             recvcount, recvtype, source, recvtag, &local);
  if (err != mpisim::MpiError::kDeadlock) {
    if (auto* m = must_rt()) {
      m->on_recv(recvbuf, recvcount, recvtype);
      m->on_receive_status("MPI_Sendrecv", local);
    }
  }
  if (status != nullptr) {
    *status = local;
  }
  return note_deadlock(comm, err);
}

mpisim::MpiError comm_dup(mpisim::Comm& comm, mpisim::Comm* out) {
  if (auto* m = must_rt()) {
    m->on_barrier();  // communicator management is collective; count it
  }
  return comm.dup(out);
}

mpisim::MpiError barrier(mpisim::Comm& comm) {
  if (auto* m = must_rt()) {
    m->on_barrier();
  }
  return note_deadlock(comm, comm.barrier());
}

mpisim::MpiError bcast(mpisim::Comm& comm, void* buf, std::size_t count,
                       const mpisim::Datatype& type, int root) {
  if (auto* m = must_rt()) {
    m->on_bcast(buf, count, type, comm.rank() == root);
  }
  return note_deadlock(comm, comm.bcast(buf, count, type, root));
}

mpisim::MpiError reduce(mpisim::Comm& comm, const void* sendbuf, void* recvbuf, std::size_t count,
                        const mpisim::Datatype& type, mpisim::ReduceOp op, int root) {
  if (auto* m = must_rt()) {
    m->on_reduce(sendbuf, recvbuf, count, type, comm.rank() == root);
  }
  return note_deadlock(comm, comm.reduce(sendbuf, recvbuf, count, type, op, root));
}

mpisim::MpiError allreduce(mpisim::Comm& comm, const void* sendbuf, void* recvbuf,
                           std::size_t count, const mpisim::Datatype& type, mpisim::ReduceOp op) {
  if (auto* m = must_rt()) {
    m->on_allreduce(sendbuf, recvbuf, count, type);
  }
  return note_deadlock(comm, comm.allreduce(sendbuf, recvbuf, count, type, op));
}

mpisim::MpiError allgather(mpisim::Comm& comm, const void* sendbuf, std::size_t count,
                           const mpisim::Datatype& type, void* recvbuf) {
  if (auto* m = must_rt()) {
    m->on_allgather(sendbuf, count, type, recvbuf, comm.size());
  }
  return note_deadlock(comm, comm.allgather(sendbuf, count, type, recvbuf));
}

mpisim::MpiError gather(mpisim::Comm& comm, const void* sendbuf, std::size_t count,
                        const mpisim::Datatype& type, void* recvbuf, int root) {
  if (auto* m = must_rt()) {
    m->on_gather(sendbuf, count, type, recvbuf, comm.rank() == root, comm.size());
  }
  return note_deadlock(comm, comm.gather(sendbuf, count, type, recvbuf, root));
}

mpisim::MpiError scatter(mpisim::Comm& comm, const void* sendbuf, std::size_t count,
                         const mpisim::Datatype& type, void* recvbuf, int root) {
  if (auto* m = must_rt()) {
    m->on_scatter(sendbuf, count, type, recvbuf, comm.rank() == root, comm.size());
  }
  return note_deadlock(comm, comm.scatter(sendbuf, count, type, recvbuf, root));
}

}  // namespace capi::mpi
