// The checked MPI API: every call is routed through the MUST interception
// layer (when enabled) before/after forwarding to the mpisim communicator —
// the in-process analog of running the application under `mustrun`.
#pragma once

#include <span>

#include "capi/context.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/request.hpp"

namespace capi::mpi {

mpisim::MpiError send(mpisim::Comm& comm, const void* buf, std::size_t count,
                      const mpisim::Datatype& type, int dest, int tag);
mpisim::MpiError recv(mpisim::Comm& comm, void* buf, std::size_t count,
                      const mpisim::Datatype& type, int source, int tag,
                      mpisim::Status* status = nullptr);
mpisim::MpiError isend(mpisim::Comm& comm, const void* buf, std::size_t count,
                       const mpisim::Datatype& type, int dest, int tag,
                       mpisim::Request** request);
mpisim::MpiError irecv(mpisim::Comm& comm, void* buf, std::size_t count,
                       const mpisim::Datatype& type, int source, int tag,
                       mpisim::Request** request);
mpisim::MpiError wait(mpisim::Comm& comm, mpisim::Request** request,
                      mpisim::Status* status = nullptr);
mpisim::MpiError test(mpisim::Comm& comm, mpisim::Request** request, bool* completed,
                      mpisim::Status* status = nullptr);
/// Waits on `requests` in index order and returns the first error in index
/// order (kSuccess if none).
mpisim::MpiError waitall(mpisim::Comm& comm, std::span<mpisim::Request*> requests);
mpisim::MpiError waitany(mpisim::Comm& comm, std::span<mpisim::Request*> requests, int* index,
                         mpisim::Status* status = nullptr);
mpisim::MpiError probe(mpisim::Comm& comm, int source, int tag, mpisim::Status* status);
mpisim::MpiError iprobe(mpisim::Comm& comm, int source, int tag, bool* flag,
                        mpisim::Status* status = nullptr);
mpisim::MpiError sendrecv(mpisim::Comm& comm, const void* sendbuf, std::size_t sendcount,
                          const mpisim::Datatype& sendtype, int dest, int sendtag, void* recvbuf,
                          std::size_t recvcount, const mpisim::Datatype& recvtype, int source,
                          int recvtag, mpisim::Status* status = nullptr);

/// MPI_Comm_dup (collective).
mpisim::MpiError comm_dup(mpisim::Comm& comm, mpisim::Comm* out);

mpisim::MpiError barrier(mpisim::Comm& comm);
mpisim::MpiError bcast(mpisim::Comm& comm, void* buf, std::size_t count,
                       const mpisim::Datatype& type, int root);
mpisim::MpiError reduce(mpisim::Comm& comm, const void* sendbuf, void* recvbuf, std::size_t count,
                        const mpisim::Datatype& type, mpisim::ReduceOp op, int root);
mpisim::MpiError allreduce(mpisim::Comm& comm, const void* sendbuf, void* recvbuf,
                           std::size_t count, const mpisim::Datatype& type, mpisim::ReduceOp op);
mpisim::MpiError allgather(mpisim::Comm& comm, const void* sendbuf, std::size_t count,
                           const mpisim::Datatype& type, void* recvbuf);
mpisim::MpiError gather(mpisim::Comm& comm, const void* sendbuf, std::size_t count,
                        const mpisim::Datatype& type, void* recvbuf, int root);
mpisim::MpiError scatter(mpisim::Comm& comm, const void* sendbuf, std::size_t count,
                         const mpisim::Datatype& type, void* recvbuf, int root);

}  // namespace capi::mpi
