// The correctness test suite (paper §VI-C): small CUDA-aware MPI programs,
// each either correct or containing a seeded data race, all of which the
// tool stack must classify correctly. Mirrors the structure of the authors'
// cusan-tests suite (cuda-to-mpi and mpi-to-cuda directions crossed with
// memory kinds, stream kinds and synchronization mechanisms).
//
// Racy variants keep kernel bodies clear of the exchanged byte range, so the
// binaries are free of physical races while the *declared* (whole-range)
// access modes drive detection — see DESIGN.md.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "capi/cuda.hpp"
#include "capi/memaccess.hpp"
#include "capi/mpi.hpp"
#include "capi/session.hpp"
#include "kir/registry.hpp"
#include "testsuite/scenarios.hpp"

namespace {

using capi::Flavor;
using capi::RankEnv;

// -- Shared kernel IR for the special cases -----------------------------------

struct SuiteKernels {
  kir::Module module;
  const kir::KernelInfo* writer{};
  const kir::KernelInfo* reader{};
  std::unique_ptr<kir::KernelRegistry> registry;
  SuiteKernels() {
    kir::Function* w = module.create_function("special_writer", {true, false});
    w->store(w->gep(w->param(0), w->constant()), w->constant());
    w->ret();
    kir::Function* r = module.create_function("special_reader", {true, false});
    (void)r->load(r->gep(r->param(0), r->constant()));
    r->ret();
    registry = std::make_unique<kir::KernelRegistry>(module);
    writer = registry->lookup(w);
    reader = registry->lookup(r);
  }
};

const SuiteKernels& kernels() {
  static const SuiteKernels k;
  return k;
}

constexpr std::size_t kCount = 4096;   // buffer elements
constexpr std::size_t kSendCount = kCount / 2;

// -- The parameterized scenario matrix (shared with tools/check_cutests) -------

class TestsuiteP : public ::testing::TestWithParam<testsuite::Scenario> {};

TEST_P(TestsuiteP, ClassifiedCorrectly) {
  const testsuite::Scenario& sc = GetParam();
  const std::size_t races = testsuite::run_scenario(sc);
  if (sc.expect_race) {
    EXPECT_GE(races, 1u) << "expected a data race report for " << sc.name;
  } else {
    EXPECT_EQ(races, 0u) << "false positive for " << sc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(CusanTestsuite, TestsuiteP,
                         ::testing::ValuesIn(testsuite::build_scenarios()),
                         [](const ::testing::TestParamInfo<testsuite::Scenario>& param_info) {
                           return param_info.param.name;
                         });

// -- Special cases beyond the parameterized matrix --------------------------------

TEST(TestsuiteSpecial, MemsetBeforeSendRaces) {
  // cudaMemset is asynchronous w.r.t. host (paper §III-B2): sending the
  // buffer right after is a race.
  const auto results = capi::run_flavored(Flavor::kMustCusan, 2, [](RankEnv& env) {
    double* buf = nullptr;
    (void)capi::cuda::malloc_device(&buf, kCount);
    if (env.rank() == 0) {
      (void)capi::cuda::memset(buf, 0, kCount * sizeof(double));
      (void)capi::mpi::send(env.comm, buf, kSendCount, mpisim::Datatype::float64(), 1, 0);
    } else {
      (void)capi::mpi::recv(env.comm, buf, kSendCount, mpisim::Datatype::float64(), 0, 0);
    }
    (void)capi::cuda::device_synchronize();
    (void)capi::cuda::free(buf);
  });
  EXPECT_GE(capi::total_races(results), 1u);
}

TEST(TestsuiteSpecial, MemsetPlusSyncIsClean) {
  const auto results = capi::run_flavored(Flavor::kMustCusan, 2, [](RankEnv& env) {
    double* buf = nullptr;
    (void)capi::cuda::malloc_device(&buf, kCount);
    if (env.rank() == 0) {
      (void)capi::cuda::memset(buf, 0, kCount * sizeof(double));
      (void)capi::cuda::device_synchronize();
      (void)capi::mpi::send(env.comm, buf, kSendCount, mpisim::Datatype::float64(), 1, 0);
    } else {
      (void)capi::mpi::recv(env.comm, buf, kSendCount, mpisim::Datatype::float64(), 0, 0);
    }
    (void)capi::cuda::device_synchronize();
    (void)capi::cuda::free(buf);
  });
  EXPECT_EQ(capi::total_races(results), 0u);
}

TEST(TestsuiteSpecial, MemcpyAsyncToSendPessimisticallyRacy) {
  // cudaMemcpyAsync D2H into a pageable host buffer is "may be synchronous";
  // CuSan's pessimistic model reports the subsequent send of the host buffer
  // even though the simulator staged it synchronously (paper §III-B2).
  const auto results = capi::run_flavored(Flavor::kMustCusan, 2, [](RankEnv& env) {
    double* d = nullptr;
    (void)capi::cuda::malloc_device(&d, kCount);
    std::vector<double> h(kCount, 0.0);
    capi::cuda::register_host_buffer(h.data(), h.size());
    if (env.rank() == 0) {
      (void)capi::cuda::memcpy_async(h.data(), d, kSendCount * sizeof(double),
                                     cusim::MemcpyDir::kDeviceToHost, nullptr);
      (void)capi::mpi::send(env.comm, h.data(), kSendCount, mpisim::Datatype::float64(), 1, 0);
    } else {
      (void)capi::mpi::recv(env.comm, h.data(), kSendCount, mpisim::Datatype::float64(), 0, 0);
    }
    (void)capi::cuda::device_synchronize();
    capi::cuda::unregister_host_buffer(h.data());
    (void)capi::cuda::free(d);
  });
  EXPECT_GE(obs::value_of(results[0].metrics, "rsan.races_detected"), 1u);
}

TEST(TestsuiteSpecial, StreamWaitEventChainsProducerToConsumerToMpi) {
  // Producer stream writes; consumer stream waits via event and reads; host
  // syncs only the consumer stream before MPI — transitively covers the
  // producer. Clean.
  const auto results = capi::run_flavored(Flavor::kMustCusan, 2, [](RankEnv& env) {
    double* buf = nullptr;
    (void)capi::cuda::malloc_device(&buf, kCount);
    if (env.rank() == 0) {
      cusim::Stream* p = nullptr;
      cusim::Stream* c = nullptr;
      cusim::Event* e = nullptr;
      (void)capi::cuda::stream_create(&p, cusim::StreamFlags::kNonBlocking);
      (void)capi::cuda::stream_create(&c, cusim::StreamFlags::kNonBlocking);
      (void)capi::cuda::event_create(&e);
      (void)capi::cuda::launch(*kernels().writer, {1, 1}, p, {buf, nullptr},
                               [](const cusim::KernelContext&) {});
      (void)capi::cuda::event_record(e, p);
      (void)capi::cuda::stream_wait_event(c, e);
      (void)capi::cuda::launch(*kernels().reader, {1, 1}, c, {buf, nullptr},
                               [](const cusim::KernelContext&) {});
      (void)capi::cuda::stream_synchronize(c);
      (void)capi::mpi::send(env.comm, buf, kSendCount, mpisim::Datatype::float64(), 1, 0);
      (void)capi::cuda::event_destroy(e);
      (void)capi::cuda::stream_destroy(p);
      (void)capi::cuda::stream_destroy(c);
    } else {
      (void)capi::mpi::recv(env.comm, buf, kSendCount, mpisim::Datatype::float64(), 0, 0);
    }
    (void)capi::cuda::device_synchronize();
    (void)capi::cuda::free(buf);
  });
  EXPECT_EQ(capi::total_races(results), 0u);
}

TEST(TestsuiteSpecial, ManagedMemoryHostComputeDuringKernel) {
  // Unsynchronized managed-memory host access during kernel execution —
  // detectable by CuSan alone, no MPI involved (paper §VI-E).
  const auto results = capi::run_flavored(Flavor::kCusan, 1, [](RankEnv&) {
    double* m = nullptr;
    (void)capi::cuda::malloc_managed(&m, kCount);
    (void)capi::cuda::launch(*kernels().writer, {1, 1}, nullptr, {m, nullptr},
                             [](const cusim::KernelContext&) {});
    capi::checked_store(&m[0], 3.0);  // host touches managed memory: race
    (void)capi::cuda::device_synchronize();
    (void)capi::cuda::free(m);
  });
  EXPECT_GE(capi::total_races(results), 1u);
}

TEST(TestsuiteSpecial, IsendBufferOverwrittenByKernel) {
  // Rank 0: Isend of a device buffer, then a kernel writes it before Wait.
  const auto results = capi::run_flavored(Flavor::kMustCusan, 2, [](RankEnv& env) {
    double* buf = nullptr;
    (void)capi::cuda::malloc_device(&buf, kCount);
    (void)capi::cuda::device_synchronize();
    if (env.rank() == 0) {
      mpisim::Request* req = nullptr;
      (void)capi::mpi::isend(env.comm, buf, kSendCount, mpisim::Datatype::float64(), 1, 0, &req);
      (void)capi::cuda::launch(*kernels().writer, {1, 1}, nullptr, {buf, nullptr},
                               [](const cusim::KernelContext&) {});  // RACE with Isend read
      (void)capi::mpi::wait(env.comm, &req);
    } else {
      (void)capi::mpi::recv(env.comm, buf, kSendCount, mpisim::Datatype::float64(), 0, 0);
    }
    (void)capi::cuda::device_synchronize();
    (void)capi::cuda::free(buf);
  });
  EXPECT_GE(obs::value_of(results[0].metrics, "rsan.races_detected"), 1u);
}

TEST(TestsuiteSpecial, MultipleRequestsWaitallClean) {
  const auto results = capi::run_flavored(Flavor::kMustCusan, 2, [](RankEnv& env) {
    double* buf = nullptr;
    (void)capi::cuda::malloc_device(&buf, kCount);
    (void)capi::cuda::device_synchronize();
    const auto type = mpisim::Datatype::float64();
    const int peer = 1 - env.rank();
    std::array<mpisim::Request*, 2> reqs{};
    (void)capi::mpi::irecv(env.comm, buf, kCount / 4, type, peer, 0, &reqs[0]);
    (void)capi::mpi::isend(env.comm, buf + kCount / 2, kCount / 4, type, peer, 0, &reqs[1]);
    (void)capi::mpi::waitall(env.comm, reqs);
    (void)capi::cuda::launch(*kernels().writer, {1, 1}, nullptr, {buf, nullptr},
                             [](const cusim::KernelContext&) {});
    (void)capi::cuda::device_synchronize();
    (void)capi::cuda::free(buf);
  });
  EXPECT_EQ(capi::total_races(results), 0u);
}

TEST(TestsuiteSpecial, FreedAndReallocatedBufferNoStaleRace) {
  const auto results = capi::run_flavored(Flavor::kMustCusan, 1, [](RankEnv&) {
    for (int i = 0; i < 4; ++i) {
      double* buf = nullptr;
      (void)capi::cuda::malloc_device(&buf, kCount);
      (void)capi::cuda::launch(*kernels().writer, {1, 1}, nullptr, {buf, nullptr},
                               [](const cusim::KernelContext&) {});
      // cudaFree device-synchronizes and resets shadow state; the next
      // iteration may get the same address.
      (void)capi::cuda::free(buf);
    }
  });
  EXPECT_EQ(capi::total_races(results), 0u);
}

TEST(TestsuiteSpecial, DefaultStreamKernelOrdersUserStreamKernel) {
  // Blocking user stream kernel after a default-stream kernel on the same
  // buffer: legacy barrier orders them — clean without any explicit sync.
  const auto results = capi::run_flavored(Flavor::kMustCusan, 1, [](RankEnv&) {
    double* buf = nullptr;
    (void)capi::cuda::malloc_device(&buf, kCount);
    cusim::Stream* s = nullptr;
    (void)capi::cuda::stream_create(&s);
    (void)capi::cuda::launch(*kernels().writer, {1, 1}, nullptr, {buf, nullptr},
                             [](const cusim::KernelContext&) {});
    (void)capi::cuda::launch(*kernels().reader, {1, 1}, s, {buf, nullptr},
                             [](const cusim::KernelContext&) {});
    (void)capi::cuda::stream_synchronize(s);
    (void)capi::cuda::stream_destroy(s);
    (void)capi::cuda::free(buf);
  });
  EXPECT_EQ(capi::total_races(results), 0u);
}

TEST(TestsuiteSpecial, NonBlockingStreamKernelsRaceWithoutSync) {
  const auto results = capi::run_flavored(Flavor::kMustCusan, 1, [](RankEnv&) {
    double* buf = nullptr;
    (void)capi::cuda::malloc_device(&buf, kCount);
    cusim::Stream* s1 = nullptr;
    cusim::Stream* s2 = nullptr;
    (void)capi::cuda::stream_create(&s1, cusim::StreamFlags::kNonBlocking);
    (void)capi::cuda::stream_create(&s2, cusim::StreamFlags::kNonBlocking);
    (void)capi::cuda::launch(*kernels().writer, {1, 1}, s1, {buf, nullptr},
                             [buf](const cusim::KernelContext&) { buf[0] = 1.0; });
    (void)capi::cuda::launch(*kernels().writer, {1, 1}, s2, {buf, nullptr},
                             [buf](const cusim::KernelContext&) { buf[kCount - 1] = 2.0; });
    (void)capi::cuda::device_synchronize();
    (void)capi::cuda::stream_destroy(s1);
    (void)capi::cuda::stream_destroy(s2);
    (void)capi::cuda::free(buf);
  });
  EXPECT_GE(capi::total_races(results), 1u);
}

TEST(TestsuiteSpecial, CollectiveOnUnsyncedDeviceBufferRaces) {
  const auto results = capi::run_flavored(Flavor::kMustCusan, 2, [](RankEnv& env) {
    double* buf = nullptr;
    (void)capi::cuda::malloc_device(&buf, kCount);
    if (env.rank() == 0) {
      (void)capi::cuda::launch(*kernels().writer, {1, 1}, nullptr, {buf, nullptr},
                               [](const cusim::KernelContext&) {});
      // Missing sync: the broadcast root reads the buffer concurrently.
      (void)capi::mpi::bcast(env.comm, buf, kSendCount, mpisim::Datatype::float64(), 0);
    } else {
      (void)capi::mpi::bcast(env.comm, buf, kSendCount, mpisim::Datatype::float64(), 0);
    }
    (void)capi::cuda::device_synchronize();
    (void)capi::cuda::free(buf);
  });
  EXPECT_GE(obs::value_of(results[0].metrics, "rsan.races_detected"), 1u);
}

TEST(TestsuiteSpecial, AllreduceAfterSyncClean) {
  const auto results = capi::run_flavored(Flavor::kMustCusan, 2, [](RankEnv& env) {
    double* buf = nullptr;
    double* out = nullptr;
    (void)capi::cuda::malloc_device(&buf, 64);
    (void)capi::cuda::malloc_device(&out, 64);
    (void)capi::cuda::launch(*kernels().writer, {1, 1}, nullptr, {buf, nullptr},
                             [](const cusim::KernelContext&) {});
    (void)capi::cuda::device_synchronize();
    (void)capi::mpi::allreduce(env.comm, buf, out, 64, mpisim::Datatype::float64(),
                               mpisim::ReduceOp::kSum);
    (void)capi::cuda::free(buf);
    (void)capi::cuda::free(out);
  });
  EXPECT_EQ(capi::total_races(results), 0u);
}

}  // namespace
