// Integration tests of the checked-API facade: flavor gating, session
// driving, the instrumented CUDA/MPI wrappers and host accessors, all the
// way through the full tool stack.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <optional>
#include <string>

#include "capi/cuda.hpp"
#include "capi/memaccess.hpp"
#include "capi/mpi.hpp"
#include "capi/session.hpp"
#include "kir/registry.hpp"
#include "metric_value.hpp"

namespace {

using capi::Flavor;
using capi::RankEnv;
using capi::run_flavored;

struct TestKernels {
  kir::Module module;
  const kir::KernelInfo* writer{};
  const kir::KernelInfo* reader{};
  std::unique_ptr<kir::KernelRegistry> registry;
  TestKernels() {
    kir::Function* w = module.create_function("writer", {true, false});
    w->store(w->gep(w->param(0), w->constant()), w->constant());
    w->ret();
    kir::Function* r = module.create_function("reader", {true, false});
    (void)r->load(r->gep(r->param(0), r->constant()));
    r->ret();
    registry = std::make_unique<kir::KernelRegistry>(module);
    writer = registry->lookup(w);
    reader = registry->lookup(r);
  }
};

const TestKernels& kernels() {
  static const TestKernels k;
  return k;
}

TEST(ToolConfigTest, FlavorsComposeCorrectly) {
  const auto vanilla = capi::make_tool_config(Flavor::kVanilla);
  EXPECT_FALSE(vanilla.tsan || vanilla.must || vanilla.cusan || vanilla.typeart);
  const auto tsan = capi::make_tool_config(Flavor::kTsan);
  EXPECT_TRUE(tsan.tsan);
  EXPECT_FALSE(tsan.must || tsan.cusan);
  const auto must = capi::make_tool_config(Flavor::kMust);
  EXPECT_TRUE(must.tsan && must.must);
  const auto cusan = capi::make_tool_config(Flavor::kCusan);
  EXPECT_TRUE(cusan.tsan && cusan.cusan && cusan.typeart);
  EXPECT_FALSE(cusan.must);
  const auto both = capi::make_tool_config(Flavor::kMustCusan);
  EXPECT_TRUE(both.tsan && both.must && both.cusan && both.typeart);
}

TEST(SessionTest, ResultsIndexedByRank) {
  const auto results = run_flavored(Flavor::kTsan, 3, [](RankEnv& env) {
    capi::annotate_host_writes(&env, 1, "touch");
  });
  ASSERT_EQ(results.size(), 3u);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)].rank, r);
  }
}

TEST(SessionTest, VanillaHasNoToolState) {
  const auto results = run_flavored(Flavor::kVanilla, 2, [](RankEnv& env) {
    EXPECT_EQ(env.tools.tsan(), nullptr);
    EXPECT_EQ(env.tools.must_rt(), nullptr);
    EXPECT_EQ(env.tools.cusan_rt(), nullptr);
    EXPECT_EQ(env.tools.types(), nullptr);
    // The device still works.
    double* d = nullptr;
    ASSERT_EQ(capi::cuda::malloc_device(&d, 16), cusim::Error::kSuccess);
    ASSERT_EQ(capi::cuda::free(d), cusim::Error::kSuccess);
  });
  EXPECT_EQ(capi::total_races(results), 0u);
  EXPECT_EQ(results[0].shadow_bytes, 0u);
}

TEST(SessionTest, RepeatedSessionsLeakNoFds) {
  // Each rank thread reads /proc/self/status at finalize; its cached fd must
  // close with the thread, or every session leaks one fd per rank.
  const auto open_fds = [] {
    const std::filesystem::directory_iterator fds("/proc/self/fd");
    return std::distance(begin(fds), end(fds));
  };
  (void)run_flavored(Flavor::kVanilla, 2, [](RankEnv&) {});
  const auto before = open_fds();
  for (int i = 0; i < 100; ++i) {
    (void)run_flavored(Flavor::kVanilla, 2, [](RankEnv&) {});
  }
  EXPECT_LE(open_fds(), before);
}

TEST(SessionTest, ContextBindingIsPerThread) {
  (void)run_flavored(Flavor::kCusan, 2, [](RankEnv& env) {
    ASSERT_EQ(capi::ToolContext::current(), &env.tools);
    EXPECT_EQ(capi::ToolContext::current()->rank(), env.rank());
  });
  EXPECT_EQ(capi::ToolContext::current(), nullptr);  // unbound outside
}

TEST(CapiCudaTest, TypedAllocationRegistersWithTypeart) {
  (void)run_flavored(Flavor::kCusan, 1, [](RankEnv& env) {
    double* d = nullptr;
    ASSERT_EQ(capi::cuda::malloc_device(&d, 100), cusim::Error::kSuccess);
    const auto info = env.tools.types()->find(d);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->type, typeart::kDouble);
    EXPECT_EQ(info->count, 100u);
    EXPECT_EQ(info->kind, typeart::AllocKind::kDevice);
    ASSERT_EQ(capi::cuda::free(d), cusim::Error::kSuccess);
    EXPECT_FALSE(env.tools.types()->find(d).has_value());
  });
}

TEST(CapiCudaTest, ManagedAndPinnedKindsTracked) {
  (void)run_flavored(Flavor::kCusan, 1, [](RankEnv& env) {
    float* m = nullptr;
    int* p = nullptr;
    ASSERT_EQ(capi::cuda::malloc_managed(&m, 10), cusim::Error::kSuccess);
    ASSERT_EQ(capi::cuda::malloc_host(&p, 10), cusim::Error::kSuccess);
    EXPECT_EQ(env.tools.types()->find(m)->kind, typeart::AllocKind::kManaged);
    EXPECT_EQ(env.tools.types()->find(p)->kind, typeart::AllocKind::kPinnedHost);
    EXPECT_EQ(env.tools.device().pointer_attributes(m).kind, cusim::MemKind::kManaged);
    EXPECT_EQ(env.tools.device().pointer_attributes(p).kind, cusim::MemKind::kPinnedHost);
    (void)capi::cuda::free(m);
    (void)capi::cuda::free_host(p);
  });
}

TEST(CapiCudaTest, KernelLaunchExecutesBody) {
  (void)run_flavored(Flavor::kMustCusan, 1, [](RankEnv&) {
    int* d = nullptr;
    ASSERT_EQ(capi::cuda::malloc_device(&d, 64), cusim::Error::kSuccess);
    ASSERT_EQ(capi::cuda::launch(*kernels().writer, {1, 64}, nullptr, {d, nullptr},
                                 [d](const cusim::KernelContext& ctx) {
                                   ctx.for_each_thread(
                                       [d](std::size_t t) { d[t] = static_cast<int>(t); });
                                 }),
              cusim::Error::kSuccess);
    ASSERT_EQ(capi::cuda::device_synchronize(), cusim::Error::kSuccess);
    std::array<int, 64> h{};
    ASSERT_EQ(capi::cuda::memcpy(h.data(), d, sizeof h, cusim::MemcpyDir::kDeviceToHost),
              cusim::Error::kSuccess);
    EXPECT_EQ(h[63], 63);
    (void)capi::cuda::free(d);
  });
}

TEST(CapiCudaTest, RaceOnlyReportedWithCusanFlavors) {
  const auto run_racy = [](Flavor flavor) {
    return capi::total_races(run_flavored(flavor, 1, [](RankEnv& env) {
      double* d = nullptr;
      (void)capi::cuda::malloc_device(&d, 128);
      (void)capi::cuda::launch(*kernels().writer, {1, 1}, nullptr, {d, nullptr},
                               [](const cusim::KernelContext&) {});
      // Unsynchronized host access to device memory via annotation.
      capi::annotate_host_reads(d, 128 * sizeof(double), "host reads device data");
      (void)capi::cuda::device_synchronize();
      (void)capi::cuda::free(d);
      (void)env;
    }));
  };
  EXPECT_EQ(run_racy(Flavor::kVanilla), 0u);
  EXPECT_EQ(run_racy(Flavor::kTsan), 0u);   // TSan alone is CUDA-blind
  EXPECT_EQ(run_racy(Flavor::kMust), 0u);   // MUST alone too
  EXPECT_EQ(run_racy(Flavor::kCusan), 1u);  // CuSan sees the kernel write
  EXPECT_EQ(run_racy(Flavor::kMustCusan), 1u);
}

TEST(CapiMpiTest, WrappersInterceptWithMust) {
  const auto results = run_flavored(Flavor::kMustCusan, 2, [](RankEnv& env) {
    std::array<int, 8> buf{};
    if (env.rank() == 0) {
      buf.fill(5);
      ASSERT_EQ(capi::mpi::send(env.comm, buf.data(), 8, mpisim::Datatype::int32(), 1, 0),
                mpisim::MpiError::kSuccess);
    } else {
      ASSERT_EQ(capi::mpi::recv(env.comm, buf.data(), 8, mpisim::Datatype::int32(), 0, 0),
                mpisim::MpiError::kSuccess);
      EXPECT_EQ(buf[7], 5);
    }
    ASSERT_EQ(capi::mpi::barrier(env.comm), mpisim::MpiError::kSuccess);
  });
  EXPECT_GE(obs::value_of(results[0].metrics, "must.calls_intercepted"), 2u);  // send + barrier
  EXPECT_GE(obs::value_of(results[1].metrics, "must.calls_intercepted"), 2u);  // recv + barrier
  EXPECT_EQ(capi::total_races(results), 0u);
}

TEST(CapiMpiTest, IrecvComputeWaitRaceDetected) {
  // The paper's Fig. 1 pattern: compute(buf) between Irecv and Wait.
  const auto results = run_flavored(Flavor::kMust, 2, [](RankEnv& env) {
    std::array<double, 64> buf{};
    capi::cuda::register_host_buffer(buf.data(), buf.size());
    if (env.rank() == 0) {
      ASSERT_EQ(capi::mpi::send(env.comm, buf.data(), 64, mpisim::Datatype::float64(), 1, 0),
                mpisim::MpiError::kSuccess);
    } else {
      mpisim::Request* req = nullptr;
      ASSERT_EQ(capi::mpi::irecv(env.comm, buf.data(), 64, mpisim::Datatype::float64(), 0, 0,
                                 &req),
                mpisim::MpiError::kSuccess);
      capi::annotate_host_writes(buf.data(), sizeof buf, "compute(buf)");  // race!
      ASSERT_EQ(capi::mpi::wait(env.comm, &req), mpisim::MpiError::kSuccess);
    }
    capi::cuda::unregister_host_buffer(buf.data());
  });
  EXPECT_EQ(obs::value_of(results[1].metrics, "rsan.races_detected"), 1u);
  EXPECT_EQ(obs::value_of(results[0].metrics, "rsan.races_detected"), 0u);
}

TEST(CapiMpiTest, TestLoopCompletesRequestCleanly) {
  const auto results = run_flavored(Flavor::kMust, 2, [](RankEnv& env) {
    std::array<double, 16> buf{};
    if (env.rank() == 0) {
      ASSERT_EQ(capi::mpi::send(env.comm, buf.data(), 16, mpisim::Datatype::float64(), 1, 0),
                mpisim::MpiError::kSuccess);
    } else {
      mpisim::Request* req = nullptr;
      ASSERT_EQ(capi::mpi::irecv(env.comm, buf.data(), 16, mpisim::Datatype::float64(), 0, 0,
                                 &req),
                mpisim::MpiError::kSuccess);
      bool done = false;
      while (!done) {
        ASSERT_EQ(capi::mpi::test(env.comm, &req, &done), mpisim::MpiError::kSuccess);
      }
      EXPECT_EQ(req, nullptr);
      // Wait (via test) completed: buffer access is now safe.
      capi::annotate_host_writes(buf.data(), sizeof buf, "after test success");
    }
  });
  EXPECT_EQ(capi::total_races(results), 0u);
}

TEST(CapiMpiTest, TypeChecksSurfaceInResults) {
  capi::SessionConfig config;
  config.ranks = 2;
  config.tools = capi::make_tool_config(Flavor::kMustCusan);
  config.tools.must_config.check_types = true;
  const auto results = capi::run_session(config, [](RankEnv& env) {
    double* d = nullptr;
    (void)capi::cuda::malloc_device(&d, 16);
    if (env.rank() == 0) {
      // Type confusion: device double buffer sent as MPI_INT.
      (void)capi::mpi::send(env.comm, d, 4, mpisim::Datatype::int32(), 1, 0);
    } else {
      (void)capi::mpi::recv(env.comm, d, 4, mpisim::Datatype::int32(), 0, 0);
    }
    (void)capi::cuda::device_synchronize();
    (void)capi::cuda::free(d);
  });
  ASSERT_GE(results[0].must_reports.size(), 1u);
  EXPECT_EQ(results[0].must_reports[0].kind, must::ReportKind::kTypeMismatch);
  ASSERT_GE(results[1].must_reports.size(), 1u);
}

TEST(CapiMpiTest, SignatureMismatchReportedAtReceiver) {
  const auto results = run_flavored(Flavor::kMust, 2, [](RankEnv& env) {
    if (env.rank() == 0) {
      std::array<double, 4> send{};
      ASSERT_EQ(capi::mpi::send(env.comm, send.data(), 4, mpisim::Datatype::float64(), 1, 0),
                mpisim::MpiError::kSuccess);
    } else {
      std::array<std::int32_t, 8> recv{};
      // Same byte count (32), different signature: 4 doubles vs 8 ints.
      ASSERT_EQ(capi::mpi::recv(env.comm, recv.data(), 8, mpisim::Datatype::int32(), 0, 0),
                mpisim::MpiError::kSuccess);
    }
  });
  EXPECT_TRUE(results[0].must_reports.empty());
  ASSERT_EQ(results[1].must_reports.size(), 1u);
  EXPECT_EQ(results[1].must_reports[0].kind, must::ReportKind::kSignatureMismatch);
  EXPECT_EQ(obs::value_of(results[1].metrics, "must.signature_mismatches"), 1u);
}

TEST(CapiMpiTest, SignatureMismatchThroughIrecvWait) {
  const auto results = run_flavored(Flavor::kMust, 2, [](RankEnv& env) {
    if (env.rank() == 0) {
      std::array<float, 4> send{};
      ASSERT_EQ(capi::mpi::send(env.comm, send.data(), 4, mpisim::Datatype::float32(), 1, 0),
                mpisim::MpiError::kSuccess);
    } else {
      std::array<std::int32_t, 4> recv{};
      mpisim::Request* req = nullptr;
      ASSERT_EQ(capi::mpi::irecv(env.comm, recv.data(), 4, mpisim::Datatype::int32(), 0, 0,
                                 &req),
                mpisim::MpiError::kSuccess);
      ASSERT_EQ(capi::mpi::wait(env.comm, &req), mpisim::MpiError::kSuccess);
    }
  });
  ASSERT_GE(results[1].must_reports.size(), 1u);
  EXPECT_EQ(results[1].must_reports[0].kind, must::ReportKind::kSignatureMismatch);
}

TEST(CapiMpiTest, ByteViewNeverSignatureMismatches) {
  const auto results = run_flavored(Flavor::kMust, 2, [](RankEnv& env) {
    std::array<double, 4> buf{};
    if (env.rank() == 0) {
      ASSERT_EQ(capi::mpi::send(env.comm, buf.data(), 4, mpisim::Datatype::float64(), 1, 0),
                mpisim::MpiError::kSuccess);
    } else {
      ASSERT_EQ(capi::mpi::recv(env.comm, buf.data(), 32, mpisim::Datatype::byte(), 0, 0),
                mpisim::MpiError::kSuccess);
    }
  });
  EXPECT_TRUE(results[1].must_reports.empty());
}

TEST(CapiMpiTest, MatchingSignaturesStaySilent) {
  const auto results = run_flavored(Flavor::kMust, 2, [](RankEnv& env) {
    std::array<double, 16> buf{};
    const int peer = 1 - env.rank();
    mpisim::Status status;
    ASSERT_EQ(capi::mpi::sendrecv(env.comm, buf.data(), 8, mpisim::Datatype::float64(), peer, 0,
                                  buf.data() + 8, 8, mpisim::Datatype::float64(), peer, 0,
                                  &status),
              mpisim::MpiError::kSuccess);
    EXPECT_FALSE(status.signature_mismatch);
  });
  for (const auto& result : results) {
    EXPECT_TRUE(result.must_reports.empty());
  }
}

TEST(CapiMemaccessTest, CheckedAccessorsWork) {
  (void)run_flavored(Flavor::kTsan, 1, [](RankEnv& env) {
    double value = 1.0;
    capi::checked_store(&value, 2.0);
    EXPECT_EQ(capi::checked_load(&value), 2.0);
    EXPECT_EQ(metric_value(env.tools.metrics(), "rsan.plain_writes"), 1u);
    EXPECT_EQ(metric_value(env.tools.metrics(), "rsan.plain_reads"), 1u);
  });
}

TEST(CapiMemaccessTest, AccessorsAreRawWhenVanilla) {
  (void)run_flavored(Flavor::kVanilla, 1, [](RankEnv&) {
    double value = 1.0;
    capi::checked_store(&value, 3.0);
    EXPECT_EQ(capi::checked_load(&value), 3.0);
  });
}

TEST(CapiCudaTest, ManagedMemoryHostAccessRace) {
  // Managed memory accessed by the host while a kernel uses it (§IV-A-f):
  // host accesses go through the TSan-pass instrumentation (accessors).
  const auto races = capi::total_races(run_flavored(Flavor::kCusan, 1, [](RankEnv&) {
    double* m = nullptr;
    (void)capi::cuda::malloc_managed(&m, 32);
    (void)capi::cuda::launch(*kernels().writer, {1, 1}, nullptr, {m, nullptr},
                             [](const cusim::KernelContext&) {});
    capi::checked_store(&m[0], 1.0);  // no sync: races with the kernel write
    (void)capi::cuda::device_synchronize();
    (void)capi::cuda::free(m);
  }));
  EXPECT_EQ(races, 1u);
}

TEST(CapiMpiTest, GatherScatterWrappersAnnotate) {
  const auto results = run_flavored(Flavor::kMustCusan, 2, [](RankEnv& env) {
    std::array<double, 8> mine{};
    std::array<double, 16> all{};
    mine.fill(static_cast<double>(env.rank()));
    ASSERT_EQ(capi::mpi::gather(env.comm, mine.data(), 8, mpisim::Datatype::float64(),
                                all.data(), 0),
              mpisim::MpiError::kSuccess);
    ASSERT_EQ(capi::mpi::scatter(env.comm, all.data(), 8, mpisim::Datatype::float64(),
                                 mine.data(), 0),
              mpisim::MpiError::kSuccess);
    EXPECT_EQ(mine[0], static_cast<double>(env.rank()));  // round-tripped
  });
  EXPECT_EQ(capi::total_races(results), 0u);
  EXPECT_GE(obs::value_of(results[0].metrics, "must.calls_intercepted"), 2u);
}

TEST(CapiMpiTest, GatherOfUnsyncedDeviceBufferRaces) {
  const auto results = run_flavored(Flavor::kMustCusan, 2, [](RankEnv& env) {
    double* d = nullptr;
    double* all = nullptr;
    (void)capi::cuda::malloc_device(&d, 64);
    (void)capi::cuda::malloc_device(&all, 128);
    (void)capi::cuda::launch(*kernels().writer, {1, 1}, nullptr, {d, nullptr},
                             [](const cusim::KernelContext&) {});
    // Missing sync: gather reads the device send buffer concurrently.
    (void)capi::mpi::gather(env.comm, d, 64, mpisim::Datatype::float64(), all, 0);
    (void)capi::cuda::device_synchronize();
    (void)capi::cuda::free(d);
    (void)capi::cuda::free(all);
  });
  EXPECT_GE(capi::total_races(results), 1u);
}

TEST(CapiMpiTest, WaitanyWrapperEndsRequestFiber) {
  const auto results = run_flavored(Flavor::kMust, 2, [](RankEnv& env) {
    std::array<double, 32> buf{};
    const int peer = 1 - env.rank();
    std::array<mpisim::Request*, 2> reqs{};
    ASSERT_EQ(capi::mpi::irecv(env.comm, buf.data(), 16, mpisim::Datatype::float64(), peer, 0,
                               &reqs[0]),
              mpisim::MpiError::kSuccess);
    ASSERT_EQ(capi::mpi::isend(env.comm, buf.data() + 16, 16, mpisim::Datatype::float64(), peer,
                               0, &reqs[1]),
              mpisim::MpiError::kSuccess);
    int index = -1;
    while (reqs[0] != nullptr || reqs[1] != nullptr) {
      ASSERT_EQ(capi::mpi::waitany(env.comm, reqs, &index), mpisim::MpiError::kSuccess);
    }
    // Both fibers synchronized: buffer accesses afterwards are clean.
    capi::annotate_host_writes(buf.data(), sizeof buf, "after waitany");
  });
  EXPECT_EQ(capi::total_races(results), 0u);
  for (const auto& result : results) {
    EXPECT_TRUE(result.must_reports.empty());  // no leaks
  }
}

TEST(CapiMpiTest, ProbeWrapperCountsInterception) {
  const auto results = run_flavored(Flavor::kMust, 2, [](RankEnv& env) {
    if (env.rank() == 0) {
      const int v = 3;
      ASSERT_EQ(capi::mpi::send(env.comm, &v, 1, mpisim::Datatype::int32(), 1, 9),
                mpisim::MpiError::kSuccess);
    } else {
      mpisim::Status status;
      ASSERT_EQ(capi::mpi::probe(env.comm, 0, 9, &status), mpisim::MpiError::kSuccess);
      int v = 0;
      ASSERT_EQ(capi::mpi::recv(env.comm, &v, 1, mpisim::Datatype::int32(), status.source,
                                status.tag),
                mpisim::MpiError::kSuccess);
      EXPECT_EQ(v, 3);
    }
  });
  EXPECT_GE(obs::value_of(results[1].metrics, "must.calls_intercepted"), 2u);  // probe + recv
}

TEST(CapiSessionTest, SuppressionsViaToolContext) {
  const auto results = run_flavored(Flavor::kCusan, 1, [](RankEnv& env) {
    env.tools.tsan()->suppressions().add("kernel 'writer'*");
    double* d = nullptr;
    (void)capi::cuda::malloc_device(&d, 128);
    (void)capi::cuda::launch(*kernels().writer, {1, 1}, nullptr, {d, nullptr},
                             [](const cusim::KernelContext&) {});
    capi::annotate_host_reads(d, 128 * sizeof(double), "host read");
    (void)capi::cuda::device_synchronize();
    (void)capi::cuda::free(d);
  });
  EXPECT_EQ(capi::total_races(results), 0u);
  EXPECT_EQ(obs::value_of(results[0].metrics, "rsan.races_suppressed"), 1u);
}

TEST(CapiCudaTest, EventChainAcrossStreamsIsClean) {
  const auto races = capi::total_races(run_flavored(Flavor::kMustCusan, 1, [](RankEnv&) {
    double* d = nullptr;
    (void)capi::cuda::malloc_device(&d, 64);
    cusim::Stream* s1 = nullptr;
    cusim::Stream* s2 = nullptr;
    cusim::Event* e = nullptr;
    (void)capi::cuda::stream_create(&s1, cusim::StreamFlags::kNonBlocking);
    (void)capi::cuda::stream_create(&s2, cusim::StreamFlags::kNonBlocking);
    (void)capi::cuda::event_create(&e);
    (void)capi::cuda::launch(*kernels().writer, {1, 1}, s1, {d, nullptr},
                             [](const cusim::KernelContext&) {});
    (void)capi::cuda::event_record(e, s1);
    (void)capi::cuda::stream_wait_event(s2, e);
    (void)capi::cuda::launch(*kernels().reader, {1, 1}, s2, {d, nullptr},
                             [](const cusim::KernelContext&) {});
    (void)capi::cuda::stream_synchronize(s2);
    (void)capi::cuda::event_destroy(e);
    (void)capi::cuda::stream_destroy(s1);
    (void)capi::cuda::stream_destroy(s2);
    (void)capi::cuda::free(d);
  }));
  EXPECT_EQ(races, 0u);
}

TEST(CapiSessionTest, ParsesStrictRankCounts) {
  EXPECT_EQ(capi::parse_ranks("8"), 8);
  EXPECT_EQ(capi::parse_ranks("2"), 2);
  // Counts outside [2, 64] are clamped, not rejected.
  EXPECT_EQ(capi::parse_ranks("0"), 2);
  EXPECT_EQ(capi::parse_ranks("1"), 2);
  EXPECT_EQ(capi::parse_ranks("65"), 64);
  EXPECT_EQ(capi::parse_ranks("99999999999999999999999"), std::nullopt);
  // Anything but a plain decimal count is rejected, where atoi used to read
  // "8x" as 8 and "abc" as 0.
  for (const char* bad : {"", "abc", "8x", "-8", "+8", " 8", "8 ", "4.0"}) {
    EXPECT_EQ(capi::parse_ranks(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(CapiSessionTest, DefaultRanksIsCachedAcrossEnvChanges) {
  // default_ranks() parses CUSAN_RANKS exactly once per process: it sits on
  // the per-session hot path of sweeps and the svc executor, and a mid-run
  // setenv must not change world sizes between scenarios.
  const int first = capi::default_ranks();
  EXPECT_GE(first, 2);
  EXPECT_LE(first, 64);
  const char* saved = std::getenv("CUSAN_RANKS");
  const std::string saved_value = saved != nullptr ? saved : "";
  ASSERT_EQ(::setenv("CUSAN_RANKS", std::to_string(first + 1).c_str(), 1), 0);
  EXPECT_EQ(capi::default_ranks(), first) << "env re-read after first call";
  if (saved != nullptr) {
    ASSERT_EQ(::setenv("CUSAN_RANKS", saved_value.c_str(), 1), 0);
  } else {
    ASSERT_EQ(::unsetenv("CUSAN_RANKS"), 0);
  }
  EXPECT_EQ(capi::default_ranks(), first);
}

}  // namespace
