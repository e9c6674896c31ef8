// Tests for the paper's future-work / artifact extensions implemented here:
// per-thread default stream mode (§VI-B), TSan-style suppressions (artifact
// description), broader CUDA API coverage (§VI-A: cudaHostRegister,
// cudaMemcpy2D, cudaMemPrefetchAsync, cudaLaunchHostFunc) and MUST's
// request-leak finalize checks.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "capi/cuda.hpp"
#include "capi/memaccess.hpp"
#include "capi/mpi.hpp"
#include "capi/session.hpp"
#include "kir/registry.hpp"
#include "obs/ring.hpp"
#include "rsan/suppressions.hpp"
#include "metric_value.hpp"

namespace {

using capi::Flavor;
using capi::RankEnv;

struct ExtKernels {
  kir::Module module;
  const kir::KernelInfo* writer{};
  std::unique_ptr<kir::KernelRegistry> registry;
  ExtKernels() {
    kir::Function* w = module.create_function("ext_writer", {true, false});
    w->store(w->gep(w->param(0), w->constant()), w->constant());
    w->ret();
    registry = std::make_unique<kir::KernelRegistry>(module);
    writer = registry->lookup(w);
  }
};

const ExtKernels& kernels() {
  static const ExtKernels k;
  return k;
}

capi::SessionConfig session_with(Flavor flavor,
                                 cusim::DefaultStreamMode mode =
                                     cusim::DefaultStreamMode::kLegacy,
                                 int ranks = 1) {
  capi::SessionConfig config;
  config.ranks = ranks;
  config.tools = capi::make_tool_config(flavor);
  config.device_profile.default_stream_mode = mode;
  return config;
}

// -- Per-thread default stream mode (§VI-B) --------------------------------------

TEST(PerThreadDefaultStreamTest, LegacyModeOrdersDefaultAndUserStream) {
  const auto results = capi::run_session(
      session_with(Flavor::kCusan), [](RankEnv&) {
        double* d = nullptr;
        (void)capi::cuda::malloc_device(&d, 256);
        cusim::Stream* s = nullptr;
        (void)capi::cuda::stream_create(&s);
        (void)capi::cuda::launch(*kernels().writer, {1, 1}, nullptr, {d, nullptr},
                                 [](const cusim::KernelContext&) {});
        (void)capi::cuda::launch(*kernels().writer, {1, 1}, s, {d, nullptr},
                                 [](const cusim::KernelContext&) {});
        (void)capi::cuda::device_synchronize();
        (void)capi::cuda::stream_destroy(s);
        (void)capi::cuda::free(d);
      });
  EXPECT_EQ(capi::total_races(results), 0u);  // legacy barrier orders them
}

TEST(PerThreadDefaultStreamTest, PerThreadModeRemovesTheBarrier) {
  const auto results = capi::run_session(
      session_with(Flavor::kCusan, cusim::DefaultStreamMode::kPerThread), [](RankEnv&) {
        double* d = nullptr;
        (void)capi::cuda::malloc_device(&d, 256);
        cusim::Stream* s = nullptr;
        (void)capi::cuda::stream_create(&s);
        (void)capi::cuda::launch(*kernels().writer, {1, 1}, nullptr, {d, nullptr},
                                 [d](const cusim::KernelContext&) { d[0] = 1.0; });
        (void)capi::cuda::launch(*kernels().writer, {1, 1}, s, {d, nullptr},
                                 [d](const cusim::KernelContext&) { d[255] = 2.0; });
        (void)capi::cuda::device_synchronize();
        (void)capi::cuda::stream_destroy(s);
        (void)capi::cuda::free(d);
      });
  EXPECT_GE(capi::total_races(results), 1u);  // no implicit ordering anymore
}

TEST(PerThreadDefaultStreamTest, ExecutionOrderingAlsoRelaxed) {
  // cusim side: in per-thread mode a blocked default stream must not stall a
  // user stream.
  cusim::DeviceProfile profile;
  profile.default_stream_mode = cusim::DefaultStreamMode::kPerThread;
  cusim::Device device(profile);
  std::atomic<bool> release{false};
  ASSERT_EQ(device.launch_kernel(nullptr, {1, 1},
                                 [&](const cusim::KernelContext&) {
                                   while (!release.load()) {
                                     std::this_thread::yield();
                                   }
                                 }),
            cusim::Error::kSuccess);
  cusim::Stream* s = nullptr;
  ASSERT_EQ(device.stream_create(&s), cusim::Error::kSuccess);
  int ran = 0;
  ASSERT_EQ(device.launch_kernel(s, {1, 1}, [&](const cusim::KernelContext&) { ran = 1; }),
            cusim::Error::kSuccess);
  ASSERT_EQ(device.stream_synchronize(s), cusim::Error::kSuccess);  // would deadlock in legacy
  EXPECT_EQ(ran, 1);
  release.store(true);
  ASSERT_EQ(device.device_synchronize(), cusim::Error::kSuccess);
  ASSERT_EQ(device.stream_destroy(s), cusim::Error::kSuccess);
}

TEST(PerThreadDefaultStreamTest, StreamSyncOnPerThreadDefaultCoversOnlyItself) {
  const auto results = capi::run_session(
      session_with(Flavor::kCusan, cusim::DefaultStreamMode::kPerThread), [](RankEnv&) {
        double* d = nullptr;
        (void)capi::cuda::malloc_device(&d, 256);
        cusim::Stream* s = nullptr;
        (void)capi::cuda::stream_create(&s);
        (void)capi::cuda::launch(*kernels().writer, {1, 1}, s, {d, nullptr},
                                 [](const cusim::KernelContext&) {});
        // Synchronizing the per-thread default stream does NOT cover s.
        (void)capi::cuda::stream_synchronize(nullptr);
        capi::annotate_host_reads(d, 256 * sizeof(double), "host read");
        (void)capi::cuda::stream_synchronize(s);
        (void)capi::cuda::stream_destroy(s);
        (void)capi::cuda::free(d);
      });
  EXPECT_GE(capi::total_races(results), 1u);
}

// -- Suppressions -------------------------------------------------------------------

TEST(SuppressionTest, GlobMatching) {
  using rsan::SuppressionList;
  EXPECT_TRUE(SuppressionList::glob_match("abc", "abc"));
  EXPECT_FALSE(SuppressionList::glob_match("abc", "abcd"));
  EXPECT_TRUE(SuppressionList::glob_match("a*c", "abbbc"));
  EXPECT_TRUE(SuppressionList::glob_match("*", "anything"));
  EXPECT_TRUE(SuppressionList::glob_match("kernel '*' arg ?", "kernel 'foo' arg 0"));
  EXPECT_FALSE(SuppressionList::glob_match("kernel*", "launch kernel"));
  EXPECT_TRUE(SuppressionList::glob_match("*kernel*", "launch kernel now"));
  EXPECT_TRUE(SuppressionList::glob_match("", ""));
  EXPECT_FALSE(SuppressionList::glob_match("", "x"));
  EXPECT_TRUE(SuppressionList::glob_match("**", "x"));
  EXPECT_TRUE(SuppressionList::glob_match("a?c", "abc"));
  EXPECT_FALSE(SuppressionList::glob_match("a?c", "ac"));
}

TEST(SuppressionTest, ParseTsanStyleFile) {
  rsan::SuppressionList list;
  const auto added = list.parse(
      "# cluster-specific suppressions\n"
      "race:libucx*\n"
      "thread:ignored_kind\n"
      "\n"
      "  race:MPI_Isend buffer*  \n"
      "bare_pattern\n");
  EXPECT_EQ(added, 3u);
  EXPECT_EQ(list.size(), 3u);
}

TEST(SuppressionTest, SuppressedRacesAreCountedSeparately) {
  obs::MetricsRegistry metrics;
  rsan::Runtime rt{metrics};
  rt.suppressions().add("kernel 'noisy'*");
  std::array<double, 64> buf{};
  const auto fiber = rt.create_fiber(rsan::CtxKind::kStreamFiber, "stream 1");
  rt.switch_to_fiber(fiber);
  rt.write_range(buf.data(), sizeof buf, "kernel 'noisy' arg 0 [write]");
  rt.switch_to_fiber(rt.host_ctx());
  rt.write_range(buf.data(), sizeof buf, "host write");
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 0u);
  EXPECT_EQ(metric_value(metrics, "rsan.races_suppressed"), 1u);
  EXPECT_TRUE(rt.reports().empty());
}

TEST(SuppressionTest, UnmatchedRacesStillReported) {
  obs::MetricsRegistry metrics;
  rsan::Runtime rt{metrics};
  rt.suppressions().add("totally-unrelated-*");
  std::array<double, 64> buf{};
  const auto fiber = rt.create_fiber(rsan::CtxKind::kStreamFiber, "stream 1");
  rt.switch_to_fiber(fiber);
  rt.write_range(buf.data(), sizeof buf, "kernel 'k' arg 0 [write]");
  rt.switch_to_fiber(rt.host_ctx());
  rt.write_range(buf.data(), sizeof buf, "host write");
  EXPECT_EQ(metric_value(metrics, "rsan.races_detected"), 1u);
  EXPECT_EQ(metric_value(metrics, "rsan.races_suppressed"), 0u);
}

TEST(SuppressionTest, MatchesContextNameToo) {
  obs::MetricsRegistry metrics;
  rsan::Runtime rt{metrics};
  rt.suppressions().add("MPI request fiber*");
  std::array<double, 64> buf{};
  const auto fiber = rt.create_fiber(rsan::CtxKind::kMpiRequestFiber, "MPI request fiber 7");
  rt.switch_to_fiber(fiber);
  rt.write_range(buf.data(), sizeof buf);
  rt.switch_to_fiber(rt.host_ctx());
  rt.write_range(buf.data(), sizeof buf);
  EXPECT_EQ(metric_value(metrics, "rsan.races_suppressed"), 1u);
}

// -- cudaHostRegister / cudaHostUnregister -----------------------------------------

TEST(HostRegisterTest, ChangesUvaKindAndSyncBehavior) {
  (void)capi::run_session(session_with(Flavor::kCusan), [](RankEnv& env) {
    std::array<double, 128> host{};
    EXPECT_EQ(env.tools.device().pointer_attributes(host.data()).kind,
              cusim::MemKind::kPageableHost);
    ASSERT_EQ(capi::cuda::host_register(host.data(), host.size()), cusim::Error::kSuccess);
    EXPECT_EQ(env.tools.device().pointer_attributes(host.data()).kind,
              cusim::MemKind::kPinnedHost);
    // TypeART tracks the registration.
    const auto info = env.tools.types()->find(host.data());
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->kind, typeart::AllocKind::kPinnedHost);
    ASSERT_EQ(capi::cuda::host_unregister(host.data()), cusim::Error::kSuccess);
    EXPECT_EQ(env.tools.device().pointer_attributes(host.data()).kind,
              cusim::MemKind::kPageableHost);
  });
}

TEST(HostRegisterTest, PinnedMemsetBecomesHostSynchronous) {
  // memset to pinned host memory synchronizes with the host (paper §III-C):
  // after cudaHostRegister, the host access right after memset is ordered.
  const auto races_for = [](bool registered) {
    return capi::total_races(capi::run_session(session_with(Flavor::kCusan), [&](RankEnv&) {
      static std::array<double, 512> host_a{};
      static std::array<double, 512> host_b{};
      auto& host = registered ? host_a : host_b;
      if (registered) {
        (void)capi::cuda::host_register(host.data(), host.size());
      } else {
        capi::cuda::register_host_buffer(host.data(), host.size());
      }
      (void)capi::cuda::memset(host.data(), 0, sizeof host);
      capi::annotate_host_writes(host.data(), sizeof host, "host writes after memset");
      (void)capi::cuda::device_synchronize();
      if (registered) {
        (void)capi::cuda::host_unregister(host.data());
      } else {
        capi::cuda::unregister_host_buffer(host.data());
      }
    }));
  };
  EXPECT_EQ(races_for(true), 0u);   // pinned: memset synchronized
  EXPECT_GE(races_for(false), 1u);  // pageable: memset stays asynchronous
}

TEST(HostRegisterTest, CannotFreeRegisteredMemory) {
  cusim::Device device;
  std::array<double, 16> host{};
  ASSERT_EQ(device.host_register(host.data(), sizeof host), cusim::Error::kSuccess);
  EXPECT_EQ(device.free_host(host.data()), cusim::Error::kInvalidValue);
  EXPECT_EQ(device.host_unregister(host.data()), cusim::Error::kSuccess);
  EXPECT_EQ(device.host_unregister(host.data()), cusim::Error::kInvalidValue);  // twice
}

// -- cudaMemcpy2D ----------------------------------------------------------------------

TEST(Memcpy2DTest, CopiesRowsRespectingPitch) {
  cusim::Device device;
  // 4 rows x 8 bytes from a 16-byte-pitch source into a 8-byte-pitch dst.
  std::array<std::uint8_t, 64> src{};
  std::array<std::uint8_t, 32> dst{};
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>(i);
  }
  ASSERT_EQ(device.memcpy_2d(dst.data(), 8, src.data(), 16, 8, 4, cusim::MemcpyDir::kHostToHost),
            cusim::Error::kSuccess);
  for (std::size_t row = 0; row < 4; ++row) {
    for (std::size_t col = 0; col < 8; ++col) {
      EXPECT_EQ(dst[row * 8 + col], src[row * 16 + col]);
    }
  }
}

TEST(Memcpy2DTest, RejectsWidthBeyondPitch) {
  cusim::Device device;
  std::array<std::uint8_t, 64> buf{};
  EXPECT_EQ(device.memcpy_2d(buf.data(), 4, buf.data() + 32, 16, 8, 2,
                             cusim::MemcpyDir::kHostToHost),
            cusim::Error::kInvalidValue);
}

TEST(Memcpy2DTest, PitchHolesAreNotAnnotated) {
  (void)capi::run_session(session_with(Flavor::kCusan), [](RankEnv& env) {
    double* d = nullptr;
    (void)capi::cuda::malloc_device(&d, 64);  // 8x8 doubles
    std::array<double, 32> host{};            // 8 rows of 4 doubles
    capi::cuda::register_host_buffer(host.data(), host.size());
    // Copy a 4-double-wide column block out of the 8-double-pitch grid.
    ASSERT_EQ(capi::cuda::memcpy_2d(host.data(), 4 * sizeof(double), d, 8 * sizeof(double),
                                    4 * sizeof(double), 8, cusim::MemcpyDir::kDeviceToHost),
              cusim::Error::kSuccess);
    // Host touches the second half of a device row (the pitch hole): no race
    // with the copy's read annotation.
    capi::annotate_host_writes(d + 4, 4 * sizeof(double), "hole write");
    EXPECT_EQ(metric_value(env.tools.metrics(), "rsan.races_detected"), 0u);
    // Touching the copied block region does conflict... but the copy was
    // host-synchronous (D2H to pageable), so it is ordered. Verify the model
    // credited the sync: no race either.
    capi::annotate_host_writes(d, 4 * sizeof(double), "block write");
    EXPECT_EQ(metric_value(env.tools.metrics(), "rsan.races_detected"), 0u);
    capi::cuda::unregister_host_buffer(host.data());
    (void)capi::cuda::free(d);
  });
}

// -- cudaMemPrefetchAsync ---------------------------------------------------------------

TEST(PrefetchTest, OnlyManagedMemoryAccepted) {
  (void)capi::run_session(session_with(Flavor::kCusan), [](RankEnv&) {
    double* m = nullptr;
    double* d = nullptr;
    (void)capi::cuda::malloc_managed(&m, 64);
    (void)capi::cuda::malloc_device(&d, 64);
    EXPECT_EQ(capi::cuda::mem_prefetch_async(m, 64 * sizeof(double), nullptr),
              cusim::Error::kSuccess);
    EXPECT_EQ(capi::cuda::mem_prefetch_async(d, 64 * sizeof(double), nullptr),
              cusim::Error::kInvalidValue);
    (void)capi::cuda::device_synchronize();
    (void)capi::cuda::free(m);
    (void)capi::cuda::free(d);
  });
}

TEST(PrefetchTest, PrefetchDoesNotRaceWithKernel) {
  // Prefetching is a migration hint, not a data access: no conflict with a
  // concurrent kernel on another stream.
  const auto results = capi::run_session(session_with(Flavor::kCusan), [](RankEnv&) {
    double* m = nullptr;
    (void)capi::cuda::malloc_managed(&m, 512);
    cusim::Stream* s1 = nullptr;
    cusim::Stream* s2 = nullptr;
    (void)capi::cuda::stream_create(&s1, cusim::StreamFlags::kNonBlocking);
    (void)capi::cuda::stream_create(&s2, cusim::StreamFlags::kNonBlocking);
    (void)capi::cuda::launch(*kernels().writer, {1, 1}, s1, {m, nullptr},
                             [](const cusim::KernelContext&) {});
    (void)capi::cuda::mem_prefetch_async(m, 512 * sizeof(double), s2);
    (void)capi::cuda::device_synchronize();
    (void)capi::cuda::stream_destroy(s1);
    (void)capi::cuda::stream_destroy(s2);
    (void)capi::cuda::free(m);
  });
  EXPECT_EQ(capi::total_races(results), 0u);
}

// -- cudaLaunchHostFunc --------------------------------------------------------------------

TEST(HostFuncTest, RunsAfterPriorStreamWork) {
  cusim::Device device;
  std::vector<int> order;
  ASSERT_EQ(device.launch_kernel(nullptr, {1, 1},
                                 [&](const cusim::KernelContext&) { order.push_back(1); }),
            cusim::Error::kSuccess);
  ASSERT_EQ(device.launch_host_func(nullptr, [&] { order.push_back(2); }),
            cusim::Error::kSuccess);
  ASSERT_EQ(device.device_synchronize(), cusim::Error::kSuccess);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(HostFuncTest, ParticipatesInStreamOrderingForDetection) {
  const auto results = capi::run_session(session_with(Flavor::kCusan), [](RankEnv& env) {
    double* d = nullptr;
    (void)capi::cuda::malloc_device(&d, 128);
    (void)capi::cuda::launch(*kernels().writer, {1, 1}, nullptr, {d, nullptr},
                             [](const cusim::KernelContext&) {});
    (void)capi::cuda::launch_host_func(nullptr, [] {});
    // Still unsynchronized with the HOST thread: the kernel write races with
    // a host access (host funcs order the stream, not the host).
    capi::annotate_host_reads(d, 128 * sizeof(double), "host read");
    (void)capi::cuda::device_synchronize();
    (void)capi::cuda::free(d);
    EXPECT_EQ(metric_value(env.tools.metrics(), "cusan.host_funcs"), 1u);
  });
  EXPECT_GE(capi::total_races(results), 1u);
}

// -- Multi-device ranks (cudaSetDevice, per-device contexts §IV-A-a) ---------------------------

capi::SessionConfig multi_device_session(Flavor flavor, int devices) {
  capi::SessionConfig config = session_with(flavor);
  config.devices_per_rank = devices;
  return config;
}

TEST(MultiDeviceTest, SetDeviceSwitchesCurrentDevice) {
  (void)capi::run_session(multi_device_session(Flavor::kCusan, 2), [](RankEnv& env) {
    EXPECT_EQ(capi::cuda::get_device_count(), 2);
    EXPECT_EQ(capi::cuda::get_device(), 0);
    cusim::Device* dev0 = &env.tools.device();
    ASSERT_EQ(capi::cuda::set_device(1), cusim::Error::kSuccess);
    EXPECT_EQ(capi::cuda::get_device(), 1);
    EXPECT_NE(&env.tools.device(), dev0);
    EXPECT_NE(capi::cuda::default_stream(), dev0->default_stream());
    EXPECT_EQ(capi::cuda::set_device(5), cusim::Error::kInvalidValue);
    EXPECT_EQ(capi::cuda::get_device(), 1);
    ASSERT_EQ(capi::cuda::set_device(0), cusim::Error::kSuccess);
  });
}

TEST(MultiDeviceTest, DeviceSynchronizeCoversOnlyCurrentDevice) {
  const auto results =
      capi::run_session(multi_device_session(Flavor::kCusan, 2), [](RankEnv&) {
        double* d0 = nullptr;
        double* d1 = nullptr;
        (void)capi::cuda::malloc_device(&d0, 128);  // on device 0
        (void)capi::cuda::set_device(1);
        (void)capi::cuda::malloc_device(&d1, 128);  // on device 1
        (void)capi::cuda::launch(*kernels().writer, {1, 1}, nullptr, {d1, nullptr},
                                 [](const cusim::KernelContext&) {});  // device 1 kernel
        (void)capi::cuda::set_device(0);
        (void)capi::cuda::launch(*kernels().writer, {1, 1}, nullptr, {d0, nullptr},
                                 [](const cusim::KernelContext&) {});  // device 0 kernel
        (void)capi::cuda::device_synchronize();  // current device = 0 only
        capi::annotate_host_reads(d0, 128 * sizeof(double), "host reads d0");  // clean
        capi::annotate_host_reads(d1, 128 * sizeof(double), "host reads d1");  // RACE
        (void)capi::cuda::set_device(1);
        (void)capi::cuda::device_synchronize();
        (void)capi::cuda::free(d1);
        (void)capi::cuda::set_device(0);
        (void)capi::cuda::free(d0);
      });
  EXPECT_EQ(capi::total_races(results), 1u);
  ASSERT_EQ(results[0].races.size(), 1u);
  EXPECT_EQ(results[0].races[0].current.label, "host reads d1");
}

TEST(MultiDeviceTest, LegacyBarriersAreScopedPerDevice) {
  // A default-stream kernel on device 0 does not order a blocking user
  // stream on device 1.
  const auto results =
      capi::run_session(multi_device_session(Flavor::kCusan, 2), [](RankEnv& env) {
        double* shared = nullptr;
        (void)capi::cuda::malloc_device(&shared, 128);  // allocated on device 0
        // Device 1's blocking user stream writes it...
        (void)capi::cuda::set_device(1);
        cusim::Stream* s1 = nullptr;
        (void)capi::cuda::stream_create(&s1);
        (void)capi::cuda::launch(*kernels().writer, {1, 1}, s1, {shared, nullptr},
                                 [shared](const cusim::KernelContext&) { shared[0] = 1.0; });
        // ...and device 0's default stream also writes it. On ONE device the
        // legacy barrier would order these; across devices it must not.
        (void)capi::cuda::set_device(0);
        (void)capi::cuda::launch(*kernels().writer, {1, 1}, nullptr, {shared, nullptr},
                                 [shared](const cusim::KernelContext&) { shared[127] = 2.0; });
        (void)capi::cuda::device_synchronize();
        (void)capi::cuda::set_device(1);
        (void)capi::cuda::stream_synchronize(s1);
        (void)capi::cuda::stream_destroy(s1);
        (void)capi::cuda::set_device(0);
        (void)capi::cuda::free(shared);
        (void)env;
      });
  EXPECT_GE(capi::total_races(results), 1u);
}

TEST(MultiDeviceTest, PerDeviceSyncMakesCrossDeviceUseClean) {
  const auto results =
      capi::run_session(multi_device_session(Flavor::kMustCusan, 2), [](RankEnv& env) {
        double* d = nullptr;
        (void)capi::cuda::set_device(1);
        (void)capi::cuda::malloc_device(&d, 64);
        (void)capi::cuda::launch(*kernels().writer, {1, 1}, nullptr, {d, nullptr},
                                 [](const cusim::KernelContext&) {});
        (void)capi::cuda::device_synchronize();  // device 1 synced before MPI
        if (env.rank() == 0) {
          (void)capi::mpi::send(env.comm, d, 32, mpisim::Datatype::float64(), 1, 0);
        } else {
          (void)capi::mpi::recv(env.comm, d, 32, mpisim::Datatype::float64(), 0, 0);
        }
        (void)capi::cuda::free(d);
        (void)capi::cuda::set_device(0);
      });
  EXPECT_EQ(capi::total_races(results), 0u);
}

// -- Stream-ordered allocation (cudaMallocAsync / cudaFreeAsync) -------------------------------

TEST(MallocAsyncTest, AllocFreeRoundTripWithTypeart) {
  (void)capi::run_session(session_with(Flavor::kCusan), [](RankEnv& env) {
    cusim::Stream* s = nullptr;
    (void)capi::cuda::stream_create(&s, cusim::StreamFlags::kNonBlocking);
    double* d = nullptr;
    ASSERT_EQ(capi::cuda::malloc_async(&d, 128, s), cusim::Error::kSuccess);
    ASSERT_NE(d, nullptr);
    const auto info = env.tools.types()->find(d);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->count, 128u);
    EXPECT_EQ(env.tools.device().pointer_attributes(d).kind, cusim::MemKind::kDevice);
    ASSERT_EQ(capi::cuda::free_async(d, s), cusim::Error::kSuccess);
    EXPECT_FALSE(env.tools.types()->find(d).has_value());
    (void)capi::cuda::stream_synchronize(s);
    EXPECT_EQ(env.tools.device().memory().live_allocations(), 0u);
    (void)capi::cuda::stream_destroy(s);
  });
}

TEST(MallocAsyncTest, FreeAsyncOrdersAfterKernel) {
  // The physical free happens after the kernel using the buffer (stream
  // FIFO); the tool state resets at call time without false races on reuse.
  const auto results = capi::run_session(session_with(Flavor::kCusan), [](RankEnv&) {
    for (int i = 0; i < 4; ++i) {
      double* d = nullptr;
      ASSERT_EQ(capi::cuda::malloc_async(&d, 256, nullptr), cusim::Error::kSuccess);
      (void)capi::cuda::launch(*kernels().writer, {1, 1}, nullptr, {d, nullptr},
                               [d](const cusim::KernelContext&) { d[0] = 1.0; });
      ASSERT_EQ(capi::cuda::free_async(d, nullptr), cusim::Error::kSuccess);
    }
    (void)capi::cuda::device_synchronize();
  });
  EXPECT_EQ(capi::total_races(results), 0u);
}

// -- CuSan interception trace -----------------------------------------------------------------

TEST(TraceTest, RecordsInterceptedCallsInOrder) {
  // Every intercepted CUDA call is an instant on the rank's host track.
  obs::reset_rings();
  obs::set_tracing_enabled(true);
  (void)capi::run_session(session_with(Flavor::kCusan), [&](RankEnv&) {
    double* d = nullptr;
    (void)capi::cuda::malloc_device(&d, 64);
    cusim::Stream* s = nullptr;
    (void)capi::cuda::stream_create(&s);
    (void)capi::cuda::launch(*kernels().writer, {1, 1}, s, {d, nullptr},
                             [](const cusim::KernelContext&) {});
    (void)capi::cuda::stream_synchronize(s);
    (void)capi::cuda::memcpy(d, d, 0, cusim::MemcpyDir::kDeviceToDevice);
    (void)capi::cuda::stream_destroy(s);
    (void)capi::cuda::free(d);
  });
  obs::set_tracing_enabled(false);
  std::vector<std::string> calls;
  for (const obs::Event& event : obs::ring_for_rank(0).snapshot()) {
    if (event.track == obs::kHostTrack && event.dur_ns == 0) {
      calls.emplace_back(event.name);
    }
  }
  obs::reset_rings();
  const std::vector<std::string> expected{"stream_create", "ext_writer",     "stream_synchronize",
                                          "cudaMemcpy",    "stream_destroy", "free"};
  EXPECT_EQ(calls, expected);
}

// -- capi comm_dup wrapper ----------------------------------------------------------------------

TEST(CommDupWrapperTest, DupCommunicatorWorksUnderMust) {
  const auto results = capi::run_flavored(Flavor::kMustCusan, 2, [](RankEnv& env) {
    mpisim::Comm dup;
    ASSERT_EQ(capi::mpi::comm_dup(env.comm, &dup), mpisim::MpiError::kSuccess);
    // Traffic on both communicators, same tags, stays separated and checked.
    std::array<double, 8> a{};
    std::array<double, 8> b{};
    const int peer = 1 - env.rank();
    ASSERT_EQ(capi::mpi::sendrecv(env.comm, a.data(), 8, mpisim::Datatype::float64(), peer, 0,
                                  a.data(), 8, mpisim::Datatype::float64(), peer, 0),
              mpisim::MpiError::kSuccess);
    ASSERT_EQ(capi::mpi::sendrecv(dup, b.data(), 8, mpisim::Datatype::float64(), peer, 0,
                                  b.data(), 8, mpisim::Datatype::float64(), peer, 0),
              mpisim::MpiError::kSuccess);
  });
  EXPECT_EQ(capi::total_races(results), 0u);
  EXPECT_GE(obs::value_of(results[0].metrics, "must.calls_intercepted"), 3u);
}

// -- misc extension edges ------------------------------------------------------------------------

TEST(MallocAsyncTest, InvalidStreamRejected) {
  cusim::Device device;
  void* p = nullptr;
  EXPECT_EQ(device.malloc_async(&p, 64, nullptr), cusim::Error::kInvalidResourceHandle);
  EXPECT_EQ(device.malloc_async(nullptr, 64, device.default_stream()),
            cusim::Error::kInvalidValue);
}

TEST(HostRegisterTest, OverlappingRegistrationRejected) {
  cusim::Device device;
  std::array<double, 32> host{};
  ASSERT_EQ(device.host_register(host.data(), sizeof host), cusim::Error::kSuccess);
  EXPECT_EQ(device.host_register(host.data() + 4, 64), cusim::Error::kInvalidValue);
  EXPECT_EQ(device.host_register(nullptr, 64), cusim::Error::kInvalidValue);
  ASSERT_EQ(device.host_unregister(host.data()), cusim::Error::kSuccess);
}

TEST(SuppressionTest, NonRaceDirectivesIgnored) {
  rsan::SuppressionList list;
  EXPECT_EQ(list.parse("thread:foo\nsignal:bar\n# race:commented\n"), 0u);
  EXPECT_TRUE(list.empty());
}

// -- MUST request-leak detection --------------------------------------------------------------

TEST(RequestLeakTest, LeakedRequestReportedAtFinalize) {
  // Receive buffers outlive the ranks: with the request never completed, the
  // peer's send may deliver after the rank body returned (part of the
  // modelled bug). Sends read a separate buffer, so delivery never overlaps
  // a send's pack.
  auto recv_buffers = std::make_shared<std::array<std::array<double, 32>, 2>>();
  const auto results = capi::run_flavored(Flavor::kMustCusan, 2, [recv_buffers](RankEnv& env) {
    double* recv_buf = (*recv_buffers)[static_cast<std::size_t>(env.rank())].data();
    const std::array<double, 32> send_buf{};
    mpisim::Request* req = nullptr;
    const int peer = 1 - env.rank();
    (void)capi::mpi::irecv(env.comm, recv_buf, 32, mpisim::Datatype::float64(), peer, 0, &req);
    (void)capi::mpi::send(env.comm, send_buf.data(), 32, mpisim::Datatype::float64(), peer, 0);
    // BUG: req is never waited on.
  });
  for (const auto& result : results) {
    ASSERT_EQ(result.must_reports.size(), 1u);
    EXPECT_EQ(result.must_reports[0].kind, must::ReportKind::kRequestLeak);
    EXPECT_EQ(result.must_reports[0].mpi_call, "MPI_Irecv");
    EXPECT_EQ(obs::value_of(result.metrics, "must.request_leaks"), 1u);
  }
}

TEST(RequestLeakTest, CompletedRequestsDoNotReport) {
  const auto results = capi::run_flavored(Flavor::kMustCusan, 2, [](RankEnv& env) {
    std::array<double, 32> recv_buf{};
    const std::array<double, 32> send_buf{};
    mpisim::Request* req = nullptr;
    const int peer = 1 - env.rank();
    (void)capi::mpi::irecv(env.comm, recv_buf.data(), 32, mpisim::Datatype::float64(), peer, 0,
                           &req);
    (void)capi::mpi::send(env.comm, send_buf.data(), 32, mpisim::Datatype::float64(), peer, 0);
    (void)capi::mpi::wait(env.comm, &req);
  });
  for (const auto& result : results) {
    EXPECT_TRUE(result.must_reports.empty());
    EXPECT_EQ(obs::value_of(result.metrics, "must.request_leaks"), 0u);
  }
}

}  // namespace
