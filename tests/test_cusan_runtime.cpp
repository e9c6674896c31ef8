// Unit tests for the CuSan runtime (paper §IV-A): stream fibers, kernel
// launch annotation, explicit/implicit synchronization, legacy default
// stream semantics, events and the ablation knob. Tests drive the callback
// interface directly, simulating the instrumented call stream.
#include <gtest/gtest.h>

#include <array>

#include "cusan/runtime.hpp"
#include "metric_value.hpp"

namespace {

using cusan::KernelArgAccess;
using kir::AccessMode;

class CusanRuntimeTest : public ::testing::Test {
 protected:
  CusanRuntimeTest() : types(&db), cusan_rt(&tsan, &types, metrics) {
    cusan_rt.bind_device(&device);
    // A tracked device allocation used as the kernel buffer.
    (void)device.malloc_device(&d_buf, kBytes);
    types.on_alloc(d_buf, typeart::kDouble, kCount, typeart::AllocKind::kDevice);
  }

  ~CusanRuntimeTest() override { (void)device.free(d_buf); }

  /// Simulates the instrumented launch of a kernel writing/reading d_buf.
  void launch(const cusim::Stream* stream, AccessMode mode, const char* name = "k") {
    const KernelArgAccess arg{d_buf, mode};
    cusan_rt.on_kernel_launch(stream, name, std::span(&arg, 1));
  }

  /// Host-side access to the buffer, as MUST would annotate an MPI call.
  void host_write() { tsan.write_range(d_buf, kBytes, "host write"); }
  void host_read() { tsan.read_range(d_buf, kBytes, "host read"); }

  [[nodiscard]] std::uint64_t races() const { return metric_value(metrics, "rsan.races_detected"); }

  static constexpr std::size_t kCount = 512;
  static constexpr std::size_t kBytes = kCount * sizeof(double);

  typeart::TypeDB db;
  obs::MetricsRegistry metrics;
  rsan::Runtime tsan{metrics};
  typeart::Runtime types;
  cusim::Device device;
  cusan::Runtime cusan_rt;
  void* d_buf{};
};

TEST_F(CusanRuntimeTest, KernelThenHostAccessWithoutSyncRaces) {
  launch(device.default_stream(), AccessMode::kWrite);
  host_read();
  EXPECT_EQ(races(), 1u);
}

TEST_F(CusanRuntimeTest, DeviceSynchronizeOrdersKernelBeforeHost) {
  launch(device.default_stream(), AccessMode::kWrite);
  cusan_rt.on_device_synchronize();
  host_read();
  EXPECT_EQ(races(), 0u);
}

TEST_F(CusanRuntimeTest, StreamSynchronizeOrdersItsOwnStream) {
  cusim::Stream* s = nullptr;
  (void)device.stream_create(&s);
  cusan_rt.on_stream_create(s);
  launch(s, AccessMode::kWrite);
  cusan_rt.on_stream_synchronize(s);
  host_write();
  EXPECT_EQ(races(), 0u);
}

TEST_F(CusanRuntimeTest, SynchronizingTheWrongStreamStillRaces) {
  cusim::Stream* s1 = nullptr;
  cusim::Stream* s2 = nullptr;
  (void)device.stream_create(&s1, cusim::StreamFlags::kNonBlocking);
  (void)device.stream_create(&s2, cusim::StreamFlags::kNonBlocking);
  cusan_rt.on_stream_create(s1);
  cusan_rt.on_stream_create(s2);
  launch(s1, AccessMode::kWrite);
  cusan_rt.on_stream_synchronize(s2);  // wrong stream
  host_read();
  EXPECT_EQ(races(), 1u);
}

TEST_F(CusanRuntimeTest, HostToKernelLaunchIsOrdered) {
  // Host writes the buffer before launching the kernel: launch order must
  // order host -> kernel, no race.
  host_write();
  launch(device.default_stream(), AccessMode::kRead);
  EXPECT_EQ(races(), 0u);
}

TEST_F(CusanRuntimeTest, TwoKernelsSameStreamAreOrdered) {
  launch(device.default_stream(), AccessMode::kWrite, "k1");
  launch(device.default_stream(), AccessMode::kWrite, "k2");
  EXPECT_EQ(races(), 0u);  // FIFO order within a stream
}

TEST_F(CusanRuntimeTest, KernelsOnNonBlockingStreamsAreConcurrent) {
  cusim::Stream* s1 = nullptr;
  cusim::Stream* s2 = nullptr;
  (void)device.stream_create(&s1, cusim::StreamFlags::kNonBlocking);
  (void)device.stream_create(&s2, cusim::StreamFlags::kNonBlocking);
  cusan_rt.on_stream_create(s1);
  cusan_rt.on_stream_create(s2);
  launch(s1, AccessMode::kWrite, "k1");
  launch(s2, AccessMode::kWrite, "k2");
  EXPECT_EQ(races(), 1u);  // unsynchronized cross-stream conflict
}

TEST_F(CusanRuntimeTest, LegacyDefaultStreamOrdersBlockingStreams) {
  // Paper Fig. 3: K1 on blocking stream, K0 on default, K2 on blocking
  // stream; the default-stream barriers order all three.
  cusim::Stream* s1 = nullptr;
  cusim::Stream* s2 = nullptr;
  (void)device.stream_create(&s1);  // blocking
  (void)device.stream_create(&s2);  // blocking
  cusan_rt.on_stream_create(s1);
  cusan_rt.on_stream_create(s2);
  launch(s1, AccessMode::kWrite, "K1");
  launch(device.default_stream(), AccessMode::kWrite, "K0");
  launch(s2, AccessMode::kWrite, "K2");
  EXPECT_EQ(races(), 0u);
}

TEST_F(CusanRuntimeTest, NonBlockingStreamsEscapeLegacyBarriers) {
  cusim::Stream* nb = nullptr;
  (void)device.stream_create(&nb, cusim::StreamFlags::kNonBlocking);
  cusan_rt.on_stream_create(nb);
  launch(nb, AccessMode::kWrite, "K1");
  launch(device.default_stream(), AccessMode::kWrite, "K0");
  EXPECT_EQ(races(), 1u);  // no implicit ordering with non-blocking streams
}

TEST_F(CusanRuntimeTest, SyncOnUserStreamCoversEarlierDefaultWork) {
  // Paper Fig. 3: after host sync on K2's stream, K0 (default) and K1 also
  // completed. Here: default kernel, then blocking-stream kernel, then host
  // syncs only the blocking stream -> the default kernel must be covered.
  cusim::Stream* s = nullptr;
  (void)device.stream_create(&s);
  cusan_rt.on_stream_create(s);
  launch(device.default_stream(), AccessMode::kWrite, "K0");
  launch(s, AccessMode::kRead, "K2");
  cusan_rt.on_stream_synchronize(s);
  host_write();
  EXPECT_EQ(races(), 0u);
}

TEST_F(CusanRuntimeTest, SyncOnDefaultStreamCoversBlockingStreams) {
  // Paper §IV-A-e: synchronizing the default stream terminates the arcs of
  // all blocking streams.
  cusim::Stream* s = nullptr;
  (void)device.stream_create(&s);
  cusan_rt.on_stream_create(s);
  launch(s, AccessMode::kWrite, "K1");
  cusan_rt.on_stream_synchronize(device.default_stream());
  host_read();
  EXPECT_EQ(races(), 0u);
}

TEST_F(CusanRuntimeTest, EventSynchronizeCoversWorkUpToRecord) {
  cusim::Stream* s = nullptr;
  cusim::Event* e = nullptr;
  (void)device.stream_create(&s, cusim::StreamFlags::kNonBlocking);
  (void)device.event_create(&e);
  cusan_rt.on_stream_create(s);
  cusan_rt.on_event_create(e);
  launch(s, AccessMode::kWrite, "before record");
  (void)device.event_record(e, s);
  cusan_rt.on_event_record(e, s);
  cusan_rt.on_event_synchronize(e);
  host_read();
  EXPECT_EQ(races(), 0u);
}

TEST_F(CusanRuntimeTest, EventDoesNotCoverWorkAfterRecord) {
  cusim::Stream* s = nullptr;
  cusim::Event* e = nullptr;
  (void)device.stream_create(&s, cusim::StreamFlags::kNonBlocking);
  (void)device.event_create(&e);
  cusan_rt.on_stream_create(s);
  cusan_rt.on_event_create(e);
  (void)device.event_record(e, s);
  cusan_rt.on_event_record(e, s);
  launch(s, AccessMode::kWrite, "after record");  // not captured by the event
  cusan_rt.on_event_synchronize(e);
  host_read();
  EXPECT_EQ(races(), 1u);
}

TEST_F(CusanRuntimeTest, StreamWaitEventOrdersConsumerStream) {
  cusim::Stream* producer = nullptr;
  cusim::Stream* consumer = nullptr;
  cusim::Event* e = nullptr;
  (void)device.stream_create(&producer, cusim::StreamFlags::kNonBlocking);
  (void)device.stream_create(&consumer, cusim::StreamFlags::kNonBlocking);
  (void)device.event_create(&e);
  cusan_rt.on_stream_create(producer);
  cusan_rt.on_stream_create(consumer);
  cusan_rt.on_event_create(e);
  launch(producer, AccessMode::kWrite, "produce");
  (void)device.event_record(e, producer);
  cusan_rt.on_event_record(e, producer);
  cusan_rt.on_stream_wait_event(consumer, e);
  launch(consumer, AccessMode::kRead, "consume");
  EXPECT_EQ(races(), 0u);
}

TEST_F(CusanRuntimeTest, UnsyncedEventSynchronizeIsNoop) {
  cusim::Event* e = nullptr;
  (void)device.event_create(&e);
  cusan_rt.on_event_create(e);
  cusan_rt.on_event_synchronize(e);  // never recorded: must not crash
  EXPECT_EQ(races(), 0u);
}

TEST_F(CusanRuntimeTest, SuccessfulStreamQueryActsAsSync) {
  cusim::Stream* s = nullptr;
  (void)device.stream_create(&s, cusim::StreamFlags::kNonBlocking);
  cusan_rt.on_stream_create(s);
  launch(s, AccessMode::kWrite);
  cusan_rt.on_stream_query_success(s);  // busy-wait loop succeeded
  host_read();
  EXPECT_EQ(races(), 0u);
}

TEST_F(CusanRuntimeTest, MemcpySyncCreditsHostSynchronization) {
  // Kernel writes d_buf; cudaMemcpy D2H (documented synchronous) copies it
  // out; the host may then read the destination AND the source.
  std::array<double, kCount> host_dst{};
  launch(device.default_stream(), AccessMode::kWrite);
  cusan_rt.on_memcpy(host_dst.data(), d_buf, kBytes, cusim::MemcpyDir::kDeviceToHost);
  host_read();
  tsan.read_range(host_dst.data(), kBytes, "host reads dst");
  EXPECT_EQ(races(), 0u);
}

TEST_F(CusanRuntimeTest, MemcpyAsyncPessimisticallyDoesNotSync) {
  // Even though the simulator stages pageable async copies synchronously,
  // the model must not credit it: a host access right after remains racy
  // with the device-side copy.
  std::array<double, kCount> host_dst{};
  cusim::Stream* s = nullptr;
  (void)device.stream_create(&s, cusim::StreamFlags::kNonBlocking);
  cusan_rt.on_stream_create(s);
  cusan_rt.on_memcpy_async(host_dst.data(), d_buf, kBytes, cusim::MemcpyDir::kDeviceToHost, s);
  tsan.write_range(host_dst.data(), kBytes, "host writes dst");
  EXPECT_EQ(races(), 1u);
}

TEST_F(CusanRuntimeTest, MemsetIsAsyncWriteOnDefaultStream) {
  cusan_rt.on_memset(d_buf, kBytes);
  host_read();  // no sync in between
  EXPECT_EQ(races(), 1u);
  EXPECT_EQ(metric_value(metrics, "cusan.memsets"), 1u);
}

TEST_F(CusanRuntimeTest, FreeResetsShadowState) {
  launch(device.default_stream(), AccessMode::kWrite);
  cusan_rt.on_free(d_buf);
  // Reused address: no stale race against the old kernel epoch.
  host_write();
  EXPECT_EQ(races(), 0u);
}

TEST_F(CusanRuntimeTest, AblationDisablesMemoryTrackingOnly) {
  cusan::Config config;
  config.track_memory_accesses = false;
  obs::MetricsRegistry quiet_metrics;
  cusan::Runtime quiet(&tsan, &types, quiet_metrics, config);
  quiet.bind_device(&device);
  const KernelArgAccess arg{d_buf, AccessMode::kWrite};
  quiet.on_kernel_launch(device.default_stream(), "k", std::span(&arg, 1));
  host_read();
  EXPECT_EQ(races(), 0u);  // no annotations -> no detection (paper §V-B)
  EXPECT_EQ(metric_value(quiet_metrics, "cusan.kernel_launches"), 1u);
  EXPECT_GT(metric_value(quiet_metrics, "cusan.hb_before"), 0u);  // sync modelling still active
}

TEST_F(CusanRuntimeTest, UntrackedKernelArgCounted) {
  double untracked[4];
  const KernelArgAccess arg{untracked, AccessMode::kWrite};
  cusan_rt.on_kernel_launch(device.default_stream(), "k", std::span(&arg, 1));
  EXPECT_EQ(metric_value(metrics, "cusan.unknown_kernel_args"), 1u);
  EXPECT_EQ(races(), 0u);
}

TEST_F(CusanRuntimeTest, WholeAllocationAnnotatedFromInteriorPointer) {
  // Kernel receives an interior pointer; CuSan annotates the whole
  // allocation (paper §V-B), so a host access to the allocation's start
  // still conflicts.
  auto* interior = static_cast<double*>(d_buf) + kCount / 2;
  const KernelArgAccess arg{interior, AccessMode::kWrite};
  cusan_rt.on_kernel_launch(device.default_stream(), "k", std::span(&arg, 1));
  tsan.read_range(d_buf, sizeof(double), "host reads allocation start");
  EXPECT_EQ(races(), 1u);
  EXPECT_EQ(metric_value(metrics, "rsan.write_range_bytes"), kBytes);  // full extent
}

TEST_F(CusanRuntimeTest, CountersMatchCallStream) {
  cusim::Stream* s = nullptr;
  (void)device.stream_create(&s);
  cusan_rt.on_stream_create(s);
  launch(s, AccessMode::kReadWrite);
  cusan_rt.on_stream_synchronize(s);
  cusan_rt.on_device_synchronize();
  std::array<double, kCount> h{};
  cusan_rt.on_memcpy(h.data(), d_buf, kBytes, cusim::MemcpyDir::kDeviceToHost);
  // User stream + default (lazy, via memcpy).
  EXPECT_EQ(metric_value(metrics, "cusan.streams_created"), 2u);
  EXPECT_EQ(metric_value(metrics, "cusan.kernel_launches"), 1u);
  EXPECT_EQ(metric_value(metrics, "cusan.sync_calls"), 2u);
  EXPECT_EQ(metric_value(metrics, "cusan.memcpys"), 1u);
  // Kernel read+write annotations both happened.
  EXPECT_EQ(metric_value(metrics, "rsan.write_range_calls"), 2u);  // kernel write + memcpy dst
  EXPECT_EQ(metric_value(metrics, "rsan.read_range_calls"), 2u);   // kernel read + memcpy src
}

TEST_F(CusanRuntimeTest, StreamDestroySynchronizesAndForgets) {
  cusim::Stream* s = nullptr;
  (void)device.stream_create(&s);
  cusan_rt.on_stream_create(s);
  launch(s, AccessMode::kWrite);
  cusan_rt.on_stream_destroy(s);
  (void)device.stream_destroy(s);
  host_read();
  EXPECT_EQ(races(), 0u);  // destroy implies synchronization
}

}  // namespace
