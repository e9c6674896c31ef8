// Prove-and-elide tests (CUSAN_PROVE_ELIDE): the affine thread-index
// race-freedom analysis (kir/affine_analysis.hpp), launch-time elision in
// cusan::Runtime, and the soundness contract that detection verdicts
// are bit-identical whether a kernel argument is dynamically tracked or
// replaced by a proven-region marker:
//
//  1. theorem-1 unit tests: one-element-per-thread and gapped-stride kernels
//     are proven, sub-stride windows / thread-invariant writes / halo
//     neighbourhoods are not; read-only parameters are trivially race-free.
//  2. IntervalSet cap policy: affine resolution and Minkowski shifts widen
//     to ⊤ (ticking widened_by_cap) instead of silently losing intervals.
//  3. launch-time behaviour: proven arguments skip shadow stores entirely,
//     racy/aliased/whole-range arguments never elide, unordered proven
//     writers still race, and CUSAN_PROVE_ELIDE accepts only off|full.
//  4. differential property: random kernels x random schedules x
//     {off, full} x {fast, slow shadow} — race totals are bit-identical
//     on eviction-free schedules; when slot eviction costs the tracked
//     baseline an epoch, elision may add true races but never lose one.
//  5. scenario equality: §VI-C suite entries report identical verdicts with
//     prove-elide off and full, and the proven span scenarios actually elide.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "cusan/runtime.hpp"
#include "kir/registry.hpp"
#include "kir/verifier.hpp"
#include "rsan/runtime.hpp"
#include "testsuite/scenarios.hpp"
#include "metric_value.hpp"

namespace {

using kir::AffineAnalysis;
using kir::AffineSet;
using kir::AffineTerm;
using kir::Interval;
using kir::IntervalSet;

// ========================= 1. theorem-1 side conditions =========================

TEST(AffineProofTest, OneElementPerThreadIsProven) {
  kir::Module m;
  kir::Function* f = m.create_function("k", {true});
  const auto idx = f->thread_idx(0, 63);
  f->store(f->gep(f->param(0), idx, 8), f->constant(), 8);
  f->ret();
  ASSERT_TRUE(kir::is_valid(m));

  AffineAnalysis affine(m);
  const kir::ProofSummary* proof = affine.summary(f);
  ASSERT_NE(proof, nullptr);
  ASSERT_EQ(proof->params.size(), 1u);
  EXPECT_TRUE(proof->params[0].race_free);
  EXPECT_TRUE(proof->intra_race_free);
  EXPECT_EQ(to_string(proof->params[0].write), "8·tid+[0,8) t∈[0,63]");
  const IntervalSet bytes = proof->params[0].write.resolve();
  ASSERT_TRUE(bytes.is_bounded());
  EXPECT_EQ(to_string(bytes), "[0,512)");
}

TEST(AffineProofTest, GappedStrideIsProvenAndResolvesSparse) {
  // 8-byte stores strided by 16: hull 8 fits in the stride period, and the
  // resolved byte set keeps the gaps while it is under the interval cap.
  kir::Module m;
  kir::Function* f = m.create_function("k", {true});
  f->store(f->gep(f->param(0), f->thread_idx(0, 2), 16), f->constant(), 8);
  f->ret();
  AffineAnalysis affine(m);
  const auto& param = affine.params(f)[0];
  EXPECT_TRUE(param.race_free);
  EXPECT_EQ(to_string(param.write.resolve()), "[0,8)u[16,24)u[32,40)");
}

TEST(AffineProofTest, SubStrideWindowIsUnproven) {
  // 8-byte stores strided by only 4: adjacent thread indices overlap, so
  // theorem 1 must refuse.
  kir::Module m;
  kir::Function* f = m.create_function("k", {true});
  f->store(f->gep(f->param(0), f->thread_idx(0, 15), 4), f->constant(), 8);
  f->ret();
  AffineAnalysis affine(m);
  EXPECT_FALSE(affine.params(f)[0].race_free);
  EXPECT_FALSE(affine.summary(f)->intra_race_free);
}

TEST(AffineProofTest, ThreadInvariantWriteIsUnproven) {
  // Every thread writes the same window: the self-pair violates both S1
  // (stride 0) and S2 (a set always overlaps itself).
  kir::Module m;
  kir::Function* f = m.create_function("k", {true});
  f->store(f->gep(f->param(0), f->constant_int(3), 8), f->constant(), 8);
  f->ret();
  AffineAnalysis affine(m);
  const auto& param = affine.params(f)[0];
  EXPECT_TRUE(param.write.is_bounded());
  EXPECT_FALSE(param.race_free);
}

TEST(AffineProofTest, HaloNeighbourReadIsUnproven) {
  // out[tid] = in[tid]; in addition the kernel reads in[tid - 1] — on the
  // *same* parameter that it writes, thread t+1's neighbour read touches
  // thread t's store window, so the parameter must stay tracked.
  kir::Module m;
  kir::Function* f = m.create_function("k", {true});
  const auto p = f->param(0);
  const auto idx = f->thread_idx(1, 62);
  const auto at_tid = f->gep(p, idx, 8);
  (void)f->load(at_tid, 8);
  (void)f->load(f->gep(at_tid, f->constant_int(-1), 8), 8);  // in[tid - 1]
  f->store(at_tid, f->constant(), 8);
  f->ret();
  AffineAnalysis affine(m);
  const auto& param = affine.params(f)[0];
  EXPECT_TRUE(param.write.is_bounded());
  EXPECT_FALSE(param.race_free) << "neighbour read overlaps another thread's store";
}

TEST(AffineProofTest, ReadOnlyParamIsTriviallyRaceFree) {
  // Even a sub-stride (overlapping) access pattern is race-free when nothing
  // writes: read-read never races.
  kir::Module m;
  kir::Function* f = m.create_function("k", {true});
  (void)f->load(f->gep(f->param(0), f->thread_idx(0, 15), 4), 8);
  f->ret();
  AffineAnalysis affine(m);
  const auto& param = affine.params(f)[0];
  EXPECT_TRUE(param.race_free);
  EXPECT_TRUE(param.write.is_empty());
}

TEST(AffineProofTest, PairDisjointSideConditions) {
  // S1: equal stride and dimension, hull within one period.
  const AffineTerm a{8, 0, 8, 0, 63, 0};
  EXPECT_TRUE(pair_disjoint_across_threads(a, a));
  // Hull too wide: [0,8) vs [-8,0) spans 16 > stride 8.
  const AffineTerm shifted{8, -8, 0, 0, 63, 0};
  EXPECT_FALSE(pair_disjoint_across_threads(a, shifted));
  // Different dimensions fall through to S2; overlapping resolutions fail.
  const AffineTerm other_dim{8, 0, 8, 0, 63, 1};
  EXPECT_FALSE(pair_disjoint_across_threads(a, other_dim));
  // S2: bounded resolved sets that never share a byte.
  const AffineTerm lo_half{8, 0, 8, 0, 3, 0};
  const AffineTerm hi_half{8, 0, 8, 32, 63, 0};
  EXPECT_TRUE(pair_disjoint_across_threads(lo_half, hi_half));
}

// ============================ 2. interval cap policy ============================

TEST(IntervalCapTest, ResolveWidensPastIntervalCapAndCounts) {
  IntervalSet::reset_widened_by_cap();
  // 16 disjoint windows exceed kMaxIntervals: the faithful resolution would
  // need 16 intervals, so the set widens to ⊤ and the telemetry ticks.
  const AffineSet set = AffineSet::of(AffineTerm{16, 0, 8, 0, 15, 0});
  const IntervalSet resolved = set.resolve();
  EXPECT_TRUE(resolved.is_top());
  EXPECT_GE(IntervalSet::widened_by_cap(), 1u);
  IntervalSet::reset_widened_by_cap();
}

TEST(IntervalCapTest, FromRawCappedWidensInsteadOfDropping) {
  IntervalSet::reset_widened_by_cap();
  std::vector<Interval> raw;
  for (std::int64_t i = 0; i < 5; ++i) {
    raw.push_back(Interval{i * 100, i * 100 + 1});
  }
  EXPECT_TRUE(IntervalSet::from_raw_capped(std::move(raw)).is_top());
  EXPECT_EQ(IntervalSet::widened_by_cap(), 1u);
  EXPECT_TRUE(IntervalSet::capped_top().is_top());
  EXPECT_EQ(IntervalSet::widened_by_cap(), 2u);
  IntervalSet::reset_widened_by_cap();
}

TEST(IntervalCapTest, ShiftedWidensOnOverflow) {
  const IntervalSet set = IntervalSet::of({0, 8});
  EXPECT_TRUE(set.shifted(INT64_MAX - 2, INT64_MAX - 2).is_top());
  // In-range shifts stay precise.
  EXPECT_EQ(to_string(set.shifted(8, 8)), "[8,16)");
}

TEST(IntervalCapTest, OverlapsSweepAndTop) {
  IntervalSet a = IntervalSet::of({0, 8});
  a.insert({32, 40});
  IntervalSet b = IntervalSet::of({8, 32});
  EXPECT_FALSE(kir::overlaps(a, b));
  b.insert({36, 37});
  EXPECT_TRUE(kir::overlaps(a, b));
  EXPECT_TRUE(kir::overlaps(a, IntervalSet::top()));
  EXPECT_FALSE(kir::overlaps(IntervalSet::bottom(), IntervalSet::top()));
}

// ============================ 3. launch-time elision ============================

/// One rank's tool stack driven directly (no session), mirroring
/// CusanRuntimeTest but with full kernel-registry argument attributes. It
/// counts into its own registry unless given one to share.
class ProveElideRuntime {
 public:
  explicit ProveElideRuntime(cusan::Config config, bool fast_shadow = true,
                             obs::MetricsRegistry* shared_metrics = nullptr)
      : metrics(shared_metrics != nullptr ? *shared_metrics : own_metrics),
        tsan(metrics, make_rsan(fast_shadow)),
        types(&db),
        cusan_rt(&tsan, &types, metrics, config) {
    cusan_rt.bind_device(&device);
  }

  void* alloc(std::size_t doubles) {
    void* p = nullptr;
    (void)device.malloc_device(&p, doubles * sizeof(double));
    types.on_alloc(p, typeart::kDouble, doubles, typeart::AllocKind::kDevice);
    return p;
  }

  void launch(const kir::KernelInfo& info, const cusim::Stream* stream,
              std::span<const void* const> ptrs) {
    std::vector<cusan::KernelArgAccess> args;
    for (std::size_t i = 0; i < ptrs.size(); ++i) {
      const kir::ParamIntervals* pi =
          i < info.param_intervals.size() ? &info.param_intervals[i] : nullptr;
      const kir::ParamProof* proof =
          i < info.proof.params.size() ? &info.proof.params[i] : nullptr;
      args.push_back(cusan::KernelArgAccess{ptrs[i], info.param_modes[i], pi, proof});
    }
    cusan_rt.on_kernel_launch(stream, info.fn->name().c_str(), args);
  }

  [[nodiscard]] std::uint64_t races() const { return metric_value(metrics, "rsan.races_detected"); }

  static rsan::RuntimeConfig make_rsan(bool fast) {
    rsan::RuntimeConfig c;
    c.use_shadow_fast_path = fast;
    return c;
  }

  obs::MetricsRegistry own_metrics;
  obs::MetricsRegistry& metrics;
  typeart::TypeDB db;
  rsan::Runtime tsan;
  typeart::Runtime types;
  cusim::Device device;
  cusan::Runtime cusan_rt;
};

[[nodiscard]] cusan::Config elide_config(cusan::ProveElide mode) {
  cusan::Config config;
  config.prove_elide = mode;
  return config;
}

/// out[tid] over the whole allocation: the canonical provable kernel.
struct ProvenKernel {
  kir::Module m;
  std::unique_ptr<kir::KernelRegistry> registry;
  const kir::KernelInfo* info{};

  explicit ProvenKernel(std::int64_t count, bool also_read = false) {
    kir::Function* f = m.create_function("proven", {true});
    const auto idx = f->thread_idx(0, count - 1);
    const auto at = f->gep(f->param(0), idx, 8);
    if (also_read) {
      (void)f->load(at, 8);
    }
    f->store(at, f->constant(), 8);
    f->ret();
    registry = std::make_unique<kir::KernelRegistry>(m);
    info = registry->lookup(f);
  }
};

constexpr std::size_t kCount = 64;
constexpr std::size_t kBytes = kCount * sizeof(double);

TEST(ProveElideModeTest, ParsesOnlyOffAndFull) {
  EXPECT_EQ(cusan::parse_prove_elide(""), cusan::ProveElide::kOff);
  EXPECT_EQ(cusan::parse_prove_elide("off"), cusan::ProveElide::kOff);
  EXPECT_EQ(cusan::parse_prove_elide("full"), cusan::ProveElide::kFull);
  // "intra" (no longer a mode), typos and case variants are unrecognized.
  EXPECT_EQ(cusan::parse_prove_elide("intra"), std::nullopt);
  EXPECT_EQ(cusan::parse_prove_elide("ful"), std::nullopt);
  EXPECT_EQ(cusan::parse_prove_elide("FULL"), std::nullopt);
  EXPECT_EQ(cusan::parse_prove_elide("full "), std::nullopt);
}

TEST(ProveElideRuntimeTest, ProvenKernelWritesNoShadow) {
  ProveElideRuntime rt(elide_config(cusan::ProveElide::kFull));
  void* buf = rt.alloc(kCount);
  ProvenKernel k(kCount);
  ASSERT_TRUE(k.info->proof.intra_race_free);

  const std::array<const void*, 1> ptrs{buf};
  rt.launch(*k.info, rt.device.default_stream(), ptrs);
  EXPECT_EQ(metric_value(rt.metrics, "cusan.proof_elided_launches"), 1u);
  EXPECT_EQ(metric_value(rt.metrics, "cusan.proof_elided_args"), 1u);
  EXPECT_EQ(metric_value(rt.metrics, "cusan.proof_elided_bytes"), kBytes);
  // The elided argument never materializes shadow cells.
  EXPECT_EQ(rt.tsan.shadow_resident_bytes(), 0u);
  EXPECT_EQ(rt.tsan.proven_region_count(), 1u);
  EXPECT_EQ(rt.races(), 0u);
}

TEST(ProveElideRuntimeTest, RepeatLaunchesRefreshOneRegion) {
  // Every repeat launch on the stream is checked and elided again; it
  // refreshes the argument's one proven region in place instead of adding
  // regions or materializing shadow.
  ProveElideRuntime rt(elide_config(cusan::ProveElide::kFull));
  void* buf = rt.alloc(kCount);
  ProvenKernel k(kCount);
  const std::array<const void*, 1> ptrs{buf};
  constexpr std::uint64_t kLaunches = 51;
  for (std::uint64_t i = 0; i < kLaunches; ++i) {
    rt.launch(*k.info, rt.device.default_stream(), ptrs);
  }
  EXPECT_EQ(metric_value(rt.metrics, "cusan.proof_elided_launches"), kLaunches);
  EXPECT_EQ(metric_value(rt.metrics, "cusan.proof_elided_bytes"), kLaunches * kBytes);
  EXPECT_EQ(rt.tsan.shadow_resident_bytes(), 0u);
  EXPECT_EQ(rt.tsan.proven_region_count(), 1u);
  EXPECT_EQ(rt.races(), 0u);
}

TEST(ProveElideRuntimeTest, OffModeKeepsTrackedPath) {
  ProveElideRuntime rt(elide_config(cusan::ProveElide::kOff));
  void* buf = rt.alloc(kCount);
  ProvenKernel k(kCount);
  const std::array<const void*, 1> ptrs{buf};
  rt.launch(*k.info, rt.device.default_stream(), ptrs);
  EXPECT_EQ(metric_value(rt.metrics, "cusan.proof_elided_launches"), 0u);
  EXPECT_GT(rt.tsan.shadow_resident_bytes(), 0u);
}

TEST(ProveElideRuntimeTest, WholeRangeModeDisablesElision) {
  // With use_access_intervals off the runtime emulates the paper's
  // whole-allocation annotations; byte-precise elision would silently narrow
  // them, so it must stay off too.
  cusan::Config config = elide_config(cusan::ProveElide::kFull);
  config.use_access_intervals = false;
  ProveElideRuntime rt(config);
  void* buf = rt.alloc(kCount);
  ProvenKernel k(kCount);
  const std::array<const void*, 1> ptrs{buf};
  rt.launch(*k.info, rt.device.default_stream(), ptrs);
  EXPECT_EQ(metric_value(rt.metrics, "cusan.proof_elided_args"), 0u);
  EXPECT_GT(rt.tsan.shadow_resident_bytes(), 0u);
}

TEST(ProveElideRuntimeTest, RacyKernelIsNeverElided) {
  ProveElideRuntime rt(elide_config(cusan::ProveElide::kFull));
  void* buf = rt.alloc(kCount);
  kir::Module m;
  kir::Function* f = m.create_function("racy", {true});
  f->store(f->gep(f->param(0), f->thread_idx(0, 15), 4), f->constant(), 8);
  f->ret();
  const kir::KernelRegistry registry(m);
  const kir::KernelInfo* info = registry.lookup(f);
  ASSERT_FALSE(info->proof.params[0].race_free);

  const std::array<const void*, 1> ptrs{buf};
  rt.launch(*info, rt.device.default_stream(), ptrs);
  EXPECT_EQ(metric_value(rt.metrics, "cusan.proof_elided_args"), 0u);
  EXPECT_EQ(metric_value(rt.metrics, "cusan.proof_elided_launches"), 0u);
}

TEST(ProveElideRuntimeTest, AliasedArgumentsVoidTheProof) {
  // The theorems assume distinct parameters do not alias; passing the same
  // allocation twice (with a write) must fall back to full tracking.
  ProveElideRuntime rt(elide_config(cusan::ProveElide::kFull));
  void* buf = rt.alloc(kCount);
  kir::Module m;
  kir::Function* f = m.create_function("axpy", {true, true});
  const auto idx = f->thread_idx(0, kCount - 1);
  const auto v = f->load(f->gep(f->param(1), idx, 8), 8);
  f->store(f->gep(f->param(0), idx, 8), v, 8);
  f->ret();
  const kir::KernelRegistry registry(m);
  const kir::KernelInfo* info = registry.lookup(f);
  ASSERT_TRUE(info->proof.intra_race_free);

  const std::array<const void*, 2> ptrs{buf, buf};
  rt.launch(*info, rt.device.default_stream(), ptrs);
  EXPECT_GE(metric_value(rt.metrics, "cusan.proof_alias_rejects"), 1u);
  EXPECT_EQ(metric_value(rt.metrics, "cusan.proof_elided_args"), 0u);
}

TEST(ProveElideRuntimeTest, ElidedLaunchStillDetectsHostRace) {
  // The proven-region tier must preserve kernel-vs-host verdicts: an
  // unsynchronized host read after an elided kernel write is still a race,
  // exactly as on the tracked path.
  for (const auto mode : {cusan::ProveElide::kOff, cusan::ProveElide::kFull}) {
    ProveElideRuntime rt(elide_config(mode));
    void* buf = rt.alloc(kCount);
    ProvenKernel k(kCount);
    const std::array<const void*, 1> ptrs{buf};
    rt.launch(*k.info, rt.device.default_stream(), ptrs);
    rt.tsan.read_range(buf, kBytes, "host read");
    EXPECT_EQ(rt.races(), 1u) << "mode " << static_cast<int>(mode);
  }
}

TEST(ProveElideRuntimeTest, ElidedLaunchStillDetectsHostWriteRace) {
  // Same contract for a write: an unsynchronized host write after an elided
  // kernel write is one write-write race in both modes.
  for (const auto mode : {cusan::ProveElide::kOff, cusan::ProveElide::kFull}) {
    ProveElideRuntime rt(elide_config(mode));
    void* buf = rt.alloc(kCount);
    ProvenKernel k(kCount);
    const std::array<const void*, 1> ptrs{buf};
    rt.launch(*k.info, rt.device.default_stream(), ptrs);
    rt.tsan.write_range(buf, kBytes, "host write");
    ASSERT_EQ(rt.races(), 1u) << "mode " << static_cast<int>(mode);
    EXPECT_TRUE(rt.tsan.reports()[0].current.is_write);
    EXPECT_TRUE(rt.tsan.reports()[0].previous.is_write);
  }
}

TEST(ProveElideRuntimeTest, SynchronizedHostAccessAfterElisionIsClean) {
  ProveElideRuntime rt(elide_config(cusan::ProveElide::kFull));
  void* buf = rt.alloc(kCount);
  ProvenKernel k(kCount);
  const std::array<const void*, 1> ptrs{buf};
  rt.launch(*k.info, rt.device.default_stream(), ptrs);
  rt.cusan_rt.on_device_synchronize();
  rt.tsan.read_range(buf, kBytes, "host read");
  EXPECT_EQ(rt.races(), 0u);
}

TEST(ProveElideRuntimeTest, OrderedHostWriteBeforeRelaunchIsClean) {
  // A host write between two synchronized launches is ordered with both, so
  // the relaunch's check-only scan over the host's tracked cells is clean.
  ProveElideRuntime rt(elide_config(cusan::ProveElide::kFull));
  void* buf = rt.alloc(kCount);
  ProvenKernel k(kCount);
  const std::array<const void*, 1> ptrs{buf};
  rt.launch(*k.info, rt.device.default_stream(), ptrs);
  rt.cusan_rt.on_device_synchronize();
  rt.tsan.write_range(buf, kBytes, "host write");
  rt.launch(*k.info, rt.device.default_stream(), ptrs);
  EXPECT_EQ(metric_value(rt.metrics, "cusan.proof_elided_launches"), 2u);
  EXPECT_EQ(rt.races(), 0u);
}

TEST(ProveElideRuntimeTest, UnorderedProvenWritersOnOneBufferRace) {
  // Theorem 1 proves each launch race-free on its own; it says nothing about
  // two launches on unordered streams. Both write the whole buffer, so the
  // second launch's check-only scan must find the first launch's region.
  ProveElideRuntime rt(elide_config(cusan::ProveElide::kFull));
  void* buf = rt.alloc(kCount);
  ProvenKernel k(kCount);
  cusim::Stream* sa = nullptr;
  cusim::Stream* sb = nullptr;
  (void)rt.device.stream_create(&sa, cusim::StreamFlags::kNonBlocking);
  (void)rt.device.stream_create(&sb, cusim::StreamFlags::kNonBlocking);
  rt.cusan_rt.on_stream_create(sa);
  rt.cusan_rt.on_stream_create(sb);
  const std::array<const void*, 1> ptrs{buf};
  rt.launch(*k.info, sa, ptrs);
  EXPECT_EQ(rt.races(), 0u);
  rt.launch(*k.info, sb, ptrs);
  EXPECT_EQ(metric_value(rt.metrics, "cusan.proof_elided_launches"), 2u);
  EXPECT_EQ(rt.races(), 1u);
  ASSERT_EQ(rt.tsan.reports().size(), 1u);
  EXPECT_TRUE(rt.tsan.reports()[0].current.is_write);
  EXPECT_TRUE(rt.tsan.reports()[0].previous.is_write);
  EXPECT_NE(rt.tsan.reports()[0].current.ctx, rt.tsan.reports()[0].previous.ctx);
}

TEST(ProveElideRuntimeTest, AnotherStacksProvenLaunchesDoNotHideARace) {
  // Two ranks' stacks count into one registry. Stack A's relaunch is
  // unordered with its own stream B's memset; stack B's proven launch in
  // between must neither hide that race nor report one of its own.
  obs::MetricsRegistry shared;
  ProveElideRuntime a(elide_config(cusan::ProveElide::kFull), true, &shared);
  ProveElideRuntime b(elide_config(cusan::ProveElide::kFull), true, &shared);
  void* buf_a = a.alloc(kCount);
  void* buf_b = b.alloc(kCount);
  ProvenKernel k(kCount);
  cusim::Stream* sa = nullptr;
  cusim::Stream* sb = nullptr;
  cusim::Event* done = nullptr;
  (void)a.device.stream_create(&sa, cusim::StreamFlags::kNonBlocking);
  (void)a.device.stream_create(&sb, cusim::StreamFlags::kNonBlocking);
  (void)a.device.event_create(&done);
  a.cusan_rt.on_stream_create(sa);
  a.cusan_rt.on_stream_create(sb);
  a.cusan_rt.on_event_create(done);
  const std::array<const void*, 1> ptrs_a{buf_a};
  a.launch(*k.info, sa, ptrs_a);
  // Stream B writes the buffer after the kernel (event wait), so the store
  // itself is clean, but stream A's next launch is unordered with it.
  a.cusan_rt.on_event_record(done, sa);
  a.cusan_rt.on_stream_wait_event(sb, done);
  a.cusan_rt.on_memset_async(buf_a, kBytes, sb);
  ASSERT_TRUE(a.tsan.reports().empty());

  const std::array<const void*, 1> ptrs_b{buf_b};
  b.launch(*k.info, b.device.default_stream(), ptrs_b);  // one proven publish
  a.launch(*k.info, sa, ptrs_a);  // unordered with the memset on stream B
  EXPECT_EQ(a.tsan.reports().size(), 1u);
  EXPECT_TRUE(b.tsan.reports().empty());
}

// ====================== 4. differential property (oracle) ======================

// Random provable/racy/⊤ kernels over two buffers and two concurrent streams,
// mixed with host accesses and synchronization. The same seeded schedule is
// replayed under every (prove-elide mode x shadow path) combination; the race
// totals must be identical — elision may never add or lose a verdict.
struct RandomKernels {
  kir::Module m;
  std::unique_ptr<kir::KernelRegistry> registry;
  std::vector<const kir::KernelInfo*> infos;

  explicit RandomKernels(common::SplitMix64& rng, std::int64_t count) {
    for (int ki = 0; ki < 3; ++ki) {
      kir::Function* f =
          m.create_function(("rk" + std::to_string(ki)).c_str(), {true, true});
      for (std::uint32_t p = 0; p < 2; ++p) {
        const auto pattern = rng.next_below(5);
        const bool write = rng.next_below(2) == 0;
        kir::Value idx;
        std::uint32_t elem = 8;
        switch (pattern) {
          case 0:  // provable: one element per thread
            idx = f->thread_idx(0, count - 1);
            break;
          case 1:  // provable with gaps (may widen past the interval cap)
            idx = f->thread_idx(0, count / 2 - 1);
            elem = 16;
            break;
          case 2:  // racy: sub-stride windows
            idx = f->thread_idx(0, count - 1);
            elem = 4;
            break;
          case 3:  // thread-invariant window
            idx = f->constant_int(static_cast<std::int64_t>(rng.next_below(8)));
            break;
          default:  // ⊤ (unknown scalar)
            idx = f->constant();
            break;
        }
        const auto at = f->gep(f->param(p), idx, elem);
        if (write) {
          f->store(at, f->constant(), 8);
        } else {
          (void)f->load(at, 8);
        }
      }
      f->ret();
    }
    registry = std::make_unique<kir::KernelRegistry>(m);
    for (const auto& fn : m.functions()) {
      infos.push_back(registry->lookup(fn.get()));
    }
  }
};

struct ReplayResult {
  std::uint64_t races{0};
  std::uint64_t elided_args{0};
  std::uint64_t evictions{0};  ///< rsan slot_evictions — baseline precision loss
};

ReplayResult replay_schedule(std::uint64_t seed, cusan::ProveElide mode, bool fast_shadow,
                             int max_ops = 48) {
  common::SplitMix64 kernel_rng(seed);
  constexpr std::int64_t kN = 32;
  RandomKernels kernels(kernel_rng, kN);

  ProveElideRuntime rt(elide_config(mode), fast_shadow);
  std::array<void*, 2> bufs{rt.alloc(kN), rt.alloc(kN)};
  std::array<cusim::Stream*, 2> streams{};
  for (auto& s : streams) {
    (void)rt.device.stream_create(&s, cusim::StreamFlags::kNonBlocking);
    rt.cusan_rt.on_stream_create(s);
  }

  common::SplitMix64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (int op = 0; op < max_ops; ++op) {
    const auto kind = rng.next_below(8);
    switch (kind) {
      case 0:
      case 1:
      case 2:
      case 3: {  // kernel launch: random kernel, stream, buffer assignment
        const auto* info = kernels.infos[rng.next_below(kernels.infos.size())];
        cusim::Stream* s = streams[rng.next_below(2)];
        const std::array<const void*, 2> ptrs{bufs[rng.next_below(2)],
                                              bufs[rng.next_below(2)]};
        rt.launch(*info, s, ptrs);
        break;
      }
      case 4: {  // host access over a random aligned sub-range
        void* buf = bufs[rng.next_below(2)];
        const std::size_t lo = rng.next_below(kN / 2) * sizeof(double);
        const std::size_t len = (1 + rng.next_below(kN / 2)) * sizeof(double);
        char* p = static_cast<char*>(buf) + lo;
        if (rng.next_below(2) == 0) {
          rt.tsan.write_range(p, len, "host write");
        } else {
          rt.tsan.read_range(p, len, "host read");
        }
        break;
      }
      case 5:
        rt.cusan_rt.on_stream_synchronize(streams[rng.next_below(2)]);
        break;
      case 6:
        rt.cusan_rt.on_device_synchronize();
        break;
      default:  // repeat-launch burst: proven regions are refreshed in place
        if (const auto* info = kernels.infos[rng.next_below(kernels.infos.size())]) {
          cusim::Stream* s = streams[rng.next_below(2)];
          const std::array<const void*, 2> ptrs{bufs[0], bufs[1]};
          for (int r = 0; r < 3; ++r) {
            rt.launch(*info, s, ptrs);
          }
        }
        break;
    }
  }
  return ReplayResult{rt.races(), metric_value(rt.metrics, "cusan.proof_elided_args"),
                      metric_value(rt.metrics, "rsan.slot_evictions")};
}

class ProveElideDifferentialP : public ::testing::TestWithParam<std::uint64_t> {};

// Short schedules keep granule slot pressure low (no evictions → the strict
// bit-identical branch); long schedules stress the region machinery where
// eviction can cost the tracked baseline a conflicting epoch.
constexpr int kShortSchedule = 12;
constexpr int kLongSchedule = 48;

TEST_P(ProveElideDifferentialP, VerdictsAgreeAcrossTiersAndShadowPaths) {
  const std::uint64_t seed = GetParam();
  for (const int ops : {kShortSchedule, kLongSchedule}) {
    const ReplayResult base =
        replay_schedule(seed, cusan::ProveElide::kOff, /*fast_shadow=*/false, ops);
    // The shadow fast path is a pure optimization of the tracked scan: its
    // verdict stream is bit-identical unconditionally.
    EXPECT_EQ(replay_schedule(seed, cusan::ProveElide::kOff, true, ops).races, base.races);
    for (const auto mode : {cusan::ProveElide::kFull}) {
      for (const bool fast : {false, true}) {
        const ReplayResult r = replay_schedule(seed, mode, fast, ops);
        // Elision may never lose a race the tracked baseline reports.
        EXPECT_GE(r.races, base.races) << "seed " << seed << " mode " << static_cast<int>(mode)
                                       << " fast " << fast << " ops " << ops;
        if (base.evictions == 0 && r.evictions == 0) {
          // Eviction-free schedules: the proven-region tier stands in for the
          // cells a tracked launch would have stored, so the verdict stream
          // is bit-identical.
          EXPECT_EQ(r.races, base.races) << "seed " << seed << " mode " << static_cast<int>(mode)
                                         << " fast " << fast << " ops " << ops;
        } else {
          // Slot eviction dropped an epoch somewhere: the 4-slot cell array
          // can forget a racing write that the never-evicting proven-region
          // tier still holds, so the elided run may report strictly more
          // (true) races — but it must not flip the schedule's racy/clean
          // verdict.
          EXPECT_EQ(r.races > 0, base.races > 0)
              << "seed " << seed << " mode " << static_cast<int>(mode) << " fast " << fast
              << " ops " << ops;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSchedules, ProveElideDifferentialP,
                         ::testing::Range<std::uint64_t>(1, 25));

TEST(ProveElideDifferentialTest, SomeScheduleActuallyElides) {
  // Guard against the property trivially passing because nothing ever
  // qualified for elision: across the seed range, full mode must elide.
  std::uint64_t total = 0;
  for (std::uint64_t seed = 1; seed < 25; ++seed) {
    total += replay_schedule(seed, cusan::ProveElide::kFull, true).elided_args;
  }
  EXPECT_GT(total, 0u);
}

TEST(ProveElideDifferentialTest, StrictOraclePathIsExercised) {
  // Guard against the bit-identical branch of the property degenerating: a
  // fair share of the short-schedule replays must be eviction-free, where
  // exact verdict equality (not just racy/clean agreement) is enforced.
  std::size_t strict = 0;
  for (std::uint64_t seed = 1; seed < 25; ++seed) {
    if (replay_schedule(seed, cusan::ProveElide::kOff, false, kShortSchedule).evictions == 0) {
      ++strict;
    }
  }
  EXPECT_GT(strict, 0u);
}

// =========================== 5. scenario equality ===============================

TEST(ProveElideScenarioTest, SpanScenariosAgreeAndElide) {
  // The §VI-C span scenarios' kernels now carry affine proofs (thread_idx
  // bounds): with prove-elide full their verdicts must not move, and the
  // interval-precision entries must actually elide tracked bytes.
  const auto scenarios = testsuite::build_scenarios();
  std::uint64_t elided_total = 0;
  std::size_t checked = 0;
  for (const auto& scenario : scenarios) {
    if (scenario.span == testsuite::Span::kWhole) {
      continue;
    }
    if (scenario.mem != testsuite::Mem::kDevice ||
        scenario.stream != testsuite::StreamKind::kDefault) {
      continue;  // one representative row of the span block keeps this fast
    }
    ++checked;
    const auto off = testsuite::run_scenario_outcome(
        scenario, true, std::chrono::milliseconds(0), cusan::ProveElide::kOff);
    const auto full = testsuite::run_scenario_outcome(
        scenario, true, std::chrono::milliseconds(0), cusan::ProveElide::kFull);
    EXPECT_EQ(off.races, full.races) << scenario.name;
    EXPECT_TRUE(testsuite::classified_correctly(scenario, full.races)) << scenario.name;
    EXPECT_EQ(off.elided_launches, 0u) << scenario.name;
    if (scenario.precision == testsuite::Precision::kIntervals) {
      EXPECT_LE(full.tracked_bytes, off.tracked_bytes) << scenario.name;
    }
    elided_total += full.elided_launches;
  }
  EXPECT_GE(checked, 6u);
  EXPECT_GT(elided_total, 0u);
}

}  // namespace
