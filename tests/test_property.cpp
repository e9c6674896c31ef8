// Property-based tests (parameterized sweeps over random seeds):
//
//  1. rsan oracle: random fiber/annotation schedules are checked against an
//     independent happens-before oracle based on DAG reachability. Within
//     the configured context budget (where shadow cells cannot be evicted),
//     the detector must be *exact*: it reports a conflict on an address slot
//     iff the oracle finds an unordered conflicting pair there.
//  2. datatype round trips: random derived datatypes pack/unpack losslessly
//     and their extent/packed-size/signature invariants hold.
//  3. mpisim traffic: random point-to-point traffic delivers every message
//     exactly once, in per-(source,tag) FIFO order, with intact payloads.
//  4. kir conservativeness: wrapping any function in a forwarding caller
//     preserves the analysis result (call-site transparency), adding
//     accesses never lowers a mode (monotonicity), and on random call graphs
//     (recursion, multi-site merging) both the mode and the byte-interval
//     fixpoints converge in bounded iterations and agree direction-wise.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "kir/registry.hpp"
#include "kir/verifier.hpp"
#include "mpisim/request.hpp"
#include "mpisim/world.hpp"
#include "rsan/runtime.hpp"
#include "testsuite/scenarios.hpp"

namespace {

// =============================== 1. rsan oracle ===============================

struct ScheduleParams {
  std::uint64_t seed;
  int contexts;     ///< total contexts incl. host
  bool mixed_rw;    ///< reads+writes (needs <=2 contexts for exactness) or writes only
  int events;
  bool exact{true}; ///< within the no-eviction budget: detector must be exact;
                    ///< otherwise only soundness (no false positives) is checked
};

class RsanOracleP : public ::testing::TestWithParam<ScheduleParams> {};

// Reference model: every event is a DAG node; program order within a context
// and release->acquire edges per key define happens-before; races are
// conflicting accesses with no path either way.
struct OracleEvent {
  enum class Kind { kAccess, kRelease, kAcquire } kind{Kind::kAccess};
  int ctx{0};
  int slot{0};          // access slot or sync key index
  bool is_write{false};  // accesses only
  std::vector<std::uint64_t> ancestors;  // bitset words over event ids
};

bool test_bit(const std::vector<std::uint64_t>& bits, std::size_t i) {
  return (bits[i / 64] >> (i % 64)) & 1;
}

void set_bit(std::vector<std::uint64_t>& bits, std::size_t i) { bits[i / 64] |= 1ULL << (i % 64); }

void or_bits(std::vector<std::uint64_t>& dst, const std::vector<std::uint64_t>& src) {
  for (std::size_t i = 0; i < dst.size(); ++i) {
    dst[i] |= src[i];
  }
}

TEST_P(RsanOracleP, DetectorMatchesReachabilityOracle) {
  const ScheduleParams params = GetParam();
  common::SplitMix64 rng(params.seed);

  constexpr int kSlots = 8;
  constexpr int kKeys = 4;

  rsan::RuntimeConfig config;
  config.report_limit = 4096;
  obs::MetricsRegistry metrics;
  rsan::Runtime rt(metrics, config);

  // Context 0 is the host; create the fibers.
  std::vector<rsan::CtxId> ctx_ids{rt.host_ctx()};
  for (int i = 1; i < params.contexts; ++i) {
    ctx_ids.push_back(rt.create_fiber(rsan::CtxKind::kUserFiber, "f" + std::to_string(i)));
  }

  // Slots live on distinct pages so report dedup cannot merge them.
  static std::vector<std::byte> arena(kSlots * 4096 + 4096);
  const auto slot_addr = [&](int slot) {
    const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(arena.data());
    return reinterpret_cast<void*>(((base + 4095) & ~std::uintptr_t{4095}) + slot * 4096);
  };

  std::vector<int> keys(kKeys);
  std::iota(keys.begin(), keys.end(), 0);

  // Generate + replay the schedule, building the oracle DAG alongside.
  std::vector<OracleEvent> events;
  std::vector<std::size_t> last_in_ctx(params.contexts, SIZE_MAX);
  std::vector<std::vector<std::size_t>> releases_per_key(kKeys);
  const std::size_t words = (params.events + 63) / 64;

  // Fiber creation synchronizes host -> fiber; since all fibers are created
  // before any event, model it as: every fiber's first event has the
  // creation point as ancestor — creation happened before all host events
  // too, so it adds no edges beyond program order here.

  for (int e = 0; e < params.events; ++e) {
    const int ctx = static_cast<int>(rng.next_below(params.contexts));
    rt.switch_to_fiber(ctx_ids[ctx]);
    OracleEvent ev;
    ev.ctx = ctx;
    ev.ancestors.assign(words, 0);
    if (last_in_ctx[ctx] != SIZE_MAX) {
      or_bits(ev.ancestors, events[last_in_ctx[ctx]].ancestors);
      set_bit(ev.ancestors, last_in_ctx[ctx]);
    }

    const auto choice = rng.next_below(10);
    if (choice < 6) {  // access
      ev.kind = OracleEvent::Kind::kAccess;
      ev.slot = static_cast<int>(rng.next_below(kSlots));
      ev.is_write = params.mixed_rw ? rng.next_below(2) == 0 : true;
      if (ev.is_write) {
        rt.write_range(slot_addr(ev.slot), 8, "w");
      } else {
        rt.read_range(slot_addr(ev.slot), 8, "r");
      }
    } else if (choice < 8) {  // release
      ev.kind = OracleEvent::Kind::kRelease;
      ev.slot = static_cast<int>(rng.next_below(kKeys));
      rt.happens_before(&keys[ev.slot]);
      releases_per_key[ev.slot].push_back(events.size());
    } else {  // acquire
      ev.kind = OracleEvent::Kind::kAcquire;
      ev.slot = static_cast<int>(rng.next_below(kKeys));
      rt.happens_after(&keys[ev.slot]);
      // The key's clock is the join of all prior releases on it.
      for (const std::size_t rel : releases_per_key[ev.slot]) {
        or_bits(ev.ancestors, events[rel].ancestors);
        set_bit(ev.ancestors, rel);
      }
    }
    last_in_ctx[ctx] = events.size();
    events.push_back(std::move(ev));
  }

  // Oracle: which slots have an unordered conflicting pair?
  std::vector<bool> oracle_race(kSlots, false);
  for (std::size_t a = 0; a < events.size(); ++a) {
    if (events[a].kind != OracleEvent::Kind::kAccess) {
      continue;
    }
    for (std::size_t b = a + 1; b < events.size(); ++b) {
      if (events[b].kind != OracleEvent::Kind::kAccess || events[b].slot != events[a].slot ||
          events[b].ctx == events[a].ctx || (!events[a].is_write && !events[b].is_write)) {
        continue;
      }
      if (!test_bit(events[b].ancestors, a) && !test_bit(events[a].ancestors, b)) {
        oracle_race[events[a].slot] = true;
      }
    }
  }

  // Detector verdict per slot, from the reports' addresses.
  std::vector<bool> detector_race(kSlots, false);
  for (const auto& report : rt.reports()) {
    for (int slot = 0; slot < kSlots; ++slot) {
      const auto base = reinterpret_cast<std::uintptr_t>(slot_addr(slot));
      if (report.addr >= base && report.addr < base + 4096) {
        detector_race[slot] = true;
      }
    }
  }

  for (int slot = 0; slot < kSlots; ++slot) {
    if (params.exact) {
      // Within the context budget (no shadow-cell eviction) the detector is
      // exact: it flags a slot iff an unordered conflicting pair exists.
      EXPECT_EQ(detector_race[slot], oracle_race[slot])
          << "slot " << slot << " seed " << params.seed << " contexts " << params.contexts
          << (params.mixed_rw ? " mixed" : " writes-only");
    } else if (detector_race[slot]) {
      // With more contexts than shadow slots, eviction may cause misses —
      // but soundness must hold unconditionally: every reported slot has a
      // genuine unordered conflicting pair (no false positives, ever).
      EXPECT_TRUE(oracle_race[slot])
          << "FALSE POSITIVE on slot " << slot << " seed " << params.seed << " contexts "
          << params.contexts;
    }
  }
}

std::vector<ScheduleParams> oracle_params() {
  std::vector<ScheduleParams> out;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    // Writes only: each context occupies at most one shadow cell per granule
    // -> exact with up to 4 contexts (incl. host).
    out.push_back(ScheduleParams{seed, 3, false, 120});
    out.push_back(ScheduleParams{seed * 131, 4, false, 150});
    // Mixed reads/writes: a context can hold a read and a write cell -> stay
    // within 2 contexts for exactness.
    out.push_back(ScheduleParams{seed * 977, 2, true, 120});
    // Beyond the eviction budget: only the soundness direction is required.
    out.push_back(ScheduleParams{seed * 65537, 8, true, 200, /*exact=*/false});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(RandomSchedules, RsanOracleP, ::testing::ValuesIn(oracle_params()),
                         [](const ::testing::TestParamInfo<ScheduleParams>& param_info) {
                           return "seed" + std::to_string(param_info.param.seed) + "_ctx" +
                                  std::to_string(param_info.param.contexts) +
                                  (param_info.param.mixed_rw ? "_rw" : "_w");
                         });

// =============================== 2. datatypes ===============================

class DatatypeRoundTripP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DatatypeRoundTripP, RandomDerivedTypesPackLosslessly) {
  common::SplitMix64 rng(GetParam());
  using mpisim::Datatype;

  const Datatype bases[] = {Datatype::byte(), Datatype::int32(), Datatype::float64()};
  Datatype type = bases[rng.next_below(3)];
  // Random nesting of contiguous/vector constructors (1-3 levels).
  const int levels = 1 + static_cast<int>(rng.next_below(3));
  for (int level = 0; level < levels && type.extent() < 4096; ++level) {
    if (rng.next_below(2) == 0) {
      type = Datatype::contiguous(type, 1 + rng.next_below(4));
    } else {
      const std::size_t blocklength = 1 + rng.next_below(3);
      const std::size_t stride = blocklength + rng.next_below(3);
      type = Datatype::vector(type, 1 + rng.next_below(3), blocklength, stride);
    }
  }

  // Invariants.
  EXPECT_GT(type.extent(), 0u);
  EXPECT_LE(type.packed_size(), type.extent());
  std::size_t layout_bytes = 0;
  for (const auto& entry : type.layout()) {
    EXPECT_LT(entry.offset, type.extent());
    layout_bytes += scalar_size(entry.scalar);
  }
  EXPECT_EQ(layout_bytes, type.packed_size());
  std::vector<mpisim::Scalar> sig;
  type.signature(2, sig);
  EXPECT_EQ(sig.size(), 2 * type.layout().size());

  // Pack/unpack round trip over random data preserves all touched bytes.
  const std::size_t count = 1 + rng.next_below(4);
  std::vector<std::byte> src(type.extent() * count);
  for (auto& byte : src) {
    byte = static_cast<std::byte>(rng.next_below(256));
  }
  std::vector<std::byte> packed(type.packed_size() * count);
  std::vector<std::byte> dst(src.size(), std::byte{0});
  type.pack(src.data(), count, packed.data());
  type.unpack(packed.data(), count, dst.data());
  for (std::size_t elem = 0; elem < count; ++elem) {
    for (const auto& entry : type.layout()) {
      const std::size_t base = elem * type.extent() + entry.offset;
      for (std::size_t b = 0; b < scalar_size(entry.scalar); ++b) {
        EXPECT_EQ(dst[base + b], src[base + b]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTypes, DatatypeRoundTripP, ::testing::Range<std::uint64_t>(1, 33));

// =============================== 3. mpisim traffic ===============================

class MpisimTrafficP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MpisimTrafficP, RandomTrafficDeliversExactlyOnceInFifoOrder) {
  const std::uint64_t seed = GetParam();
  constexpr int kRanks = 3;
  constexpr int kMessagesPerPair = 25;
  mpisim::World world(kRanks);

  world.run([seed](mpisim::Comm comm) {
    common::SplitMix64 rng(seed * 1000 + comm.rank());
    const auto type = mpisim::Datatype::int64();

    // Every rank sends kMessagesPerPair messages to every other rank with a
    // payload encoding (src, destination, sequence). Tags alternate randomly
    // between two values per pair; FIFO must hold per (src, tag).
    std::vector<std::int64_t> payloads;
    for (int dst = 0; dst < comm.size(); ++dst) {
      if (dst == comm.rank()) {
        continue;
      }
      for (int s = 0; s < kMessagesPerPair; ++s) {
        const int tag = static_cast<int>(rng.next_below(2));
        const std::int64_t payload =
            comm.rank() * 1000000 + tag * 10000 + s;  // sequence within (src, tag)? no: global
        ASSERT_EQ(comm.send(&payload, 1, type, dst, tag), mpisim::MpiError::kSuccess);
      }
    }

    // Receive everything addressed to us with wildcards; track FIFO per
    // (source, tag) using the embedded sequence number.
    std::map<std::pair<int, int>, std::int64_t> last_seq;
    std::map<std::pair<int, int>, int> received;
    const int expected = (comm.size() - 1) * kMessagesPerPair;
    for (int i = 0; i < expected; ++i) {
      std::int64_t payload = -1;
      mpisim::Status status;
      ASSERT_EQ(comm.recv(&payload, 1, type, mpisim::kAnySource, mpisim::kAnyTag, &status),
                mpisim::MpiError::kSuccess);
      EXPECT_EQ(payload / 1000000, status.source);
      const int tag = static_cast<int>((payload / 10000) % 100);
      EXPECT_EQ(tag, status.tag);
      const std::int64_t seq = payload % 10000;
      const auto key = std::make_pair(status.source, status.tag);
      if (last_seq.contains(key)) {
        EXPECT_LT(last_seq[key], seq) << "FIFO violated for src/tag";
      }
      last_seq[key] = seq;
      ++received[key];
    }
    int total = 0;
    for (const auto& [key, n] : received) {
      total += n;
    }
    EXPECT_EQ(total, expected);
  });
}

INSTANTIATE_TEST_SUITE_P(RandomTraffic, MpisimTrafficP, ::testing::Range<std::uint64_t>(1, 13));

// =============================== 4. kir properties ===============================

class KirPropertyP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KirPropertyP, ForwardingWrapperPreservesModesAndGrowthIsMonotone) {
  common::SplitMix64 rng(GetParam());
  kir::Module module;

  // Random leaf with 3 pointer params and random access pattern.
  kir::Function* leaf = module.create_function("leaf", {true, true, true});
  kir::AccessMode expected[3] = {kir::AccessMode::kNone, kir::AccessMode::kNone,
                                 kir::AccessMode::kNone};
  const int ops = 2 + static_cast<int>(rng.next_below(6));
  for (int i = 0; i < ops; ++i) {
    const auto p = static_cast<std::uint32_t>(rng.next_below(3));
    const auto addr = leaf->gep(leaf->param(p), leaf->constant());
    if (rng.next_below(2) == 0) {
      (void)leaf->load(addr);
      expected[p] |= kir::AccessMode::kRead;
    } else {
      leaf->store(addr, leaf->constant());
      expected[p] |= kir::AccessMode::kWrite;
    }
  }
  leaf->ret();

  // Forwarding wrapper with a random argument permutation.
  std::uint32_t perm[3] = {0, 1, 2};
  std::swap(perm[0], perm[rng.next_below(3)]);
  std::swap(perm[1], perm[1 + rng.next_below(2)]);
  kir::Function* wrapper = module.create_function("wrapper", {true, true, true});
  (void)wrapper->call(leaf, {wrapper->param(perm[0]), wrapper->param(perm[1]),
                             wrapper->param(perm[2])});
  wrapper->ret();

  kir::AccessAnalysis analysis(module);
  for (std::uint32_t p = 0; p < 3; ++p) {
    EXPECT_EQ(analysis.mode(leaf, p), expected[p]) << "leaf param " << p;
  }
  // Wrapper param i feeds leaf param at position j where perm[j] == i.
  for (std::uint32_t i = 0; i < 3; ++i) {
    kir::AccessMode want = kir::AccessMode::kNone;
    for (std::uint32_t j = 0; j < 3; ++j) {
      if (perm[j] == i) {
        want |= expected[j];
      }
    }
    EXPECT_EQ(analysis.mode(wrapper, i), want) << "wrapper param " << i;
  }

  // Monotonicity: adding a write to param 0 never lowers any mode.
  kir::Module grown;
  kir::Function* leaf2 = grown.create_function("leaf", {true, true, true});
  for (const auto& instr : leaf->instrs()) {
    // Rebuild the same instruction stream...
    switch (instr.op) {
      case kir::Opcode::kGep:
        (void)leaf2->gep(instr.a, instr.b);
        break;
      case kir::Opcode::kLoad:
        (void)leaf2->load(instr.a);
        break;
      case kir::Opcode::kStore:
        leaf2->store(instr.a, instr.b);
        break;
      case kir::Opcode::kConst:
        (void)leaf2->constant();
        break;
      case kir::Opcode::kRet:
        break;  // appended below
      default:
        break;
    }
  }
  leaf2->store(leaf2->gep(leaf2->param(0), leaf2->constant()), leaf2->constant());
  leaf2->ret();
  kir::AccessAnalysis analysis2(grown);
  for (std::uint32_t p = 0; p < 3; ++p) {
    const auto before = analysis.mode(leaf, p);
    const auto after = analysis2.mode(leaf2, p);
    EXPECT_EQ(after | before, after) << "mode lowered for param " << p;
  }
}

TEST_P(KirPropertyP, RandomCallGraphsConvergeAndAnalysesAgree) {
  // Random call graphs exercising recursion, multi-call-site merging and
  // pointer params passed through unused, also at opaque offsets. All three
  // fixpoints must converge in a bounded number of iterations, and both the
  // byte-interval and the affine analysis must agree with the mode analysis
  // direction-wise: a param has a non-empty read (write) set iff its mode
  // reads (writes) — the refined passes are refinements of the mode pass,
  // never relaxations.
  common::SplitMix64 rng(GetParam());
  kir::Module module;
  const std::size_t fn_count = 3 + rng.next_below(3);
  std::vector<kir::Function*> fns;
  for (std::size_t f = 0; f < fn_count; ++f) {
    fns.push_back(module.create_function("f" + std::to_string(f), {true, true}));
  }
  for (std::size_t f = 0; f < fn_count; ++f) {
    kir::Function* fn = fns[f];
    const int ops = 1 + static_cast<int>(rng.next_below(5));
    for (int i = 0; i < ops; ++i) {
      const auto p = static_cast<std::uint32_t>(rng.next_below(2));
      switch (rng.next_below(5)) {
        case 0: {  // bounded-index access (interval-precise)
          const auto lo = static_cast<std::int64_t>(rng.next_below(64));
          const auto hi = lo + static_cast<std::int64_t>(rng.next_below(64));
          (void)fn->load(fn->gep(fn->param(p), fn->bounded(lo, hi), 8), 8);
          break;
        }
        case 1:  // opaque-index store (⊤ write)
          fn->store(fn->gep(fn->param(p), fn->constant()), fn->constant());
          break;
        case 2: {  // call a random function: self (recursion), earlier or
                   // later (mutual recursion); repeated picks merge sites.
          kir::Function* callee = fns[rng.next_below(fn_count)];
          const auto q = static_cast<std::uint32_t>(rng.next_below(2));
          const auto shift = static_cast<std::int64_t>(rng.next_below(8));
          (void)fn->call(callee, {fn->param(p),
                                  fn->gep(fn->param(q), fn->constant_int(shift), 8)});
          break;
        }
        case 3:  // narrow direct read at offset 0
          (void)fn->load(fn->gep(fn->param(p)), 4);
          break;
        case 4: {  // call with a pointer at an opaque (⊤) offset: an arg the
                   // callee never touches must stay untouched in the caller.
          kir::Function* callee = fns[rng.next_below(fn_count)];
          const auto q = static_cast<std::uint32_t>(rng.next_below(2));
          (void)fn->call(callee, {fn->gep(fn->param(p), fn->constant()), fn->param(q)});
          break;
        }
      }
    }
    fn->ret();
  }
  ASSERT_TRUE(kir::is_valid(module));

  kir::AccessAnalysis modes(module);
  kir::IntervalAnalysis intervals(module);
  kir::AffineAnalysis affine(module);
  EXPECT_LT(modes.iterations(), 64u);
  EXPECT_LT(intervals.iterations(), 64u);
  EXPECT_LT(affine.iterations(), 64u);
  for (kir::Function* fn : fns) {
    const auto proofs = affine.params(fn);
    ASSERT_EQ(proofs.size(), 2u);
    for (std::uint32_t p = 0; p < 2; ++p) {
      const kir::AccessMode mode = modes.mode(fn, p);
      const kir::ParamIntervals* pi = intervals.param(fn, p);
      ASSERT_NE(pi, nullptr);
      EXPECT_EQ(kir::reads(mode), !pi->read.is_empty())
          << "@" << fn->name() << " param " << p << " interval read disagreement";
      EXPECT_EQ(kir::writes(mode), !pi->write.is_empty())
          << "@" << fn->name() << " param " << p << " interval write disagreement";
      EXPECT_EQ(kir::reads(mode), !proofs[p].read.is_empty())
          << "@" << fn->name() << " param " << p << " affine read disagreement";
      EXPECT_EQ(kir::writes(mode), !proofs[p].write.is_empty())
          << "@" << fn->name() << " param " << p << " affine write disagreement";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomKernels, KirPropertyP, ::testing::Range<std::uint64_t>(1, 25));

// ======================= 5. full-stack no-false-positive fuzz =======================

class FullStackFuzzP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FullStackFuzzP, ComposedCleanScenariosStayClean) {
  // Compose several randomly chosen *correct* testsuite programs in a single
  // session: shadow reuse across freed allocations, fiber pooling across
  // patterns and legacy-stream state threading must never produce a false
  // positive.
  common::SplitMix64 rng(GetParam());
  const auto all = testsuite::build_scenarios();
  std::vector<const testsuite::Scenario*> clean;
  for (const auto& scenario : all) {
    if (!scenario.expect_race) {
      clean.push_back(&scenario);
    }
  }
  std::vector<const testsuite::Scenario*> chosen;
  for (int i = 0; i < 6; ++i) {
    chosen.push_back(clean[rng.next_below(clean.size())]);
  }
  const auto results =
      capi::run_flavored(capi::Flavor::kMustCusan, 2, [&](capi::RankEnv& env) {
        for (const auto* scenario : chosen) {
          testsuite::scenario_rank_main(env, *scenario);
        }
      });
  std::string names;
  for (const auto* scenario : chosen) {
    names += scenario->name + " ";
  }
  EXPECT_EQ(capi::total_races(results), 0u) << "composition: " << names;
  for (const auto& result : results) {
    EXPECT_TRUE(result.must_reports.empty()) << "composition: " << names;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCompositions, FullStackFuzzP,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
