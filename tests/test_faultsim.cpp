// Fault-injection subsystem tests: plan grammar, injector determinism, and
// the error-path soundness contract — a substrate failure must never leave
// half-published tool state (shadow ranges for failed allocations, HB edges
// for aborted kernels) and every injected fault must be accounted for.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <utility>

#include "capi/cuda.hpp"
#include "capi/memaccess.hpp"
#include "capi/mpi.hpp"
#include "capi/session.hpp"
#include "faultsim/injector.hpp"
#include "faultsim/plan.hpp"
#include "kir/registry.hpp"
#include "testsuite/fault_sweep.hpp"

namespace {

using faultsim::Action;
using faultsim::Channel;
using faultsim::FaultPlan;
using faultsim::Injector;
using faultsim::ScopeKind;
using faultsim::Site;
using faultsim::SiteContext;

/// Every test drives the process-global injector; restore the disarmed state
/// even when an assertion fails mid-test.
class FaultsimTest : public ::testing::Test {
 protected:
  void TearDown() override { Injector::instance().clear(); }

  static FaultPlan parse_ok(const char* text) {
    FaultPlan plan;
    const auto result = FaultPlan::parse(text, plan);
    EXPECT_TRUE(result.ok) << result.error;
    return plan;
  }
};

// -- Plan grammar -----------------------------------------------------------------

TEST_F(FaultsimTest, ParsesTheHeaderExample) {
  const FaultPlan plan = parse_ok("malloc@dev0#3=oom;send@rank1#2=delay:5ms;kernel@stream2#1=abort");
  ASSERT_EQ(plan.specs().size(), 3u);

  const auto& oom = plan.specs()[0];
  EXPECT_EQ(oom.site, Site::kMalloc);
  EXPECT_EQ(oom.scope_kind, ScopeKind::kDevice);
  EXPECT_EQ(oom.scope_id, 0);
  EXPECT_EQ(oom.nth, 3u);
  EXPECT_EQ(oom.period, 0u);
  EXPECT_EQ(oom.action, Action::kOom);

  const auto& delay = plan.specs()[1];
  EXPECT_EQ(delay.site, Site::kSend);
  EXPECT_EQ(delay.scope_kind, ScopeKind::kRank);
  EXPECT_EQ(delay.scope_id, 1);
  EXPECT_EQ(delay.action, Action::kDelay);
  EXPECT_EQ(delay.delay, std::chrono::microseconds(5000));

  const auto& abort_spec = plan.specs()[2];
  EXPECT_EQ(abort_spec.site, Site::kKernel);
  EXPECT_EQ(abort_spec.scope_kind, ScopeKind::kStream);
  EXPECT_EQ(abort_spec.scope_id, 2);
  EXPECT_EQ(abort_spec.action, Action::kAbort);
}

TEST_F(FaultsimTest, PlanRoundTripsThroughToString) {
  const char* text = "malloc@dev0#3=oom;send@rank1#2=delay:5ms;kernel@stream2#1%4=abort";
  const FaultPlan plan = parse_ok(text);
  FaultPlan reparsed;
  const auto result = FaultPlan::parse(plan.to_string(), reparsed);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(reparsed.to_string(), plan.to_string());
  ASSERT_EQ(reparsed.specs().size(), 3u);
  EXPECT_EQ(reparsed.specs()[2].period, 4u);
}

TEST_F(FaultsimTest, RejectsInvalidSiteActionCombinations) {
  const char* bad[] = {
      "send#1=oom",        // oom is malloc-only
      "malloc#1=stall",    // stall is MPI-only
      "send#1=abort",      // abort is CUDA-async-only
      "malloc@rank0#1=oom",  // rank scope on a CUDA site
      "send@dev0#1=fail",    // device scope on an MPI site
      "frobnicate#1=fail",   // unknown site
      "send#1=explode",      // unknown action
      "send#0=fail",         // nth must be >= 1
      "send#1=delay:xyz",    // unparsable delay
  };
  for (const char* text : bad) {
    FaultPlan plan;
    const auto result = FaultPlan::parse(text, plan);
    EXPECT_FALSE(result.ok) << "accepted: " << text;
    EXPECT_FALSE(result.error.empty()) << text;
    EXPECT_TRUE(plan.empty()) << text;
  }
}

TEST_F(FaultsimTest, MutatedPlansAreRejectedOrParseExactly) {
  // CUSAN_FAULT_PLAN comes from outside the program: a mangled plan must be
  // rejected with a message or parse to a plan that round-trips — never
  // throw, and never wrap a number into a different scope, count or delay.
  enum class Field { kScope, kNth, kPeriod, kDelayMs };
  struct Slot {
    std::size_t spec;
    Field field;
  };
  // The plan is pieces[0] numbers[0] pieces[1] ... numbers[9] pieces[10].
  const std::array<std::string, 11> pieces = {
      "malloc@dev", "#", "=oom;send@rank", "#", "%", "=delay:", "ms;kernel@stream", "#",
      "=abort;rank_kill@rank", "#", "=sigkill"};
  const std::array<std::string, 10> numbers = {"0", "3", "1", "2", "4", "5", "2", "1", "1", "2"};
  const std::array<Slot, 10> slots = {{{0, Field::kScope},
                                       {0, Field::kNth},
                                       {1, Field::kScope},
                                       {1, Field::kNth},
                                       {1, Field::kPeriod},
                                       {1, Field::kDelayMs},
                                       {2, Field::kScope},
                                       {2, Field::kNth},
                                       {3, Field::kScope},
                                       {3, Field::kNth}}};
  const auto plan_text = [&](std::size_t slot, const std::string& number) {
    std::string text = pieces[0];
    for (std::size_t i = 0; i < numbers.size(); ++i) {
      text += (i == slot ? number : numbers[i]) + pieces[i + 1];
    }
    return text;
  };
  const auto field_value = [](const faultsim::FaultSpec& spec,
                              Field field) -> std::optional<std::uint64_t> {
    switch (field) {
      case Field::kScope:
        return spec.scope_id >= 0 ? std::optional<std::uint64_t>(spec.scope_id) : std::nullopt;
      case Field::kNth:
        return spec.nth;
      case Field::kPeriod:
        return spec.period;
      case Field::kDelayMs:
        if (spec.delay.count() < 0 || spec.delay.count() % 1000 != 0) {
          return std::nullopt;
        }
        return static_cast<std::uint64_t>(spec.delay.count() / 1000);
    }
    return std::nullopt;
  };
  // Returns the plan when `text` parsed, after checking that it round-trips
  // through to_string and holds no negative scope or delay.
  const auto parse_or_reject = [](const std::string& text) -> std::optional<FaultPlan> {
    FaultPlan plan;
    FaultPlan::ParseResult result;
    EXPECT_NO_THROW(result = FaultPlan::parse(text, plan)) << text;
    if (!result.ok) {
      EXPECT_FALSE(result.error.empty()) << text;
      EXPECT_TRUE(plan.empty()) << text;
      return std::nullopt;
    }
    for (const faultsim::FaultSpec& spec : plan.specs()) {
      EXPECT_GE(spec.nth, 1u) << text;
      EXPECT_TRUE(spec.scope_kind == ScopeKind::kAny || spec.scope_id >= 0) << text;
      EXPECT_GE(spec.delay.count(), 0) << text;
    }
    FaultPlan reparsed;
    EXPECT_TRUE(FaultPlan::parse(plan.to_string(), reparsed).ok) << text;
    EXPECT_EQ(reparsed.to_string(), plan.to_string()) << text;
    return plan;
  };

  const std::string text = plan_text(numbers.size(), "");
  ASSERT_EQ(parse_or_reject(text).value_or(FaultPlan{}).specs().size(), 4u);

  for (std::size_t len = 0; len < text.size(); ++len) {
    (void)parse_or_reject(text.substr(0, len));
  }

  const std::array<std::pair<std::string, std::optional<std::uint64_t>>, 3> extremes = {{
      {"1099511627776", std::uint64_t{1} << 40},
      {"-1", std::nullopt},
      {"18446744073709551615", ~std::uint64_t{0}},
  }};
  for (std::size_t slot = 0; slot < slots.size(); ++slot) {
    for (const auto& [number, value] : extremes) {
      const std::string mutated = plan_text(slot, number);
      const std::optional<FaultPlan> plan = parse_or_reject(mutated);
      if (!plan.has_value()) {
        continue;
      }
      ASSERT_TRUE(value.has_value()) << "accepted: " << mutated;
      ASSERT_EQ(plan->specs().size(), 4u) << mutated;
      EXPECT_EQ(field_value(plan->specs()[slots[slot].spec], slots[slot].field), value)
          << "misread: " << mutated;
    }
  }

  std::mt19937 rng(20261019);
  for (std::size_t at = 0; at < text.size(); ++at) {
    for (int flip = 0; flip < 4; ++flip) {
      std::string mutated = text;
      mutated[at] = static_cast<char>(mutated[at] ^ static_cast<char>(1 + rng() % 255));
      (void)parse_or_reject(mutated);
    }
  }
}

TEST_F(FaultsimTest, EmptyPlanIsValidAndDisarmed) {
  FaultPlan plan;
  EXPECT_TRUE(FaultPlan::parse("", plan).ok);
  EXPECT_TRUE(plan.empty());
  Injector::instance().load(plan);
  EXPECT_FALSE(Injector::armed());
}

TEST_F(FaultsimTest, LoadEnvParsesAndReportsErrors) {
  ASSERT_EQ(setenv("CUSAN_FAULT_PLAN", "memcpy#1=fail", 1), 0);
  std::string error;
  EXPECT_TRUE(Injector::instance().load_env(&error)) << error;
  EXPECT_TRUE(Injector::armed());
  EXPECT_EQ(Injector::instance().plan_string(), "memcpy#1=fail");

  ASSERT_EQ(setenv("CUSAN_FAULT_PLAN", "memcpy#1=banana", 1), 0);
  EXPECT_FALSE(Injector::instance().load_env(&error));
  EXPECT_FALSE(error.empty());

  // Unset env keeps the previously loaded plan (programmatic plans survive a
  // load_env no-op); only clear() disarms.
  ASSERT_EQ(unsetenv("CUSAN_FAULT_PLAN"), 0);
  EXPECT_TRUE(Injector::instance().load_env(&error)) << error;
  EXPECT_TRUE(Injector::armed());
  Injector::instance().clear();
  EXPECT_FALSE(Injector::armed());
}

// -- Injector determinism ---------------------------------------------------------

TEST_F(FaultsimTest, NthMatchFiresExactlyOnce) {
  Injector::instance().load(parse_ok("memcpy#3=fail"));
  SiteContext where;
  where.device = 0;
  for (int call = 1; call <= 6; ++call) {
    const auto fired = Injector::instance().probe(Site::kMemcpy, where);
    EXPECT_EQ(fired.has_value(), call == 3) << "call " << call;
  }
  EXPECT_EQ(Injector::instance().fired_count(), 1u);
}

TEST_F(FaultsimTest, PeriodicSpecRefiresEveryKMatches) {
  Injector::instance().load(parse_ok("memcpy#2%3=fail"));
  SiteContext where;
  where.device = 0;
  std::vector<int> fired_on;
  for (int call = 1; call <= 9; ++call) {
    if (Injector::instance().probe(Site::kMemcpy, where)) {
      fired_on.push_back(call);
    }
  }
  EXPECT_EQ(fired_on, (std::vector<int>{2, 5, 8}));
}

TEST_F(FaultsimTest, MatchCountersArePerInstance) {
  // Two ranks racing through the same code path each see the fault on their
  // own 2nd call — the determinism contract from plan.hpp.
  Injector::instance().load(parse_ok("send#2=fail"));
  SiteContext rank0;
  rank0.rank = 0;
  SiteContext rank1;
  rank1.rank = 1;
  EXPECT_FALSE(Injector::instance().probe(Site::kSend, rank0));
  EXPECT_FALSE(Injector::instance().probe(Site::kSend, rank1));
  EXPECT_TRUE(Injector::instance().probe(Site::kSend, rank0));
  EXPECT_TRUE(Injector::instance().probe(Site::kSend, rank1));
  EXPECT_EQ(Injector::instance().fired_count(), 2u);
}

TEST_F(FaultsimTest, ScopedSpecIgnoresOtherInstances) {
  Injector::instance().load(parse_ok("send@rank1#1=fail"));
  SiteContext rank0;
  rank0.rank = 0;
  SiteContext rank1;
  rank1.rank = 1;
  EXPECT_FALSE(Injector::instance().probe(Site::kSend, rank0));
  EXPECT_FALSE(Injector::instance().probe(Site::kRecv, rank1));  // wrong site
  EXPECT_TRUE(Injector::instance().probe(Site::kSend, rank1));
}

TEST_F(FaultsimTest, DelayIsSurfacedByConstruction) {
  Injector::instance().load(parse_ok("memcpy#1=delay:1us"));
  SiteContext where;
  where.device = 0;
  const auto fired = Injector::instance().probe(Site::kMemcpy, where);
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->action, Action::kDelay);
  EXPECT_EQ(Injector::instance().unsurfaced_count(), 0u);
  ASSERT_EQ(Injector::instance().fired_log().size(), 1u);
  EXPECT_EQ(Injector::instance().fired_log()[0].surfaced, Channel::kPerturbation);
}

TEST_F(FaultsimTest, ClearDisarmsAndDropsLedger) {
  Injector::instance().load(parse_ok("memcpy#1=fail"));
  SiteContext where;
  where.device = 0;
  (void)Injector::instance().probe(Site::kMemcpy, where);
  EXPECT_EQ(Injector::instance().fired_count(), 1u);
  Injector::instance().clear();
  EXPECT_FALSE(Injector::armed());
  EXPECT_EQ(Injector::instance().fired_count(), 0u);
  EXPECT_FALSE(Injector::instance().probe(Site::kMemcpy, where));
}

// -- Error-path soundness through the full stack ----------------------------------

struct FaultKernels {
  kir::Module module;
  const kir::KernelInfo* writer{};
  std::unique_ptr<kir::KernelRegistry> registry;
  FaultKernels() {
    kir::Function* w = module.create_function("fault_writer", {true, false});
    w->store(w->gep(w->param(0), w->constant()), w->constant());
    w->ret();
    registry = std::make_unique<kir::KernelRegistry>(module);
    writer = registry->lookup(w);
  }
};

const FaultKernels& fault_kernels() {
  static const FaultKernels k;
  return k;
}

TEST_F(FaultsimTest, FailedMallocRegistersNoToolState) {
  Injector::instance().load(parse_ok("malloc@dev0#1=oom"));
  const auto results = capi::run_flavored(capi::Flavor::kMustCusan, 1, [](capi::RankEnv& env) {
    double* d = reinterpret_cast<double*>(0x1);
    EXPECT_EQ(capi::cuda::malloc_device(&d, 256), cusim::Error::kMemoryAllocation);
    EXPECT_EQ(d, nullptr);  // CUDA nulls the out pointer on failure
    // Soundness: the failed allocation must be invisible to every tool layer.
    EXPECT_EQ(env.tools.types()->stats().allocs_tracked, 0u);
    // The next allocation works (the plan is one-shot) and is tracked.
    double* ok = nullptr;
    EXPECT_EQ(capi::cuda::malloc_device(&ok, 256), cusim::Error::kSuccess);
    EXPECT_EQ(env.tools.types()->stats().allocs_tracked, 1u);
    (void)capi::cuda::free(ok);
  });
  EXPECT_EQ(results[0].device_live_bytes, 0u);
  EXPECT_EQ(results[0].sticky_errors, 0u);  // synchronous failure, nothing latched
  // Accounting: the oom fired and surfaced as an API error.
  ASSERT_EQ(Injector::instance().fired_count(), 1u);
  EXPECT_EQ(Injector::instance().fired_log()[0].surfaced, Channel::kApiError);
  EXPECT_EQ(Injector::instance().unsurfaced_count(), 0u);
}

TEST_F(FaultsimTest, AbortedKernelPublishesNoAnnotations) {
  // Control: the same program without a plan publishes one kernel launch.
  const auto clean = capi::run_flavored(capi::Flavor::kMustCusan, 1, [](capi::RankEnv&) {
    int* d = nullptr;
    ASSERT_EQ(capi::cuda::malloc_device(&d, 64), cusim::Error::kSuccess);
    (void)capi::cuda::launch(*fault_kernels().writer, {1, 64}, nullptr, {d, nullptr},
                             [d](const cusim::KernelContext& ctx) {
                               ctx.for_each_thread([d](std::size_t t) { d[t] = 1; });
                             });
    (void)capi::cuda::device_synchronize();
    (void)capi::cuda::free(d);
  });
  EXPECT_EQ(obs::value_of(clean[0].metrics, "cusan.kernel_launches"), 1u);

  Injector::instance().load(parse_ok("kernel#1=abort"));
  const auto faulted = capi::run_flavored(capi::Flavor::kMustCusan, 1, [](capi::RankEnv&) {
    int* d = nullptr;
    ASSERT_EQ(capi::cuda::malloc_device(&d, 64), cusim::Error::kSuccess);
    bool body_ran = false;
    (void)capi::cuda::launch(*fault_kernels().writer, {1, 64}, nullptr, {d, nullptr},
                             [&body_ran](const cusim::KernelContext&) { body_ran = true; });
    // The abort drops the kernel: its body never executes and the sticky
    // error surfaces at the next synchronization point.
    EXPECT_EQ(capi::cuda::device_synchronize(), cusim::Error::kLaunchFailure);
    EXPECT_FALSE(body_ran);
    // GetLastError returns and clears; a second read is clean again.
    EXPECT_EQ(capi::cuda::get_last_error(), cusim::Error::kLaunchFailure);
    EXPECT_EQ(capi::cuda::get_last_error(), cusim::Error::kSuccess);
    (void)capi::cuda::free(d);
  });
  // Soundness: no kernel annotations / HB edges were published for the
  // aborted launch.
  EXPECT_EQ(obs::value_of(faulted[0].metrics, "cusan.kernel_launches"), 0u);
  EXPECT_EQ(obs::value_of(faulted[0].metrics, "cusan.kernel_annotation_calls"), 0u);
  EXPECT_EQ(faulted[0].sticky_errors, 0u);  // the app drained the latch itself
  EXPECT_EQ(Injector::instance().unsurfaced_count(), 0u);
}

TEST_F(FaultsimTest, UnobservedStickyErrorIsCountedAtFinalize) {
  Injector::instance().load(parse_ok("kernel#1=abort"));
  const auto results = capi::run_flavored(capi::Flavor::kMustCusan, 1, [](capi::RankEnv&) {
    int* d = nullptr;
    ASSERT_EQ(capi::cuda::malloc_device(&d, 64), cusim::Error::kSuccess);
    (void)capi::cuda::launch(*fault_kernels().writer, {1, 64}, nullptr, {d, nullptr},
                             [](const cusim::KernelContext&) {});
    // The app never synchronizes or reads the error: finalize must still
    // account for the latched failure.
    (void)capi::cuda::free(d);  // free syncs internally but ignores the result
  });
  EXPECT_EQ(results[0].sticky_errors, 1u);
  EXPECT_EQ(Injector::instance().unsurfaced_count(), 0u);
}

TEST_F(FaultsimTest, ShadowCapDegradesInsteadOfAborting) {
  capi::SessionConfig config;
  config.ranks = 1;
  config.tools = capi::make_tool_config(capi::Flavor::kMustCusan);
  // A one-block budget: the second distinct shadow block is denied and the
  // runtime degrades (counts, keeps running) instead of aborting.
  config.tools.rsan_config.shadow_max_bytes = 1;
  const auto results = capi::run_session(config, [](capi::RankEnv&) {
    std::array<double, 512> a{};
    std::array<double, 512> b{};
    capi::annotate_host_writes(a.data(), sizeof a, "a");
    capi::annotate_host_writes(b.data(), sizeof b, "b");
  });
  EXPECT_GT(obs::value_of(results[0].metrics, "rsan.degraded_blocks"), 0u);
  EXPECT_GT(obs::value_of(results[0].metrics, "rsan.degraded_accesses"), 0u);
  EXPECT_EQ(results[0].races.size(), 0u);
}

// -- MPI fault surfacing ----------------------------------------------------------

TEST_F(FaultsimTest, FailedSendSurfacesAsApiError) {
  Injector::instance().load(parse_ok("send@rank0#1=fail"));
  const auto results = capi::run_flavored(capi::Flavor::kMust, 2, [](capi::RankEnv& env) {
    std::array<double, 8> buf{};
    if (env.rank() == 0) {
      EXPECT_EQ(capi::mpi::send(env.comm, buf.data(), buf.size(), mpisim::Datatype::float64(), 1, 7),
                mpisim::MpiError::kOther);
      // Retry succeeds: the spec was one-shot.
      EXPECT_EQ(capi::mpi::send(env.comm, buf.data(), buf.size(), mpisim::Datatype::float64(), 1, 7),
                mpisim::MpiError::kSuccess);
    } else {
      EXPECT_EQ(capi::mpi::recv(env.comm, buf.data(), buf.size(), mpisim::Datatype::float64(), 0, 7),
                mpisim::MpiError::kSuccess);
    }
  });
  EXPECT_EQ(results.size(), 2u);
  ASSERT_EQ(Injector::instance().fired_count(), 1u);
  EXPECT_EQ(Injector::instance().fired_log()[0].surfaced, Channel::kApiError);
}

TEST_F(FaultsimTest, StalledRecvBecomesDeadlockReport) {
  Injector::instance().load(parse_ok("recv@rank1#1=stall"));
  capi::SessionConfig config;
  config.ranks = 2;
  config.tools = capi::make_tool_config(capi::Flavor::kMust);
  config.watchdog_timeout = std::chrono::milliseconds(150);
  const auto results = capi::run_session(config, [](capi::RankEnv& env) {
    std::array<double, 8> buf{};
    if (env.rank() == 0) {
      (void)capi::mpi::send(env.comm, buf.data(), buf.size(), mpisim::Datatype::float64(), 1, 7);
    } else {
      const auto err = capi::mpi::recv(env.comm, buf.data(), buf.size(), mpisim::Datatype::float64(), 0, 7);
      EXPECT_EQ(err, mpisim::MpiError::kDeadlock);
      EXPECT_TRUE(env.comm.deadlock_detected());
    }
  });
  // The stalled call is accounted as a DeadlockReport; MUST relays it.
  EXPECT_EQ(Injector::instance().unsurfaced_count(), 0u);
  ASSERT_EQ(Injector::instance().fired_count(), 1u);
  EXPECT_EQ(Injector::instance().fired_log()[0].surfaced, Channel::kDeadlockReport);
  bool reported = false;
  for (const auto& result : results) {
    for (const auto& report : result.must_reports) {
      reported |= report.kind == must::ReportKind::kDeadlock;
    }
  }
  EXPECT_TRUE(reported);
}

TEST_F(FaultsimTest, WaitallReturnsTheFirstErrorInIndexOrder) {
  // Rank 0's waitall holds two requests that fail differently: index 0 is
  // an irecv that rank 1's longer message truncates, and the wait fault
  // fires on the plan's nth wait. Waiting in index order, the first error
  // is index 0's whichever wait the fault hits. The buffers outlive the
  // session: a faulted wait leaves its request posted. Thread ranks, so the
  // rank body can hand waitall's result back.
  const mpisim::ScopedBackend thread_backend(mpisim::Backend::kThread);
  std::array<double, 8> big{};
  std::array<double, 4> small{};
  std::array<double, 4> out{};
  std::array<double, 4> in{};
  for (const char* plan : {"wait@rank0#1=fail", "wait@rank0#2=fail"}) {
    Injector::instance().load(parse_ok(plan));
    mpisim::MpiError got = mpisim::MpiError::kSuccess;
    (void)capi::run_flavored(capi::Flavor::kMust, 2, [&](capi::RankEnv& env) {
      const auto type = mpisim::Datatype::float64();
      if (env.rank() == 0) {
        std::array<mpisim::Request*, 2> reqs{};
        ASSERT_EQ(capi::mpi::irecv(env.comm, small.data(), small.size(), type, 1, 1, &reqs[0]),
                  mpisim::MpiError::kSuccess);
        ASSERT_EQ(capi::mpi::isend(env.comm, out.data(), out.size(), type, 1, 2, &reqs[1]),
                  mpisim::MpiError::kSuccess);
        got = capi::mpi::waitall(env.comm, reqs);
      } else {
        EXPECT_EQ(capi::mpi::send(env.comm, big.data(), big.size(), type, 0, 1),
                  mpisim::MpiError::kSuccess);
        EXPECT_EQ(capi::mpi::recv(env.comm, in.data(), in.size(), type, 0, 2),
                  mpisim::MpiError::kSuccess);
      }
    });
    // #1 faults index 0's wait; #2 faults index 1's after index 0 truncated.
    EXPECT_EQ(got, std::string_view(plan).ends_with("#1=fail") ? mpisim::MpiError::kOther
                                                               : mpisim::MpiError::kTruncate)
        << plan;
    EXPECT_EQ(Injector::instance().fired_count(), 1u) << plan;
    Injector::instance().clear();
  }
}

// -- Differential sweep smoke -----------------------------------------------------

TEST_F(FaultsimTest, MiniSweepHoldsRobustnessInvariants) {
  testsuite::SweepOptions options;
  options.plans = 2;
  options.faults_per_plan = 3;
  options.watchdog = std::chrono::milliseconds(150);
  // A small but fault-interesting slice of the matrix: device memory over
  // the default stream covers malloc/memcpy/kernel/send/recv sites.
  options.filter = "device__default_stream";
  const auto stats = testsuite::run_fault_sweep(options);
  EXPECT_GT(stats.scenarios, 0u);
  EXPECT_EQ(stats.runs, stats.scenarios * 2);
  for (const auto& failure : stats.failures) {
    ADD_FAILURE() << failure;
  }
  EXPECT_TRUE(stats.ok());
  EXPECT_GT(obs::value_of(stats.metrics, "faultsim.faults_fired"), 0u);
  EXPECT_EQ(testsuite::vacuous_reason(options, stats, mpisim::default_backend()), "");

  // Every run is its own session, so the worker count changes nothing:
  // not the stats, not the failure lines, not the summed metrics.
  options.jobs = 3;
  const auto parallel = testsuite::run_fault_sweep(options);
  EXPECT_EQ(parallel.scenarios, stats.scenarios);
  EXPECT_EQ(parallel.runs, stats.runs);
  EXPECT_EQ(parallel.faulted_runs, stats.faulted_runs);
  EXPECT_EQ(parallel.faults_fired, stats.faults_fired);
  EXPECT_EQ(parallel.faults_unsurfaced, stats.faults_unsurfaced);
  EXPECT_EQ(parallel.verdict_mismatches, stats.verdict_mismatches);
  EXPECT_EQ(parallel.rank_kill_runs, stats.rank_kill_runs);
  EXPECT_EQ(parallel.rank_failure_reports, stats.rank_failure_reports);
  EXPECT_EQ(parallel.failures, stats.failures);
  std::vector<std::string> keys;
  std::vector<std::string> parallel_keys;
  for (const auto& [name, value] : stats.metrics) {
    keys.push_back(name);
  }
  for (const auto& [name, value] : parallel.metrics) {
    parallel_keys.push_back(name);
  }
  EXPECT_EQ(parallel_keys, keys);
  for (const auto& [name, value] : stats.metrics) {
    if (name == "faultsim.faults_fired" || name == "rsan.races_detected" ||
        name.starts_with("diag.")) {
      EXPECT_EQ(obs::value_of(parallel.metrics, name), value) << name;
    }
  }
}

// A stall the sweep draws fires: corpus ranks post one MPI operation each,
// so stall specs aim at #1, and the watchdog turns the stall into a
// declared deadlock that the sweep's accounting sees.
TEST_F(FaultsimTest, SweepStallFiresAndIsDeclaredADeadlock) {
  testsuite::SweepOptions options;
  options.seed = 41;  // its plan holds send@rank0#1%2=stall
  options.plans = 1;
  options.faults_per_plan = 3;
  options.watchdog = std::chrono::milliseconds(150);
  options.filter = "device__default_stream__no_sync";
  const std::string plan = testsuite::make_random_plan(options.seed, 3, 0).to_string();
  ASSERT_NE(plan.find("=stall"), std::string::npos) << plan;
  const auto stats = testsuite::run_fault_sweep(options);
  ASSERT_GT(stats.runs, 0u);
  for (const auto& failure : stats.failures) {
    ADD_FAILURE() << failure;
  }
  EXPECT_TRUE(stats.ok());
  EXPECT_GE(obs::value_of(stats.metrics, "mpisim.deadlocks_declared"), 1u) << plan;
}

// A sweep whose plans fire nothing holds every invariant vacuously. The
// plan here is one rank_kill spec and no other fault: rank_kill matches no
// site the thread backend probes, so no run is faulted.
TEST_F(FaultsimTest, SweepThatFiresNothingIsVacuous) {
  const mpisim::ScopedBackend thread_backend(mpisim::Backend::kThread);
  testsuite::SweepOptions options;
  options.plans = 1;
  options.faults_per_plan = 0;
  options.rank_kills = 1;
  options.watchdog = std::chrono::milliseconds(150);
  options.filter = "device__default_stream";
  const auto stats = testsuite::run_fault_sweep(options);
  ASSERT_GT(stats.runs, 0u);
  EXPECT_TRUE(stats.ok());
  EXPECT_EQ(stats.faulted_runs, 0u);
  EXPECT_EQ(testsuite::vacuous_reason(options, stats, mpisim::Backend::kThread),
            "no fault fired in any of " + std::to_string(stats.runs) + " faulted runs");
}

// Under the proc backend a sweep that asked for rank kills must also have
// killed a rank; faults of other kinds firing do not make up for it. The
// thread backend never probes rank_kill sites, so there the rule is off.
TEST(FaultSweepVerdictTest, UnfiredRankKillsAreVacuousOnlyUnderProc) {
  testsuite::SweepOptions options;
  options.faults_per_plan = 2;
  options.rank_kills = 1;
  testsuite::SweepStats stats;
  stats.runs = 4;
  stats.faulted_runs = 2;
  EXPECT_EQ(testsuite::vacuous_reason(options, stats, mpisim::Backend::kProc),
            "no rank_kill fired in any of 4 faulted runs");
  EXPECT_EQ(testsuite::vacuous_reason(options, stats, mpisim::Backend::kThread), "");
  stats.rank_kill_runs = 1;
  EXPECT_EQ(testsuite::vacuous_reason(options, stats, mpisim::Backend::kProc), "");
  options.rank_kills = 0;
  stats.rank_kill_runs = 0;
  EXPECT_EQ(testsuite::vacuous_reason(options, stats, mpisim::Backend::kProc), "");
}

}  // namespace
