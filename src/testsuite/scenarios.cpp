#include "testsuite/scenarios.hpp"

#include <memory>
#include <string_view>

#include "capi/cuda.hpp"
#include "capi/mpi.hpp"
#include "common/assert.hpp"
#include "faultsim/injector.hpp"
#include "kir/registry.hpp"

namespace testsuite {
namespace {

constexpr std::size_t kCount = 4096;
constexpr std::size_t kSendCount = kCount / 2;

struct SuiteKernels {
  kir::Module module;
  const kir::KernelInfo* writer{};
  const kir::KernelInfo* reader{};
  // Sub-range variants with compiler-known index bounds: the tail kernels
  // touch only [kSendCount, kCount) doubles (disjoint from the exchanged head
  // half), the head kernels only [0, kSendCount) (fully overlapping it).
  const kir::KernelInfo* tail_writer{};
  const kir::KernelInfo* tail_reader{};
  const kir::KernelInfo* head_writer{};
  const kir::KernelInfo* head_reader{};
  std::unique_ptr<kir::KernelRegistry> registry;
  SuiteKernels() {
    constexpr auto kElem = static_cast<std::uint32_t>(sizeof(double));
    kir::Function* w = module.create_function("suite_writer", {true, false});
    w->store(w->gep(w->param(0), w->constant()), w->constant());
    w->ret();
    kir::Function* r = module.create_function("suite_reader", {true, false});
    (void)r->load(r->gep(r->param(0), r->constant()));
    r->ret();
    // One element per thread: the affine analysis proves these race-free
    // (stride 8 = access width), so prove-and-elide can skip their tracking;
    // the interval summaries are unchanged vs the old bounded() scalars.
    const auto make_bounded = [&](const char* name, std::int64_t lo, std::int64_t hi,
                                  bool is_write) {
      kir::Function* fn = module.create_function(name, {true, false});
      const kir::Value idx = fn->thread_idx(lo, hi);
      const kir::Value ptr = fn->gep(fn->param(0), idx, kElem);
      if (is_write) {
        fn->store(ptr, fn->constant(), kElem);
      } else {
        (void)fn->load(ptr, kElem);
      }
      fn->ret();
      return fn;
    };
    kir::Function* tw = make_bounded("suite_tail_writer", kSendCount, kCount - 1, true);
    kir::Function* tr = make_bounded("suite_tail_reader", kSendCount, kCount - 1, false);
    kir::Function* hw = make_bounded("suite_head_writer", 0, kSendCount - 1, true);
    kir::Function* hr = make_bounded("suite_head_reader", 0, kSendCount - 1, false);
    registry = std::make_unique<kir::KernelRegistry>(module);
    writer = registry->lookup(w);
    reader = registry->lookup(r);
    tail_writer = registry->lookup(tw);
    tail_reader = registry->lookup(tr);
    head_writer = registry->lookup(hw);
    head_reader = registry->lookup(hr);
  }
};

const SuiteKernels& kernels() {
  static const SuiteKernels k;
  return k;
}

const kir::KernelInfo& kernel_for(Span span, bool writer) {
  const SuiteKernels& k = kernels();
  switch (span) {
    case Span::kWhole:
      return writer ? *k.writer : *k.reader;
    case Span::kTail:
      return writer ? *k.tail_writer : *k.tail_reader;
    case Span::kHead:
      return writer ? *k.head_writer : *k.head_reader;
  }
  return writer ? *k.writer : *k.reader;
}

double* allocate(Mem mem) {
  double* p = nullptr;
  switch (mem) {
    case Mem::kDevice:
      (void)capi::cuda::malloc_device(&p, kCount);
      break;
    case Mem::kManaged:
      (void)capi::cuda::malloc_managed(&p, kCount);
      break;
    case Mem::kPinned:
      (void)capi::cuda::malloc_host(&p, kCount);
      break;
  }
  return p;
}

void deallocate(Mem mem, double* p) {
  if (mem == Mem::kPinned) {
    (void)capi::cuda::free_host(p);
  } else {
    (void)capi::cuda::free(p);
  }
}

}  // namespace

const char* to_string(Mem m) {
  switch (m) {
    case Mem::kDevice:
      return "device";
    case Mem::kManaged:
      return "managed";
    case Mem::kPinned:
      return "pinned";
  }
  return "?";
}

const char* to_string(StreamKind s) {
  switch (s) {
    case StreamKind::kDefault:
      return "default_stream";
    case StreamKind::kUser:
      return "user_stream";
    case StreamKind::kNonBlocking:
      return "nonblocking_stream";
  }
  return "?";
}

const char* to_string(Sync s) {
  switch (s) {
    case Sync::kNone:
      return "no_sync";
    case Sync::kDevice:
      return "device_sync";
    case Sync::kStream:
      return "stream_sync";
    case Sync::kWrongStream:
      return "wrong_stream_sync";
    case Sync::kEvent:
      return "event_sync";
    case Sync::kEventEarly:
      return "event_recorded_early";
    case Sync::kQuery:
      return "query_busy_wait";
    case Sync::kMemcpy:
      return "memcpy_implicit_sync";
    case Sync::kWait:
      return "wait_before_kernel";
    case Sync::kNoWait:
      return "kernel_before_wait";
    case Sync::kTestLoop:
      return "test_loop_before_kernel";
  }
  return "?";
}

const char* to_string(Span s) {
  switch (s) {
    case Span::kWhole:
      return "whole_span";
    case Span::kTail:
      return "tail_kernel";
    case Span::kHead:
      return "head_kernel";
  }
  return "?";
}

void scenario_rank_main(capi::RankEnv& env, const Scenario& sc) {
  namespace cuda = capi::cuda;
  namespace mpi = capi::mpi;
  // Ranks pair up (2i, 2i+1): even ranks play the producer role, odd ranks
  // the consumer, so one scenario exercises every pair of an N-rank world
  // concurrently. An unpaired trailing rank (odd world size) idles.
  const int rank = env.rank();
  const int partner = rank ^ 1;
  if (partner >= env.size()) {
    return;
  }
  const bool producer = (rank & 1) == 0;
  const auto type = mpisim::Datatype::float64();
  double* buf = allocate(sc.mem);
  if (buf == nullptr) {
    // Only an injected OOM may fail these small allocations. Bail out like a
    // defensive application: the peer's now-unmatched operations are the
    // watchdog's job, not a crash.
    CUSAN_ASSERT_MSG(faultsim::Injector::armed(), "scenario allocation failed without a fault plan");
    return;
  }

  cusim::Stream* stream = nullptr;  // nullptr = default stream
  cusim::Stream* other = nullptr;
  if (sc.stream != StreamKind::kDefault) {
    (void)cuda::stream_create(&stream, sc.stream == StreamKind::kNonBlocking
                                           ? cusim::StreamFlags::kNonBlocking
                                           : cusim::StreamFlags::kDefault);
  }
  if (sc.sync == Sync::kWrongStream) {
    (void)cuda::stream_create(&other, cusim::StreamFlags::kNonBlocking);
  }

  // Racy bodies stay clear of the exchanged byte range — detection runs on
  // the statically derived access summaries (whole-range modes, optionally
  // refined to byte intervals; see DESIGN.md), not on the body's accesses.
  const auto launch_writer = [&] {
    (void)cuda::launch(kernel_for(sc.span, /*writer=*/true), {8, 64}, stream, {buf, nullptr},
                       [buf](const cusim::KernelContext&) { buf[kCount - 1] = 1.0; });
  };
  const auto launch_reader = [&] {
    (void)cuda::launch(kernel_for(sc.span, /*writer=*/false), {8, 64}, stream, {buf, nullptr},
                       [buf](const cusim::KernelContext&) { (void)buf[kCount - 1]; });
  };
  const auto apply_sync = [&] {
    switch (sc.sync) {
      case Sync::kNone:
      case Sync::kEventEarly:  // handled inline at the call site
        break;
      case Sync::kDevice:
        (void)cuda::device_synchronize();
        break;
      case Sync::kStream:
        (void)cuda::stream_synchronize(stream);
        break;
      case Sync::kWrongStream:
        (void)cuda::stream_synchronize(other);
        break;
      case Sync::kEvent: {
        cusim::Event* e = nullptr;
        (void)cuda::event_create(&e);
        (void)cuda::event_record(e, stream);
        (void)cuda::event_synchronize(e);
        (void)cuda::event_destroy(e);
        break;
      }
      case Sync::kQuery: {
        cusim::Stream* target = stream != nullptr ? stream : capi::cuda::default_stream();
        // Spin only while genuinely pending: a sticky device error also ends
        // the wait (otherwise an injected stream error spins forever).
        while (cuda::stream_query(target) == cusim::Error::kNotReady) {
        }
        break;
      }
      case Sync::kMemcpy: {
        double probe = 0.0;
        (void)cuda::memcpy(&probe, buf, sizeof(double), cusim::MemcpyDir::kDefault);
        break;
      }
      default:
        break;
    }
  };

  if (producer) {
    if (sc.dir == Direction::kCudaToMpi) {
      if (sc.sync == Sync::kEventEarly) {
        cusim::Event* e = nullptr;
        (void)cuda::event_create(&e);
        (void)cuda::event_record(e, stream);  // records BEFORE the kernel
        launch_writer();
        (void)cuda::event_synchronize(e);  // does not cover the kernel
        (void)cuda::event_destroy(e);
      } else {
        launch_writer();
        apply_sync();
      }
      (void)mpi::send(env.comm, buf, kSendCount, type, partner, 0);
      (void)cuda::device_synchronize();
    } else {
      // mpi-to-cuda: the producer only produces the message.
      (void)cuda::device_synchronize();
      (void)mpi::send(env.comm, buf, kSendCount, type, partner, 0);
    }
  } else {
    if (sc.dir == Direction::kCudaToMpi) {
      (void)mpi::recv(env.comm, buf, kSendCount, type, partner, 0);
      launch_reader();
      (void)cuda::device_synchronize();
    } else {
      mpisim::Request* req = nullptr;
      (void)mpi::irecv(env.comm, buf, kSendCount, type, partner, 0, &req);
      switch (sc.sync) {
        case Sync::kWait:
          (void)mpi::wait(env.comm, &req);
          launch_reader();
          break;
        case Sync::kTestLoop: {
          bool done = false;
          while (!done) {
            // A deadlock verdict (or injected failure) ends the poll loop;
            // the leaked request becomes a MUST leak report.
            if (mpi::test(env.comm, &req, &done) != mpisim::MpiError::kSuccess) {
              break;
            }
          }
          launch_reader();
          break;
        }
        case Sync::kNoWait:
        default:
          launch_reader();  // RACE: the request may still write the buffer
          (void)mpi::wait(env.comm, &req);
          break;
      }
      (void)cuda::device_synchronize();
    }
  }

  if (other != nullptr) {
    (void)cuda::stream_destroy(other);
  }
  if (stream != nullptr) {
    (void)cuda::stream_destroy(stream);
  }
  deallocate(sc.mem, buf);
}

std::vector<Scenario> build_scenarios() {
  std::vector<Scenario> out;
  const auto add_mode = [&out](Direction dir, Mem mem, StreamKind stream, Sync sync,
                               cusim::DefaultStreamMode mode, bool expect_race) {
    Scenario sc;
    sc.dir = dir;
    sc.mem = mem;
    sc.stream = stream;
    sc.sync = sync;
    sc.stream_mode = mode;
    sc.expect_race = expect_race;
    sc.name = std::string(dir == Direction::kCudaToMpi ? "cuda_to_mpi" : "mpi_to_cuda") + "__" +
              to_string(mem) + "__" + to_string(stream) + "__" + to_string(sync) +
              (mode == cusim::DefaultStreamMode::kPerThread ? "__per_thread" : "") +
              (expect_race ? "__racy" : "__ok");
    out.push_back(std::move(sc));
  };
  const auto add = [&add_mode](Direction dir, Mem mem, StreamKind stream, Sync sync,
                               bool expect_race) {
    add_mode(dir, mem, stream, sync, cusim::DefaultStreamMode::kLegacy, expect_race);
  };

  // cuda-to-mpi: direction of paper Fig. 4(i).
  for (const Mem mem : {Mem::kDevice, Mem::kManaged}) {
    for (const StreamKind stream :
         {StreamKind::kDefault, StreamKind::kUser, StreamKind::kNonBlocking}) {
      add(Direction::kCudaToMpi, mem, stream, Sync::kNone, true);
      add(Direction::kCudaToMpi, mem, stream, Sync::kDevice, false);
      add(Direction::kCudaToMpi, mem, stream, Sync::kStream, false);
      add(Direction::kCudaToMpi, mem, stream, Sync::kEvent, false);
      add(Direction::kCudaToMpi, mem, stream, Sync::kQuery, false);
      // Blocking cudaMemcpy runs on the default stream: legacy barriers cover
      // the default and blocking user streams, but NOT non-blocking streams.
      add(Direction::kCudaToMpi, mem, stream, Sync::kMemcpy,
          stream == StreamKind::kNonBlocking);
    }
    add(Direction::kCudaToMpi, mem, StreamKind::kNonBlocking, Sync::kWrongStream, true);
    add(Direction::kCudaToMpi, mem, StreamKind::kUser, Sync::kEventEarly, true);
  }
  // Pinned host memory is also exchanged directly (zero-copy kernels).
  add(Direction::kCudaToMpi, Mem::kPinned, StreamKind::kDefault, Sync::kNone, true);
  add(Direction::kCudaToMpi, Mem::kPinned, StreamKind::kDefault, Sync::kDevice, false);

  // mpi-to-cuda: direction of paper Fig. 4(ii).
  for (const Mem mem : {Mem::kDevice, Mem::kManaged}) {
    for (const StreamKind stream : {StreamKind::kDefault, StreamKind::kUser}) {
      add(Direction::kMpiToCuda, mem, stream, Sync::kWait, false);
      add(Direction::kMpiToCuda, mem, stream, Sync::kNoWait, true);
      add(Direction::kMpiToCuda, mem, stream, Sync::kTestLoop, false);
    }
  }
  add(Direction::kMpiToCuda, Mem::kPinned, StreamKind::kDefault, Sync::kNoWait, true);
  add(Direction::kMpiToCuda, Mem::kPinned, StreamKind::kDefault, Sync::kWait, false);

  // Per-thread default stream mode (§VI-B): the blocking cudaMemcpy on the
  // default stream no longer forms a legacy barrier with a user stream, so
  // the implicit-sync pattern that is clean under legacy semantics races.
  add_mode(Direction::kCudaToMpi, Mem::kDevice, StreamKind::kUser, Sync::kMemcpy,
           cusim::DefaultStreamMode::kPerThread, true);
  // Explicit synchronization still works in per-thread mode.
  add_mode(Direction::kCudaToMpi, Mem::kDevice, StreamKind::kUser, Sync::kStream,
           cusim::DefaultStreamMode::kPerThread, false);
  add_mode(Direction::kCudaToMpi, Mem::kDevice, StreamKind::kDefault, Sync::kDevice,
           cusim::DefaultStreamMode::kPerThread, false);
  add_mode(Direction::kCudaToMpi, Mem::kDevice, StreamKind::kDefault, Sync::kNone,
           cusim::DefaultStreamMode::kPerThread, true);
  add_mode(Direction::kMpiToCuda, Mem::kDevice, StreamKind::kDefault, Sync::kNoWait,
           cusim::DefaultStreamMode::kPerThread, true);
  add_mode(Direction::kMpiToCuda, Mem::kDevice, StreamKind::kDefault, Sync::kWait,
           cusim::DefaultStreamMode::kPerThread, false);

  // Byte-interval refinement scenarios (beyond the paper; its §VI names
  // sub-range precision as future work). The tail kernels provably touch
  // only the non-exchanged half of the buffer, so under interval-precise
  // annotation the unsynchronized overlap disappears — while the paper's
  // whole-range annotation flags the same program (a documented false
  // positive the refinement removes). Head kernels overlap the exchanged
  // half: the missing synchronization still fires under intervals.
  const auto add_span = [&out](Direction dir, Mem mem, StreamKind stream, Sync sync, Span span,
                               Precision precision, bool expect_race) {
    Scenario sc;
    sc.dir = dir;
    sc.mem = mem;
    sc.stream = stream;
    sc.sync = sync;
    sc.span = span;
    sc.precision = precision;
    sc.expect_race = expect_race;
    sc.name = std::string(dir == Direction::kCudaToMpi ? "cuda_to_mpi" : "mpi_to_cuda") + "__" +
              to_string(mem) + "__" + to_string(stream) + "__" + to_string(sync) + "__" +
              to_string(span) +
              (precision == Precision::kWholeRange ? "__whole_range" : "__intervals") +
              (expect_race ? "__racy" : "__ok");
    out.push_back(std::move(sc));
  };
  for (const Mem mem : {Mem::kDevice, Mem::kManaged}) {
    for (const StreamKind stream : {StreamKind::kDefault, StreamKind::kUser}) {
      // cuda-to-mpi: unsynchronized kernel before MPI_Send.
      add_span(Direction::kCudaToMpi, mem, stream, Sync::kNone, Span::kTail,
               Precision::kIntervals, false);
      add_span(Direction::kCudaToMpi, mem, stream, Sync::kNone, Span::kTail,
               Precision::kWholeRange, true);
      add_span(Direction::kCudaToMpi, mem, stream, Sync::kNone, Span::kHead,
               Precision::kIntervals, true);
      // mpi-to-cuda: kernel launched before MPI_Wait.
      add_span(Direction::kMpiToCuda, mem, stream, Sync::kNoWait, Span::kTail,
               Precision::kIntervals, false);
      add_span(Direction::kMpiToCuda, mem, stream, Sync::kNoWait, Span::kTail,
               Precision::kWholeRange, true);
      add_span(Direction::kMpiToCuda, mem, stream, Sync::kNoWait, Span::kHead,
               Precision::kIntervals, true);
    }
  }

  return out;
}

ScenarioOutcome run_scenario_outcome(const Scenario& scenario) {
  return run_scenario_outcome(scenario, rsan::RuntimeConfig{}.use_shadow_fast_path);
}

ScenarioOutcome run_scenario_outcome(const Scenario& scenario, bool use_shadow_fast_path) {
  return run_scenario_outcome(scenario, use_shadow_fast_path, std::chrono::milliseconds(0));
}

ScenarioOutcome run_scenario_outcome(const Scenario& scenario, bool use_shadow_fast_path,
                                     std::chrono::milliseconds watchdog_timeout) {
  return run_scenario_outcome(scenario, use_shadow_fast_path, watchdog_timeout,
                              cusan::default_prove_elide());
}

ScenarioOutcome run_scenario_outcome(const Scenario& scenario, bool use_shadow_fast_path,
                                     std::chrono::milliseconds watchdog_timeout,
                                     cusan::ProveElide prove_elide) {
  capi::SessionConfig config;
  config.ranks = capi::default_ranks();
  config.tools = capi::make_tool_config(capi::Flavor::kMustCusan);
  config.tools.cusan_config.use_access_intervals =
      scenario.precision == Precision::kIntervals;
  config.tools.cusan_config.prove_elide = prove_elide;
  config.tools.rsan_config.use_shadow_fast_path = use_shadow_fast_path;
  config.device_profile.default_stream_mode = scenario.stream_mode;
  config.watchdog_timeout = watchdog_timeout;
  const auto results = capi::run_session(
      config, [&](capi::RankEnv& env) { scenario_rank_main(env, scenario); });
  ScenarioOutcome outcome;
  outcome.races = capi::total_races(results);
  const auto sum = [&](std::string_view name) { return capi::sum_metric(results, name); };
  outcome.tracked_bytes = sum("rsan.read_range_bytes") + sum("rsan.write_range_bytes");
  outcome.fastpath_hits = sum("rsan.fastpath_block_hits");
  outcome.fastpath_granules_elided = sum("rsan.fastpath_granules_elided");
  outcome.elided_launches = sum("cusan.proof_elided_launches");
  outcome.elided_bytes = sum("cusan.proof_elided_bytes");
  return outcome;
}

std::size_t run_scenario(const Scenario& scenario) {
  return run_scenario_outcome(scenario).races;
}

}  // namespace testsuite
