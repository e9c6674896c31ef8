#include "mpisim/supervisor.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include <dirent.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/assert.hpp"
#include "common/clock.hpp"
#include "faultsim/injector.hpp"
#include "mpisim/proc_comm.hpp"
#include "obs/diagnostics.hpp"
#include "obs/metrics.hpp"

namespace mpisim {

namespace {

/// Exit code a child uses when rank_main threw (state kAppError carries the
/// message). Distinct from small tool exit codes so classification is
/// unambiguous.
constexpr int kAppErrorExit = 13;

/// Post-poison grace before stragglers are SIGKILLed: survivors should exit
/// through their own poisoned-call error paths well within this.
constexpr auto kBackstopGrace = std::chrono::milliseconds(2000);

[[nodiscard]] std::uint64_t ms_to_ns(std::chrono::milliseconds ms) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(ms).count());
}

/// Names are unique per (pid, instance): one supervisor pid may run many
/// worlds (ctest runs a whole suite in-process).
std::atomic<std::uint64_t> g_world_instance{0};

}  // namespace

Supervisor::Supervisor(Options options)
    : options_(options),
      rule_(options.watchdog),
      waits_(static_cast<std::size_t>(options.world_size)) {
  CUSAN_ASSERT_MSG(options_.world_size > 0, "world size must be positive");
  children_.resize(static_cast<std::size_t>(options_.world_size));
  results_.resize(static_cast<std::size_t>(options_.world_size));
}

Supervisor::~Supervisor() {
  // run() tears down on every path; this is belt-and-braces for a
  // constructed-but-never-run supervisor.
  if (seg_.valid()) {
    seg_.unlink();
  }
}

void Supervisor::setup_segment() {
  if (options_.ring_bytes == 0) {
    options_.ring_bytes = proc::default_ring_bytes(options_.world_size);
  }
  if (options_.eager_max == 0) {
    options_.eager_max = proc::default_eager_max(options_.ring_bytes);
  }
  layout_ = shmlayout::Layout::compute(options_.world_size, options_.ring_bytes);
  const std::string name = shm::segment_name(
      ::getpid(), "w" + std::to_string(g_world_instance.fetch_add(1)));
  std::string error;
  seg_ = shm::Segment::create(name, layout_.total_bytes, &error);
  if (!seg_.valid()) {
    throw std::runtime_error("mpisim: cannot create world segment " + name + ": " + error);
  }
  shmlayout::SegHeader* header = layout_.header(seg_.data());
  header->magic = shmlayout::kMagic;
  header->world_size = options_.world_size;
  header->ring_bytes = options_.ring_bytes;
  header->eager_max = options_.eager_max;
  header->supervisor_pid = static_cast<std::int32_t>(::getpid());
  header->watchdog_ms = options_.watchdog.count() > 0
                            ? static_cast<std::uint32_t>(options_.watchdog.count())
                            : 0;
  header->progress.store(0, std::memory_order_relaxed);
  header->poison.store(shmlayout::Poison::kNone, std::memory_order_relaxed);
  header->failed_rank.store(-1, std::memory_order_relaxed);
  const std::uint64_t now = common::now_ns();
  for (int r = 0; r < options_.world_size; ++r) {
    // Pre-stamp heartbeats so a slow exec never looks stale, and for every
    // pair initialize the ring. The rest of the segment is ftruncate-zeroed,
    // which is exactly the initial state the slots/areas need.
    layout_.slot(seg_.data(), r)->heartbeat_ns.store(now, std::memory_order_relaxed);
    for (int d = 0; d < options_.world_size; ++d) {
      shmring::init(layout_.ring(seg_.data(), r, d), options_.ring_bytes);
    }
  }
}

void Supervisor::child_main(int rank, const std::function<void(Comm)>& rank_main) {
  // The child inherits the parent's mapping: it never reopens the world
  // segment, so even an unlinked segment stays reachable.
  auto transport = proc::make_transport(seg_.data(), layout_, rank, seg_.name());
  proc::start(*transport);
  int exit_code = 0;
  try {
    rank_main(Comm(proc::root_comm(transport), rank));
    proc::finalize_clean(*transport);
  } catch (const std::exception& e) {
    proc::finalize_error(*transport, e.what());
    exit_code = kAppErrorExit;
  } catch (...) {
    proc::finalize_error(*transport, "unknown exception");
    exit_code = kAppErrorExit;
  }
  std::fflush(nullptr);
  // _exit, not exit: atexit handlers belong to the parent image (metric
  // exporters, gtest listeners) and must not run in every rank.
  ::_exit(exit_code);
}

void Supervisor::run(const std::function<void(Comm)>& rank_main) {
  setup_segment();
  // Children inherit stdio buffers; flush now so a child's exit never
  // re-emits output the parent had buffered before the fork.
  std::fflush(nullptr);
  for (int r = 0; r < options_.world_size; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      // Fork failed mid-way: kill what we started, reap, tear down.
      for (int k = 0; k < r; ++k) {
        ::kill(children_[static_cast<std::size_t>(k)].pid, SIGKILL);
        ::waitpid(children_[static_cast<std::size_t>(k)].pid, nullptr, 0);
      }
      teardown();
      throw std::runtime_error("mpisim: fork failed for rank " + std::to_string(r));
    }
    if (pid == 0) {
      child_main(r, rank_main);  // never returns
    }
    children_[static_cast<std::size_t>(r)].pid = pid;
  }
  monitor();
  collect_results();
  teardown();
}

int Supervisor::live_unreaped() const {
  int n = 0;
  for (const Child& child : children_) {
    n += child.reaped ? 0 : 1;
  }
  return n;
}

void Supervisor::monitor() {
  while (live_unreaped() > 0) {
    reap_once();
    if (live_unreaped() == 0) {
      break;
    }
    check_heartbeats();
    const auto poison =
        layout_.header(seg_.data())->poison.load(std::memory_order_acquire);
    if (poison == shmlayout::Poison::kNone) {
      check_deadlock();
    } else {
      backstop_after_poison();
    }
    std::this_thread::sleep_for(kWatchdogPoll);  // also the reap and heartbeat period
  }
}

void Supervisor::reap_once() {
  for (int r = 0; r < options_.world_size; ++r) {
    Child& child = children_[static_cast<std::size_t>(r)];
    if (child.reaped) {
      continue;
    }
    int status = 0;
    const pid_t got = ::waitpid(child.pid, &status, WNOHANG);
    if (got == child.pid) {
      child.reaped = true;
      classify_death(r, status);
    }
  }
}

void Supervisor::classify_death(int rank, int wait_status) {
  Child& child = children_[static_cast<std::size_t>(rank)];
  if (WIFEXITED(wait_status)) {
    const int code = WEXITSTATUS(wait_status);
    if (code == 0) {
      return;  // clean rank exit
    }
    if (code == kAppErrorExit) {
      // rank_main threw: an application error, not a rank failure — the
      // thread backend rethrows these, and so does World::run for us.
      if (first_app_error_.empty()) {
        const SlotSnap snap = read_slot(rank);
        const std::size_t len = strnlen(snap.error_msg, sizeof(snap.error_msg));
        first_app_error_.assign(snap.error_msg, len);
        if (first_app_error_.empty()) {
          first_app_error_ = "rank " + std::to_string(rank) + " failed";
        }
      }
      return;
    }
    declare_failure(rank, FailureKind::kExitCode, 0, code);
    return;
  }
  if (WIFSIGNALED(wait_status)) {
    const int sig = WTERMSIG(wait_status);
    if (child.backstop_kill) {
      return;  // our own post-poison cleanup, not a new failure
    }
    if (child.hb_kill_sent) {
      declare_failure(rank, FailureKind::kHeartbeatTimeout, sig, 0);
    } else {
      declare_failure(rank, FailureKind::kSignal, sig, 0);
    }
  }
}

void Supervisor::declare_failure(int rank, FailureKind kind, int signal, int exit_code) {
  if (failure_.has_value()) {
    return;  // only the first failure is reported; later deaths are fallout
  }
  const SlotSnap snap = read_slot(rank);
  const shmlayout::RankSlot* slot = layout_.slot(seg_.data(), rank);

  RankFailureReport report;
  report.rank = rank;
  report.kind = kind;
  report.signal = signal;
  report.exit_code = exit_code;
  report.last_heartbeat_ns = slot->heartbeat_ns.load(std::memory_order_relaxed);
  report.detected_ns = common::now_ns();
  report.site.assign(snap.site, strnlen(snap.site, sizeof(snap.site)));
  report.inflight_total = snap.inflight_count;
  const std::size_t table =
      std::min<std::size_t>(snap.inflight_count, shmlayout::kMaxInflight);
  for (std::size_t i = 0; i < table; ++i) {
    InflightOp op;
    op.is_send = snap.inflight[i].kind == 0;
    op.peer = snap.inflight[i].peer;
    op.tag = snap.inflight[i].tag;
    report.inflight.push_back(op);
  }

  // Persist into the segment *before* the poison release-store: survivors
  // (and post-mortem tooling) read it only after observing the poison.
  shmlayout::ShmFailureArea* area = layout_.failure(seg_.data());
  area->rank = rank;
  area->kind = static_cast<std::int32_t>(kind);
  area->signal = signal;
  area->exit_code = exit_code;
  area->last_heartbeat_ns = report.last_heartbeat_ns;
  area->detected_ns = report.detected_ns;
  std::memcpy(area->site, snap.site, sizeof(area->site));
  area->inflight_count = snap.inflight_count;
  std::memcpy(area->inflight, snap.inflight, sizeof(area->inflight));

  shmlayout::SegHeader* header = layout_.header(seg_.data());
  header->failed_rank.store(rank, std::memory_order_relaxed);
  header->poison.store(shmlayout::Poison::kRankFailure, std::memory_order_release);
  poisoned_at_ns_ = common::now_ns();

  // A rank_kill fault fired in the (now dead) child lives only in its slot
  // handshake: import it into the parent's ledger as surfaced-by-report, so
  // sweep accounting holds across the process boundary.
  if (slot->kill_fired.load(std::memory_order_acquire) != 0) {
    faultsim::FiredFault entry;
    entry.site = faultsim::Site::kRankKill;
    entry.action = static_cast<faultsim::Action>(slot->kill_action);
    entry.where.rank = rank;
    entry.surfaced = faultsim::Channel::kFailureReport;
    faultsim::Injector::instance().import_fired({entry});
  }

  failure_ = report;
  obs::count("mpisim.proc.rank_failures");
  obs::emit_diagnostic(obs::Diagnostic{"mpisim.rank_failure", obs::Severity::kError, rank,
                                       report.to_string(), 0});
}

void Supervisor::check_heartbeats() {
  // Staleness threshold: generous multiple of the stamping interval, so a
  // descheduled-but-alive rank is never misdeclared on a loaded host.
  const std::uint64_t stale_ns = std::max<std::uint64_t>(
      8 * ms_to_ns(shmlayout::kHeartbeatInterval), ms_to_ns(std::chrono::milliseconds(250)));
  const std::uint64_t now = common::now_ns();
  for (int r = 0; r < options_.world_size; ++r) {
    Child& child = children_[static_cast<std::size_t>(r)];
    if (child.reaped || child.hb_kill_sent) {
      continue;
    }
    const shmlayout::RankSlot* slot = layout_.slot(seg_.data(), r);
    const auto state = slot->state.load(std::memory_order_acquire);
    if (state == shmlayout::RankState::kExited || state == shmlayout::RankState::kAppError) {
      continue;  // between finalize and _exit; reap will get it
    }
    const std::uint64_t beat = slot->heartbeat_ns.load(std::memory_order_relaxed);
    if (now > beat && now - beat >= stale_ns) {
      // Wedged (or livelocked) rank: kill it; classification on reap maps
      // our SIGKILL to FailureKind::kHeartbeatTimeout.
      child.hb_kill_sent = true;
      ::kill(child.pid, SIGKILL);
    }
  }
}

void Supervisor::check_deadlock() {
  // Each rank's shm slot is its row of the blocked-rank table.
  std::vector<shmlayout::ShmBlockedOp> rows(static_cast<std::size_t>(options_.world_size));
  for (int r = 0; r < options_.world_size; ++r) {
    const auto state = layout_.slot(seg_.data(), r)->state.load(std::memory_order_acquire);
    const shmlayout::ShmBlockedOp& row = rows[static_cast<std::size_t>(r)] = read_slot(r).blocked;
    waits_[static_cast<std::size_t>(r)] =
        children_[static_cast<std::size_t>(r)].reaped ||
                state == shmlayout::RankState::kExited ||
                state == shmlayout::RankState::kAppError
            ? RankWait::kExited
        : row.active != 0 ? RankWait::kBlocked
        : row.soft != 0   ? RankWait::kSoftBlocked
                          : RankWait::kRunning;
  }
  shmlayout::SegHeader* header = layout_.header(seg_.data());
  if (!rule_.holds(header->progress.load(std::memory_order_relaxed), waits_, common::now_ns())) {
    return;
  }
  std::vector<BlockedOp> blocked;
  for (int r = 0; r < options_.world_size; ++r) {
    const RankWait wait = waits_[static_cast<std::size_t>(r)];
    if (wait == RankWait::kBlocked || wait == RankWait::kSoftBlocked) {
      const shmlayout::ShmBlockedOp& row = rows[static_cast<std::size_t>(r)];
      blocked.push_back(BlockedOp{r, std::string(row.op, strnlen(row.op, sizeof(row.op))),
                                  row.peer, row.tag, row.comm_id,
                                  wait == RankWait::kSoftBlocked});
    }
  }
  deadlock_ = declare_deadlock(options_.world_size, std::move(blocked));

  // Write the report area in full, then poison (release). Blocked ranks
  // poll the poison word and return kDeadlock.
  shmlayout::ShmDeadlockArea* area = layout_.deadlock(seg_.data());
  area->count = static_cast<std::uint32_t>(
      std::min<std::size_t>(deadlock_.blocked.size(), shmlayout::kMaxDeadlockEntries));
  for (std::uint32_t i = 0; i < area->count; ++i) {
    const BlockedOp& op = deadlock_.blocked[i];
    shmlayout::ShmDeadlockEntry& entry = area->entries[i];
    entry.rank = op.rank;
    entry.peer = op.peer;
    entry.tag = op.tag;
    entry.comm_id = op.comm_id;
    entry.soft = op.soft ? 1 : 0;
    std::strncpy(entry.op, op.op.c_str(), sizeof(entry.op) - 1);
  }
  header->poison.store(shmlayout::Poison::kDeadlock, std::memory_order_release);
  poisoned_at_ns_ = common::now_ns();
}

void Supervisor::backstop_after_poison() {
  // Survivors observe the poison in their next blocked poll and unwind on
  // their own. If one is stuck outside the transport (user code looping),
  // the backstop guarantees supervisor termination regardless.
  const std::uint64_t grace =
      ms_to_ns(kBackstopGrace) +
      (options_.watchdog.count() > 0 ? 2 * ms_to_ns(options_.watchdog) : 0);
  if (common::now_ns() - poisoned_at_ns_ < grace) {
    return;
  }
  for (Child& child : children_) {
    if (!child.reaped && !child.backstop_kill) {
      child.backstop_kill = true;
      ::kill(child.pid, SIGKILL);
      obs::count("mpisim.proc.backstop_kills");
    }
  }
}

Supervisor::SlotSnap Supervisor::read_slot(int rank) const {
  const shmlayout::RankSlot* slot = layout_.slot(seg_.data(), rank);
  SlotSnap snap;
  for (int attempt = 0; attempt < 16; ++attempt) {
    const std::uint64_t v1 = slot->ver.load(std::memory_order_acquire);
    if ((v1 & 1) != 0) {
      std::this_thread::yield();
      continue;
    }
    snap.blocked = slot->blocked;
    std::memcpy(snap.site, slot->site, sizeof(snap.site));
    snap.inflight_count = slot->inflight_count;
    std::memcpy(snap.inflight, slot->inflight, sizeof(snap.inflight));
    std::memcpy(snap.error_msg, slot->error_msg, sizeof(snap.error_msg));
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot->ver.load(std::memory_order_relaxed) == v1) {
      return snap;
    }
  }
  // A rank killed mid-write leaves ver odd forever: accept the (possibly
  // torn) last copy — it only feeds diagnostics, never matching decisions.
  snap.blocked = slot->blocked;
  std::memcpy(snap.site, slot->site, sizeof(snap.site));
  snap.inflight_count = slot->inflight_count;
  std::memcpy(snap.inflight, slot->inflight, sizeof(snap.inflight));
  std::memcpy(snap.error_msg, slot->error_msg, sizeof(snap.error_msg));
  return snap;
}

void Supervisor::collect_results() {
  for (int r = 0; r < options_.world_size; ++r) {
    const shmlayout::RankSlot* slot = layout_.slot(seg_.data(), r);
    const std::uint64_t bytes = slot->result_bytes.load(std::memory_order_acquire);
    if (bytes == 0) {
      continue;
    }
    const std::string name = seg_.name() + ".res." + std::to_string(r);
    std::string error;
    shm::Segment seg = shm::Segment::open(name, &error);
    if (seg.valid() && seg.size() >= bytes) {
      const auto* data = static_cast<const std::byte*>(seg.data());
      results_[static_cast<std::size_t>(r)].assign(data, data + bytes);
    }
    if (seg.valid()) {
      seg.unlink();
    }
  }
}

void Supervisor::teardown() {
  if (!seg_.valid()) {
    return;
  }
  // Sweep every auxiliary segment of this world (rendezvous segments of
  // killed ranks, result segments a crash left behind): they all share the
  // world name as prefix. Zero leaked names is a CI-checked invariant
  // (tools/shm_gc --check).
  const std::string prefix = seg_.name().substr(1) + ".";  // /dev/shm names: no '/'
  if (DIR* dir = ::opendir("/dev/shm")) {
    std::vector<std::string> doomed;
    while (const dirent* entry = ::readdir(dir)) {
      if (std::strncmp(entry->d_name, prefix.c_str(), prefix.size()) == 0) {
        doomed.emplace_back(entry->d_name);
      }
    }
    ::closedir(dir);
    for (const std::string& name : doomed) {
      ::shm_unlink(("/" + name).c_str());
    }
  }
  seg_.unlink();
  seg_.reset();
}

}  // namespace mpisim
