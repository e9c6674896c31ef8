#include "obs/ring.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>

#include "common/clock.hpp"

namespace obs {

std::atomic<bool> g_tracing_enabled{false};

namespace {

std::atomic<EventRing*> g_rings[kMaxRings]{};
std::mutex g_ring_mutex;

// Virtual clock for deterministic exporter tests.
std::atomic<bool> g_virtual_clock{false};
std::atomic<std::uint64_t> g_virtual_next{0};
std::atomic<std::uint64_t> g_virtual_step{0};

thread_local int t_bound_rank = -1;

/// rank -1 (unattributed) maps to index 0; ranks beyond the table clamp
/// into the unattributed ring rather than dropping events.
int ring_index(int rank) {
  const int index = rank + 1;
  return index >= 1 && index < kMaxRings ? index : 0;
}

void copy_name(char (&dst)[42], const char* src) {
  if (src == nullptr) {
    dst[0] = '\0';
    return;
  }
  std::strncpy(dst, src, sizeof(dst) - 1);
  dst[sizeof(dst) - 1] = '\0';
}

}  // namespace

EventRing::EventRing(std::size_t capacity) : slots_(capacity > 0 ? capacity : 1) {}

void EventRing::emit(const Event& event) {
  const std::uint64_t n = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[n % slots_.size()];
  slot.seq.store(2 * n + 1, std::memory_order_relaxed);
  slot.event = event;
  slot.seq.store(2 * (n + 1), std::memory_order_release);
}

std::uint64_t EventRing::total() const { return next_.load(std::memory_order_relaxed); }

std::uint64_t EventRing::dropped() const {
  const std::uint64_t n = total();
  return n > slots_.size() ? n - slots_.size() : 0;
}

std::vector<Event> EventRing::snapshot(std::uint64_t from) const {
  const std::uint64_t end = next_.load(std::memory_order_acquire);
  const std::uint64_t begin = std::max(from, end > slots_.size() ? end - slots_.size() : 0);
  if (begin >= end) {
    return {};
  }
  std::vector<Event> out;
  out.reserve(static_cast<std::size_t>(end - begin));
  for (std::uint64_t n = begin; n < end; ++n) {
    const Slot& slot = slots_[n % slots_.size()];
    if (slot.seq.load(std::memory_order_acquire) != 2 * (n + 1)) {
      continue;  // torn or already overwritten by a racing writer
    }
    Event copy = slot.event;
    if (slot.seq.load(std::memory_order_acquire) != 2 * (n + 1)) {
      continue;
    }
    out.push_back(copy);
  }
  return out;
}

void set_tracing_enabled(bool enabled) {
  g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

EventRing& ring_for_rank(int rank) {
  const int index = ring_index(rank);
  EventRing* ring = g_rings[index].load(std::memory_order_acquire);
  if (ring != nullptr) {
    return *ring;
  }
  std::lock_guard<std::mutex> lock(g_ring_mutex);
  ring = g_rings[index].load(std::memory_order_relaxed);
  if (ring == nullptr) {
    ring = new EventRing();
    g_rings[index].store(ring, std::memory_order_release);
  }
  return *ring;
}

std::vector<int> active_ring_ranks() {
  std::vector<int> ranks;
  for (int index = 0; index < kMaxRings; ++index) {
    EventRing* ring = g_rings[index].load(std::memory_order_acquire);
    if (ring != nullptr && ring->total() > 0) {
      ranks.push_back(index - 1);
    }
  }
  return ranks;
}

void reset_rings() {
  std::lock_guard<std::mutex> lock(g_ring_mutex);
  for (auto& slot : g_rings) {
    delete slot.exchange(nullptr, std::memory_order_acq_rel);
  }
}

RingMarks ring_marks() {
  RingMarks marks{};
  for (int index = 0; index < kMaxRings; ++index) {
    const EventRing* ring = g_rings[index].load(std::memory_order_acquire);
    marks[static_cast<std::size_t>(index)] = ring != nullptr ? ring->total() : 0;
  }
  return marks;
}

std::vector<Event> events_since(const RingMarks& marks) {
  std::vector<Event> out;
  for (int index = 0; index < kMaxRings; ++index) {
    const EventRing* ring = g_rings[index].load(std::memory_order_acquire);
    if (ring != nullptr) {
      const std::vector<Event> events = ring->snapshot(marks[static_cast<std::size_t>(index)]);
      out.insert(out.end(), events.begin(), events.end());
    }
  }
  return out;
}

void bind_rank(int rank) { t_bound_rank = rank; }

int bound_rank() { return t_bound_rank; }

std::uint64_t trace_now_ns() {
  if (g_virtual_clock.load(std::memory_order_relaxed)) {
    return g_virtual_next.fetch_add(g_virtual_step.load(std::memory_order_relaxed),
                                    std::memory_order_relaxed);
  }
  return common::now_ns();
}

void use_virtual_clock(std::uint64_t start_ns, std::uint64_t step_ns) {
  g_virtual_next.store(start_ns, std::memory_order_relaxed);
  g_virtual_step.store(step_ns, std::memory_order_relaxed);
  g_virtual_clock.store(true, std::memory_order_relaxed);
}

void use_wall_clock() { g_virtual_clock.store(false, std::memory_order_relaxed); }

void emit_instant(EventKind kind, std::uint32_t track, const char* name, std::uint64_t arg) {
  if (!tracing_enabled()) {
    return;
  }
  emit_instant(t_bound_rank, kind, track, name, arg);
}

void emit_instant(int rank, EventKind kind, std::uint32_t track, const char* name,
                  std::uint64_t arg) {
  if (!tracing_enabled()) {
    return;
  }
  Event event;
  event.ts_ns = trace_now_ns();
  event.dur_ns = 0;
  event.arg = arg;
  event.rank = rank;
  event.track = track;
  event.kind = kind;
  copy_name(event.name, name);
  ring_for_rank(rank).emit(event);
}

void emit_event(const Event& event) {
  if (!tracing_enabled()) {
    return;
  }
  ring_for_rank(event.rank).emit(event);
}

Span::Span(EventKind kind, std::uint32_t track, const char* name, std::uint64_t arg)
    : Span(t_bound_rank, kind, track, name, arg) {}

Span::Span(int rank, EventKind kind, std::uint32_t track, const char* name, std::uint64_t arg) {
  if (!tracing_enabled()) {
    return;
  }
  active_ = true;
  event_.ts_ns = trace_now_ns();
  event_.arg = arg;
  event_.rank = rank;
  event_.track = track;
  event_.kind = kind;
  copy_name(event_.name, name);
}

Span::~Span() {
  if (!active_) {
    return;
  }
  const std::uint64_t end = trace_now_ns();
  event_.dur_ns = end > event_.ts_ns ? end - event_.ts_ns : 1;
  ring_for_rank(event_.rank).emit(event_);
}

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kKernel:
      return "kernel";
    case EventKind::kMemcpy:
      return "memcpy";
    case EventKind::kMemset:
      return "memset";
    case EventKind::kPrefetch:
      return "prefetch";
    case EventKind::kHostFunc:
      return "host_func";
    case EventKind::kSync:
      return "sync";
    case EventKind::kStreamOp:
      return "stream";
    case EventKind::kEventOp:
      return "event";
    case EventKind::kAlloc:
      return "alloc";
    case EventKind::kMpi:
      return "mpi";
    case EventKind::kRequest:
      return "request";
    case EventKind::kDiagnostic:
      return "diagnostic";
    case EventKind::kTrace:
      return "trace";
    case EventKind::kSchedule:
      return "schedule";
  }
  return "unknown";
}

}  // namespace obs
