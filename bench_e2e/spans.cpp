#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "common/clock.hpp"

namespace bench_e2e {
namespace {

constexpr std::size_t kMaxDepth = 64;

// In Layer order.
constexpr const char* kLayerNames[kLayerCount] = {
    "session",    "rank",        "capi.cuda", "capi.mpi",   "cusim",
    "mpisim",     "cusan",       "must",      "rsan.range", "rsan.proven",
    "rsan.sync",  "rsan.fiber",  "typeart",   "kir",        "schedsim.explore",
    "schedsim.run",
};

struct Frame {
  std::uint64_t start_ns{0};
  std::uint64_t child_ns{0};
  Layer layer{Layer::kSession};
};

struct TraceEvent {
  std::uint64_t start_ns{0};
  std::uint64_t dur_ns{0};
  Layer layer{Layer::kSession};
  std::uint32_t tid{0};
};

/// One thread's spans. Only the owning thread writes; span_totals() reads
/// the counters from other threads, hence the relaxed atomics.
struct ThreadSpans {
  std::array<std::atomic<std::uint64_t>, kLayerCount> calls{};
  std::array<std::atomic<std::uint64_t>, kLayerCount> self_ns{};
  std::array<Frame, kMaxDepth> stack{};
  std::size_t depth{0};
  std::uint32_t tid{0};
  std::vector<TraceEvent> events;
};

struct Registry {
  std::mutex mutex;
  std::vector<ThreadSpans*> live;
  SpanTotals retired{};
  std::vector<TraceEvent> retired_events;
  std::uint32_t next_tid{1};
};

// Leaked on purpose: threads may retire their spans during process exit.
Registry& registry() {
  static Registry* const instance = new Registry();
  return *instance;
}

bool g_enabled = false;
std::atomic<bool> g_capturing{false};
std::atomic<std::int64_t> g_capture_budget{0};
std::uint64_t g_capture_origin_ns = 0;

void bump(std::atomic<std::uint64_t>& counter, std::uint64_t delta) {
  counter.store(counter.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
}

thread_local ThreadSpans* t_spans = nullptr;

/// Folds the thread's spans into the registry when the thread exits.
struct ThreadSlot {
  std::unique_ptr<ThreadSpans> spans;

  ThreadSlot() = default;
  ThreadSlot(const ThreadSlot&) = delete;
  ThreadSlot& operator=(const ThreadSlot&) = delete;
  ~ThreadSlot() {
    if (spans == nullptr) {
      return;
    }
    Registry& r = registry();
    const std::lock_guard lock(r.mutex);
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      r.retired[i].calls += spans->calls[i].load(std::memory_order_relaxed);
      r.retired[i].self_ns += spans->self_ns[i].load(std::memory_order_relaxed);
    }
    r.retired_events.insert(r.retired_events.end(), spans->events.begin(), spans->events.end());
    std::erase(r.live, spans.get());
    t_spans = nullptr;
  }
};

thread_local ThreadSlot t_slot;

ThreadSpans& thread_spans() {
  if (t_spans == nullptr) {
    auto spans = std::make_unique<ThreadSpans>();
    Registry& r = registry();
    {
      const std::lock_guard lock(r.mutex);
      spans->tid = r.next_tid++;
      r.live.push_back(spans.get());
    }
    t_spans = spans.get();
    t_slot.spans = std::move(spans);
  }
  return *t_spans;
}

}  // namespace

const char* layer_name(Layer layer) { return kLayerNames[static_cast<std::size_t>(layer)]; }

void enable_spans() { g_enabled = true; }

Span::Span(Layer layer) : active_(g_enabled) {
  if (!active_) {
    return;
  }
  ThreadSpans& spans = thread_spans();
  if (spans.depth == kMaxDepth) {
    active_ = false;
    return;
  }
  spans.stack[spans.depth++] = Frame{common::now_ns(), 0, layer};
}

Span::~Span() {
  if (!active_) {
    return;
  }
  const std::uint64_t end_ns = common::now_ns();
  ThreadSpans& spans = *t_spans;
  const Frame frame = spans.stack[--spans.depth];
  const std::uint64_t dur_ns = end_ns - frame.start_ns;
  const auto index = static_cast<std::size_t>(frame.layer);
  bump(spans.calls[index], 1);
  bump(spans.self_ns[index], dur_ns > frame.child_ns ? dur_ns - frame.child_ns : 0);
  if (spans.depth > 0) {
    spans.stack[spans.depth - 1].child_ns += dur_ns;
  }
  if (g_capturing.load(std::memory_order_relaxed) && frame.start_ns >= g_capture_origin_ns &&
      g_capture_budget.fetch_sub(1, std::memory_order_relaxed) > 0) {
    spans.events.push_back(TraceEvent{frame.start_ns, dur_ns, frame.layer, spans.tid});
  }
}

SpanTotals span_totals() {
  Registry& r = registry();
  const std::lock_guard lock(r.mutex);
  SpanTotals totals = r.retired;
  for (const ThreadSpans* spans : r.live) {
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      totals[i].calls += spans->calls[i].load(std::memory_order_relaxed);
      totals[i].self_ns += spans->self_ns[i].load(std::memory_order_relaxed);
    }
  }
  return totals;
}

void start_capture(std::size_t max_events) {
  g_capture_origin_ns = common::now_ns();
  g_capture_budget.store(static_cast<std::int64_t>(max_events), std::memory_order_relaxed);
  g_capturing.store(true, std::memory_order_release);
}

std::string stop_capture(const std::string& process_name) {
  g_capturing.store(false, std::memory_order_release);
  // Callers stop the capture between units, when no thread has a span open.
  std::vector<TraceEvent> events;
  {
    Registry& r = registry();
    const std::lock_guard lock(r.mutex);
    events.swap(r.retired_events);
    for (ThreadSpans* spans : r.live) {
      events.insert(events.end(), spans->events.begin(), spans->events.end());
      spans->events.clear();
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) { return a.start_ns < b.start_ns; });
  std::set<std::uint32_t> tids;
  for (const TraceEvent& event : events) {
    tids.insert(event.tid);
  }
  std::string out = "{\"traceEvents\":[\n";
  out += R"(  {"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":")" + process_name +
         "\"}}";
  char line[256];
  for (const std::uint32_t tid : tids) {
    std::snprintf(line, sizeof(line),
                  ",\n  {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"name\":\"thread %u\"}}",
                  tid, tid);
    out += line;
  }
  for (const TraceEvent& event : events) {
    std::snprintf(line, sizeof(line),
                  ",\n  {\"name\":\"%s\",\"cat\":\"trace\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%u}",
                  layer_name(event.layer),
                  static_cast<double>(event.start_ns - g_capture_origin_ns) / 1e3,
                  static_cast<double>(event.dur_ns) / 1e3, event.tid);
    out += line;
  }
  out += "\n],\"displayTimeUnit\":\"ns\"}\n";
  return out;
}

}  // namespace bench_e2e
