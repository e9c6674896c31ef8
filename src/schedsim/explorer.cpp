#include "schedsim/explorer.hpp"

#include <algorithm>
#include <deque>
#include <set>
#include <unordered_set>
#include <utility>

#include "common/clock.hpp"
#include "common/format.hpp"
#include "obs/metrics.hpp"
#include "schedsim/controller.hpp"

namespace schedsim {

Explorer::Explorer(ExplorerOptions options) : options_(options) {
  if (options_.bound == 0) {
    options_.bound = ExplorerOptions::kDefaultBound;
  }
}

std::string Explorer::signature(const std::vector<TraceEntry>& entries) {
  std::vector<const TraceEntry*> sorted;
  sorted.reserve(entries.size());
  for (const TraceEntry& e : entries) {
    sorted.push_back(&e);
  }
  std::stable_sort(sorted.begin(), sorted.end(), [](const TraceEntry* a, const TraceEntry* b) {
    const std::uint64_t ka = stream_key(a->rank, a->site);
    const std::uint64_t kb = stream_key(b->rank, b->site);
    return ka != kb ? ka < kb : a->seq < b->seq;
  });
  std::string out;
  out.reserve(sorted.size() * 12);
  for (const TraceEntry* e : sorted) {
    out += common::format("{}.{}={};", stream_key(e->rank, e->site), e->seq, e->chosen);
  }
  return out;
}

std::vector<Execution> Explorer::explore(Controller& controller, const RunFn& run) {
  stats_ = {};
  std::vector<Execution> executions;
  std::deque<std::vector<TraceEntry>> frontier;  ///< FIFO: breadth-first in flip depth
  std::unordered_set<std::string> sleep;         ///< prefixes already scheduled
  std::unordered_set<std::string> seen;          ///< full-run signatures executed
  frontier.push_back({});
  sleep.insert(signature({}));

  while (!frontier.empty()) {
    if (executions.size() >= options_.bound) {
      stats_.bound_hit = true;
      break;
    }
    std::vector<TraceEntry> prefix = std::move(frontier.front());
    frontier.pop_front();

    controller.configure_prefix(prefix);
    const std::uint64_t t0 = common::now_ns();
    const std::size_t races = run();
    const std::uint64_t t1 = common::now_ns();

    Execution exec;
    exec.index = executions.size();
    exec.pinned = prefix.size();
    exec.log = controller.log();
    exec.log.strategy = common::format("dpor execution {}", exec.index);
    exec.races = races;
    exec.diverged = controller.divergence().has_value();
    exec.wall_ms = static_cast<double>(t1 - t0) / 1e6;
    const std::vector<TraceEntry>& trace = exec.log.decisions;
    stats_.graph_nodes += trace.size();

    ++stats_.executions;
    if (!seen.insert(signature(trace)).second) {
      ++stats_.redundant;
    }

    // Backtrack points: every alternative of every branchable, un-pinned
    // decision extends the frontier.
    std::set<std::pair<std::uint64_t, std::uint64_t>> pinned;
    for (const TraceEntry& e : prefix) {
      pinned.emplace(stream_key(e.rank, e.site), e.seq);
    }
    std::set<std::pair<std::uint64_t, std::uint64_t>> recorded;  ///< trace[0..i]
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const TraceEntry& e = trace[i];
      const std::uint64_t stream = stream_key(e.rank, e.site);
      recorded.emplace(stream, e.seq);
      if (e.candidates <= 1 || pinned.contains({stream, e.seq})) {
        continue;
      }
      for (int alt = 0; alt < e.candidates; ++alt) {
        if (alt == e.chosen) {
          continue;
        }
        std::vector<TraceEntry> next(trace.begin(),
                                     trace.begin() + static_cast<std::ptrdiff_t>(i) + 1);
        next.back().chosen = alt;
        // The prefix's own pins recorded after position i (or never reached)
        // stay pinned: dropped, they would fall back to free choices and the
        // child could re-run a schedule another branch already covers, which
        // depends on the order the ranks' decisions happened to arrive in.
        for (const TraceEntry& p : prefix) {
          if (!recorded.contains({stream_key(p.rank, p.site), p.seq})) {
            next.push_back(p);
          }
        }
        if (!sleep.insert(signature(next)).second) {
          ++stats_.sleep_prunes;
          continue;
        }
        ++stats_.backtrack_points;
        frontier.push_back(std::move(next));
      }
    }
    executions.push_back(std::move(exec));
  }
  controller.clear();
  return executions;
}

void Explorer::publish_metrics() const {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  registry.add("sched.dpor_executions", stats_.executions);
  registry.add("sched.dpor_backtracks", stats_.backtrack_points);
  registry.add("sched.dpor_sleep_prunes", stats_.sleep_prunes);
  registry.add("sched.dpor_redundant", stats_.redundant);
  registry.add("sched.dpor_graph_nodes", stats_.graph_nodes);
}

}  // namespace schedsim
