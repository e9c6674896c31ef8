// The execution graph: a serializable happens-before skeleton of one checked
// run, and the one schedule artifact of the exploration engine. Nodes are
// every Controller decision plus the sync operations rsan's vector clocks are
// built from (stream sync, p2p match, collective join, all funnelled through
// rsan's happens_before / happens_after annotations). Edges are program order
// within a rank's lane (every decision site and every rsan sync event runs
// on the rank's host thread: the analysis runtime runs at API-interception
// time) and release->acquire order on a sync key. Together they induce the
// same partial order rsan's clocks compute.
//
// The decision nodes are the replay record: `record:<path>` writes the
// graph, `replay:<path>` answers every query from its (rank, site) stream of
// the graph's decision nodes, and the DPOR explorer (explorer.hpp) flips
// them run over run, so a CI failure ships one file that both reproduces the
// run and records its happens-before order:
//
//   # cusan-execution-graph v1
//   # strategy <controller strategy string>
//   n <id> d <actor> <site> <seq> <candidates> <chosen>   decision node
//   n <id> r <actor> <ctx> <key>                          release (happens_before)
//   n <id> a <actor> <ctx> <key>                          acquire (happens_after)
//   e <from> <to> po|sync
//
// `<actor>` is `<rank>:h`, the rank's host/MPI thread: every decision site
// runs there. `<seq>` is the (rank, site) stream's own decision counter:
// replay matches each stream against its own recording, so neither
// the physical interleaving of nodes (OS thread timing at record time) nor a
// timing-dependent skip of one site can shift another site's decisions.
//
// Recording is gated exactly like the controller: disarmed, every rsan sync
// annotation costs one relaxed atomic load (the bench guard budget), armed
// it takes the recorder mutex.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_context.hpp"

namespace schedsim {

/// A nondeterministic choice point routed through the ScheduleController.
enum class Site : std::uint8_t {
  kMatchRecv,     ///< mpisim ANY_SOURCE recv: which source channel matches
  kWaitany,       ///< MPI_Waitany: which completed request is returned
  kWaitallOrder,  ///< MPI_Waitall: request completion/fiber-join order
};

[[nodiscard]] const char* to_string(Site site);
/// Inverse of to_string; false if `name` is not a known site.
[[nodiscard]] bool site_from_string(const std::string& name, Site* out);

/// One decision, as the controller replays it and the explorer flips it.
struct TraceEntry {
  int rank{-1};          ///< the deciding rank's host thread; -1 is unattributed
  std::uint64_t seq{0};  ///< (rank, site)-stream-local decision index
  Site site{Site::kMatchRecv};
  int candidates{1};
  int chosen{0};
};

/// Key of the (rank, site) decision stream an entry belongs to: rank + 1
/// above the site index, which fits in the low 3 bits.
[[nodiscard]] inline std::uint64_t stream_key(int rank, Site site) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank + 1)) << 3) |
         static_cast<std::uint64_t>(site);
}

enum class NodeKind : std::uint8_t {
  kDecision,  ///< one Controller::choose() answer
  kRelease,   ///< rsan happens_before(key)
  kAcquire,   ///< rsan happens_after(key)
};

struct GraphNode {
  std::uint32_t id{0};
  NodeKind kind{NodeKind::kDecision};
  /// Lane the node executes on: the rank's host thread (-1 unattributed).
  int rank{-1};
  // Decision payload (kDecision).
  Site site{Site::kMatchRecv};
  std::uint64_t seq{0};  ///< (rank, site) decision-stream index
  int candidates{1};
  int chosen{0};
  // Sync payload (kRelease / kAcquire).
  std::uint32_t ctx{0};   ///< rsan context (fiber) id performing the sync
  std::uint64_t key{0};   ///< sync-object key (address at record time)
};

struct GraphEdge {
  enum class Kind : std::uint8_t {
    kProgram,  ///< same-lane successor
    kSync,     ///< release -> acquire on the same key
  };
  std::uint32_t from{0};
  std::uint32_t to{0};
  Kind kind{Kind::kProgram};
};

struct ExecutionGraph {
  std::string strategy;  ///< controller strategy string, informational
  std::vector<GraphNode> nodes;
  std::vector<GraphEdge> edges;

  [[nodiscard]] bool empty() const { return nodes.empty(); }
};

/// Serialize to the v1 text format.
[[nodiscard]] std::string serialize_graph(const ExecutionGraph& graph);

/// Parse the v1 text format. False (with *error set, if given) on bad magic,
/// unknown node/edge kind or site, duplicate node id, malformed or trailing
/// fields, an actor other than `<rank>:h`, a decision with candidates < 1 or
/// chosen outside [0, candidates), or a (rank, site) stream whose seqs do
/// not run 0, 1, 2, ... in document order: replay identifies decisions by
/// their stream position, so a gap or repeat makes the whole document
/// meaningless.
[[nodiscard]] bool parse_graph(const std::string& text, ExecutionGraph* out,
                               std::string* error = nullptr);

/// The graph's decision nodes in node order: what replay pins and the
/// explorer flips.
[[nodiscard]] std::vector<TraceEntry> decision_entries(const ExecutionGraph& graph);

/// Schema validation beyond parsing (trace_lint --graph): every edge
/// endpoint names an existing node (dangling check), no sync edge targets a
/// non-acquire node, and the edge relation is acyclic (Kahn toposort — the
/// recorder only ever emits forward edges, so a cycle means tampering).
[[nodiscard]] bool validate_graph(const ExecutionGraph& graph, std::string* error = nullptr);

class GraphRecorder;

namespace detail {
/// Mirror of the *global* recorder's armed state for unbound threads.
extern constinit std::atomic<bool> g_graph_armed;
[[nodiscard]] const std::atomic<bool>& graph_armed_flag_of(const GraphRecorder& recorder);
}  // namespace detail

/// Incremental execution-graph builder, session-scoped exactly like the
/// Controller (common::ThreadContext), and the one decision log: the
/// controller appends every decision from choose() inside its own critical
/// section (lock order controller, then recorder; the recorder never calls
/// the controller); rsan feeds it sync events from its annotation entry
/// points. Both gate on enabled() first, so the disarmed cost is one
/// relaxed load.
class GraphRecorder {
 public:
  /// Hard cap on recorded nodes: a runaway run stops growing the graph
  /// instead of exhausting memory. Only sync nodes are dropped past it —
  /// decision nodes are the replay record, so they are always kept.
  static constexpr std::size_t kMaxRecordedNodes = 1u << 18;

  GraphRecorder() = default;
  GraphRecorder(const GraphRecorder&) = delete;
  GraphRecorder& operator=(const GraphRecorder&) = delete;

  /// The calling thread's current recorder: its svc::Session's, else the
  /// process-global recorder.
  [[nodiscard]] static GraphRecorder& instance();
  [[nodiscard]] static GraphRecorder& global();

  /// The zero-overhead gate rsan and the controller check before recording.
  [[nodiscard]] static bool enabled() {
    const GraphRecorder* current = common::ThreadContext::current().recorder;
    return current != nullptr
               ? detail::graph_armed_flag_of(*current).load(std::memory_order_relaxed)
               : detail::g_graph_armed.load(std::memory_order_relaxed);
  }

  void arm(bool on);
  /// Drop the previous run's graph and lane state (explorer: per execution;
  /// capi: at session begin).
  void begin_run();

  void record_decision(int rank, Site site, std::uint64_t seq, int candidates, int chosen);
  void record_release(int rank, std::uint32_t ctx, const void* key);
  void record_acquire(int rank, std::uint32_t ctx, const void* key);
  /// rsan::release_sync_object: the key's address may be reused by a future
  /// unrelated sync object, so retire its pending release nodes.
  void record_key_retire(const void* key);

  /// Proc backend: append a forked rank's graph (serialized by the child,
  /// which started from an empty graph at the fork), offsetting its node
  /// ids past the nodes already here. The parent absorbs its ranks in rank
  /// order. False, appending nothing, on a malformed document.
  bool absorb(const std::string& text, std::string* error = nullptr);

  void set_strategy(std::string strategy);
  [[nodiscard]] ExecutionGraph snapshot() const;
  /// snapshot(), then drop the graph.
  [[nodiscard]] ExecutionGraph take_graph();
  [[nodiscard]] std::size_t node_count() const;

 private:
  friend const std::atomic<bool>& detail::graph_armed_flag_of(const GraphRecorder& recorder);
  /// Appends the node, adding the program-order edge from its lane's
  /// previous node. Returns the new node's id.
  std::uint32_t append_node_locked(GraphNode node);

  mutable std::mutex mutex_;
  std::atomic<bool> armed_{false};
  ExecutionGraph graph_;
  std::unordered_map<int, std::uint32_t> lane_last_;                ///< rank -> node id + 1
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> releases_;  ///< sync key -> nodes
};

namespace detail {
inline const std::atomic<bool>& graph_armed_flag_of(const GraphRecorder& recorder) {
  return recorder.armed_;
}
}  // namespace detail

}  // namespace schedsim
