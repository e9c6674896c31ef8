#include "schedsim/execution_graph.hpp"

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <sstream>
#include <utility>

#include "common/format.hpp"

namespace schedsim {

namespace {

constexpr const char* kMagic = "# cusan-execution-graph v1";

/// Decision seqs addressable by the analysis index. Streams longer than this
/// fall back to "racing" (conservative).
constexpr std::uint64_t kSeqBits = 13;

[[nodiscard]] char kind_char(NodeKind kind) {
  switch (kind) {
    case NodeKind::kDecision:
      return 'd';
    case NodeKind::kRelease:
      return 'r';
    case NodeKind::kAcquire:
      return 'a';
  }
  return '?';
}

[[nodiscard]] bool reject(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}

[[nodiscard]] bool fail(std::string* error, std::size_t line_no, const std::string& message) {
  return reject(error, common::format("line {}: {}", line_no, message));
}

/// Parse `<rank>:h[<local>]` (e.g. `0:h`, `-1:h`).
[[nodiscard]] bool parse_actor_token(const std::string& token, ActorId* out) {
  const std::size_t colon = token.find(':');
  if (colon == std::string::npos || colon + 1 >= token.size()) {
    return false;
  }
  char* end = nullptr;
  const long rank = std::strtol(token.c_str(), &end, 10);
  if (end != token.c_str() + colon) {
    return false;
  }
  const char kind = token[colon + 1];
  if (kind != 'h') {
    return false;
  }
  unsigned long local = 0;
  if (colon + 2 < token.size()) {
    local = std::strtoul(token.c_str() + colon + 2, &end, 10);
    if (*end != '\0') {
      return false;
    }
  }
  out->rank = static_cast<int>(rank);
  out->kind = kind;
  out->local = static_cast<std::uint32_t>(local);
  return true;
}

}  // namespace

const char* to_string(Site site) {
  switch (site) {
    case Site::kMatchRecv:
      return "match_recv";
    case Site::kWakeOrder:
      return "wake_order";
    case Site::kWaitany:
      return "waitany";
    case Site::kWaitallOrder:
      return "waitall_order";
  }
  return "unknown";
}

bool site_from_string(const std::string& name, Site* out) {
  static constexpr Site kAll[] = {Site::kMatchRecv, Site::kWakeOrder, Site::kWaitany,
                                  Site::kWaitallOrder};
  for (const Site site : kAll) {
    if (name == to_string(site)) {
      *out = site;
      return true;
    }
  }
  return false;
}

std::string ActorId::to_string() const {
  char buf[48];
  if (local == 0) {
    std::snprintf(buf, sizeof(buf), "%d:%c", rank, kind);
  } else {
    std::snprintf(buf, sizeof(buf), "%d:%c%u", rank, kind, local);
  }
  return buf;
}

std::string serialize_graph(const ExecutionGraph& graph) {
  std::string out = kMagic;
  out += '\n';
  if (!graph.strategy.empty()) {
    out += "# strategy ";
    out += graph.strategy;
    out += '\n';
  }
  for (const GraphNode& n : graph.nodes) {
    switch (n.kind) {
      case NodeKind::kDecision:
        out += common::format("n {} d {} {} {} {} {}\n", n.id, n.actor.to_string(),
                              to_string(n.site), n.seq, n.candidates, n.chosen);
        break;
      case NodeKind::kRelease:
      case NodeKind::kAcquire: {
        char key_hex[24];
        std::snprintf(key_hex, sizeof(key_hex), "%llx",
                      static_cast<unsigned long long>(n.key));
        out += common::format("n {} {} {} {} {}\n", n.id,
                              std::string(1, kind_char(n.kind)), n.actor.to_string(), n.ctx,
                              key_hex);
        break;
      }
    }
  }
  for (const GraphEdge& e : graph.edges) {
    out += common::format("e {} {} {}\n", e.from, e.to,
                          e.kind == GraphEdge::Kind::kProgram ? "po" : "sync");
  }
  return out;
}

bool parse_graph(const std::string& text, ExecutionGraph* out, std::string* error) {
  out->strategy.clear();
  out->nodes.clear();
  out->edges.clear();
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  bool have_magic = false;
  std::unordered_map<std::uint32_t, bool> seen_ids;
  std::unordered_map<std::uint64_t, std::uint64_t> next_seq;  ///< stream_key -> expected seq
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (line.empty()) {
      continue;
    }
    if (!have_magic) {
      if (line != kMagic) {
        return fail(error, line_no, "missing 'cusan-execution-graph v1' header");
      }
      have_magic = true;
      continue;
    }
    if (line.rfind("# strategy ", 0) == 0) {
      out->strategy = line.substr(11);
      continue;
    }
    if (line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "n") {
      GraphNode node;
      std::string kind_token;
      std::string actor_token;
      if (!(fields >> node.id >> kind_token >> actor_token) || kind_token.size() != 1) {
        return fail(error, line_no, "malformed node line");
      }
      if (!parse_actor_token(actor_token, &node.actor)) {
        return fail(error, line_no, common::format("bad actor '{}'", actor_token));
      }
      if (seen_ids.contains(node.id)) {
        return fail(error, line_no, common::format("duplicate node id {}", node.id));
      }
      seen_ids.emplace(node.id, true);
      switch (kind_token[0]) {
        case 'd': {
          node.kind = NodeKind::kDecision;
          std::string site_token;
          long long seq = -1;
          if (!(fields >> site_token >> seq >> node.candidates >> node.chosen) || seq < 0) {
            return fail(error, line_no, "malformed decision node");
          }
          if (!site_from_string(site_token, &node.site)) {
            return fail(error, line_no, common::format("unknown site '{}'", site_token));
          }
          if (node.candidates < 1) {
            return fail(error, line_no, "candidates must be >= 1");
          }
          if (node.chosen < 0 || node.chosen >= node.candidates) {
            return fail(error, line_no, common::format("chosen {} outside [0, {})", node.chosen,
                                                       node.candidates));
          }
          node.seq = static_cast<std::uint64_t>(seq);
          std::uint64_t& expect = next_seq[stream_key(node.actor, node.site)];
          if (node.seq != expect) {
            return fail(error, line_no,
                        common::format("actor {} {} seq {} out of order (expected {})",
                                       node.actor.to_string(), site_token, node.seq, expect));
          }
          ++expect;
          break;
        }
        case 'r':
        case 'a': {
          node.kind = kind_token[0] == 'r' ? NodeKind::kRelease : NodeKind::kAcquire;
          std::string key_hex;
          if (!(fields >> node.ctx >> key_hex) || key_hex.empty()) {
            return fail(error, line_no, "malformed sync node");
          }
          char* end = nullptr;
          node.key = std::strtoull(key_hex.c_str(), &end, 16);
          if (*end != '\0') {
            return fail(error, line_no, common::format("bad sync key '{}'", key_hex));
          }
          break;
        }
        default:
          return fail(error, line_no, common::format("unknown node kind '{}'", kind_token));
      }
      std::string extra;
      if (fields >> extra) {
        return fail(error, line_no, "trailing fields on node line");
      }
      out->nodes.push_back(node);
    } else if (tag == "e") {
      GraphEdge edge;
      std::string kind_token;
      if (!(fields >> edge.from >> edge.to >> kind_token)) {
        return fail(error, line_no, "malformed edge line");
      }
      if (kind_token == "po") {
        edge.kind = GraphEdge::Kind::kProgram;
      } else if (kind_token == "sync") {
        edge.kind = GraphEdge::Kind::kSync;
      } else {
        return fail(error, line_no, common::format("unknown edge kind '{}'", kind_token));
      }
      out->edges.push_back(edge);
    } else {
      return fail(error, line_no, common::format("unknown line tag '{}'", tag));
    }
  }
  if (!have_magic) {
    return fail(error, line_no, "empty document (missing header)");
  }
  return true;
}

std::vector<TraceEntry> decision_entries(const ExecutionGraph& graph) {
  std::vector<TraceEntry> out;
  for (const GraphNode& n : graph.nodes) {
    if (n.kind == NodeKind::kDecision) {
      out.push_back({n.actor, n.seq, n.site, n.candidates, n.chosen});
    }
  }
  return out;
}

bool validate_graph(const ExecutionGraph& graph, std::string* error) {
  std::unordered_map<std::uint32_t, std::size_t> index;
  index.reserve(graph.nodes.size());
  for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
    index.emplace(graph.nodes[i].id, i);
  }
  std::vector<std::size_t> indegree(graph.nodes.size(), 0);
  std::vector<std::vector<std::size_t>> out_edges(graph.nodes.size());
  for (std::size_t i = 0; i < graph.edges.size(); ++i) {
    const GraphEdge& e = graph.edges[i];
    const auto from_it = index.find(e.from);
    const auto to_it = index.find(e.to);
    if (from_it == index.end() || to_it == index.end()) {
      if (error != nullptr) {
        *error = common::format("edge {} ({} -> {}): dangling endpoint", i, e.from, e.to);
      }
      return false;
    }
    if (e.kind == GraphEdge::Kind::kSync) {
      if (graph.nodes[from_it->second].kind != NodeKind::kRelease ||
          graph.nodes[to_it->second].kind != NodeKind::kAcquire) {
        if (error != nullptr) {
          *error = common::format("edge {} ({} -> {}): sync edge must run release -> acquire",
                                  i, e.from, e.to);
        }
        return false;
      }
    }
    out_edges[from_it->second].push_back(to_it->second);
    ++indegree[to_it->second];
  }
  // Kahn toposort: anything left with an in-edge sits on a cycle.
  std::deque<std::size_t> ready;
  for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
    if (indegree[i] == 0) {
      ready.push_back(i);
    }
  }
  std::size_t visited = 0;
  while (!ready.empty()) {
    const std::size_t i = ready.front();
    ready.pop_front();
    ++visited;
    for (const std::size_t j : out_edges[i]) {
      if (--indegree[j] == 0) {
        ready.push_back(j);
      }
    }
  }
  if (visited != graph.nodes.size()) {
    if (error != nullptr) {
      *error = common::format("graph has a cycle ({} of {} nodes reachable from sources)",
                              visited, graph.nodes.size());
    }
    return false;
  }
  return true;
}

// -- GraphAnalysis --------------------------------------------------------------------

namespace {
[[nodiscard]] bool analysis_key(std::uint64_t stream, std::uint64_t seq, std::uint64_t* out) {
  if (seq >= (1ull << kSeqBits)) {
    return false;
  }
  *out = (stream << kSeqBits) | seq;
  return true;
}
}  // namespace

GraphAnalysis::GraphAnalysis(const ExecutionGraph& graph, std::size_t max_nodes)
    : graph_(&graph) {
  const std::size_t n = graph.nodes.size();
  if (n == 0 || n > max_nodes || !validate_graph(graph)) {
    return;
  }
  std::unordered_map<std::uint32_t, std::uint32_t> index;
  index.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    index.emplace(graph.nodes[i].id, static_cast<std::uint32_t>(i));
  }
  std::vector<std::vector<std::uint32_t>> out_edges(n);
  std::vector<std::size_t> indegree(n, 0);
  for (const GraphEdge& e : graph.edges) {
    const std::uint32_t from = index.at(e.from);
    const std::uint32_t to = index.at(e.to);
    out_edges[from].push_back(to);
    ++indegree[to];
  }
  words_ = (n + 63) / 64;
  ancestors_.assign(n * words_, 0);
  std::deque<std::uint32_t> ready;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) {
      ready.push_back(i);
    }
  }
  while (!ready.empty()) {
    const std::uint32_t i = ready.front();
    ready.pop_front();
    ancestors_[static_cast<std::size_t>(i) * words_ + i / 64] |= 1ull << (i % 64);
    for (const std::uint32_t j : out_edges[i]) {
      std::uint64_t* dst = ancestors_.data() + static_cast<std::size_t>(j) * words_;
      const std::uint64_t* src = ancestors_.data() + static_cast<std::size_t>(i) * words_;
      for (std::size_t w = 0; w < words_; ++w) {
        dst[w] |= src[w];
      }
      if (--indegree[j] == 0) {
        ready.push_back(j);
      }
    }
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    const GraphNode& node = graph.nodes[i];
    if (node.kind != NodeKind::kDecision || node.candidates <= 1) {
      continue;
    }
    decision_nodes_.push_back(i);
    std::uint64_t key = 0;
    if (analysis_key(stream_key(node.actor, node.site), node.seq, &key)) {
      decision_index_.emplace(key, i);
    }
  }
  usable_ = true;
}

bool GraphAnalysis::reaches(std::uint32_t from, std::uint32_t to) const {
  return (ancestors_[static_cast<std::size_t>(to) * words_ + from / 64] &
          (1ull << (from % 64))) != 0;
}

bool GraphAnalysis::has_decision(std::uint64_t stream, std::uint64_t seq) const {
  std::uint64_t key = 0;
  return usable_ && analysis_key(stream, seq, &key) && decision_index_.contains(key);
}

bool GraphAnalysis::decision_races(std::uint64_t stream, std::uint64_t seq) const {
  std::uint64_t key = 0;
  if (!usable_ || !analysis_key(stream, seq, &key)) {
    return true;
  }
  const auto it = decision_index_.find(key);
  if (it == decision_index_.end()) {
    return true;
  }
  const std::uint32_t i = it->second;
  const std::uint64_t lane = graph_->nodes[i].actor.key();
  for (const std::uint32_t j : decision_nodes_) {
    const GraphNode& b = graph_->nodes[j];
    if (j == i || b.actor.key() == lane) {
      continue;
    }
    if (!reaches(i, j) && !reaches(j, i)) {
      return true;  // concurrent conflicting decision on another lane
    }
  }
  return false;
}

// -- GraphRecorder --------------------------------------------------------------------

namespace detail {

constinit std::atomic<bool> g_graph_armed{false};

}  // namespace detail

GraphRecorder& GraphRecorder::instance() {
  GraphRecorder* current = common::ThreadContext::current().recorder;
  return current != nullptr ? *current : global();
}

GraphRecorder& GraphRecorder::global() {
  static GraphRecorder recorder;
  return recorder;
}

void GraphRecorder::arm(bool on) {
  armed_.store(on, std::memory_order_relaxed);
  if (this == &global()) {
    detail::g_graph_armed.store(on, std::memory_order_relaxed);
  }
}

void GraphRecorder::begin_run() {
  std::lock_guard lock(mutex_);
  graph_ = {};
  lane_last_.clear();
  releases_.clear();
}

std::uint32_t GraphRecorder::append_node_locked(GraphNode node) {
  const auto id = static_cast<std::uint32_t>(graph_.nodes.size());
  node.id = id;
  std::uint32_t& last = lane_last_[node.actor.key()];
  if (last != 0) {
    graph_.edges.push_back({last - 1, id, GraphEdge::Kind::kProgram});
  }
  last = id + 1;
  graph_.nodes.push_back(node);
  return id;
}

void GraphRecorder::record_decision(const ActorId& actor, Site site, std::uint64_t seq,
                                    int candidates, int chosen) {
  std::lock_guard lock(mutex_);
  GraphNode node;
  node.kind = NodeKind::kDecision;
  node.actor = actor;
  node.site = site;
  node.seq = seq;
  node.candidates = candidates;
  node.chosen = chosen;
  append_node_locked(node);
}

void GraphRecorder::record_release(int rank, std::uint32_t ctx, const void* key) {
  std::lock_guard lock(mutex_);
  if (graph_.nodes.size() >= kMaxRecordedNodes) {
    return;
  }
  GraphNode node;
  node.kind = NodeKind::kRelease;
  node.actor = ActorId{rank, 'h', 0};
  node.ctx = ctx;
  node.key = reinterpret_cast<std::uintptr_t>(key);
  const std::uint32_t id = append_node_locked(node);
  releases_[node.key].push_back(id);
}

void GraphRecorder::record_acquire(int rank, std::uint32_t ctx, const void* key) {
  std::lock_guard lock(mutex_);
  if (graph_.nodes.size() >= kMaxRecordedNodes) {
    return;
  }
  GraphNode node;
  node.kind = NodeKind::kAcquire;
  node.actor = ActorId{rank, 'h', 0};
  node.ctx = ctx;
  node.key = reinterpret_cast<std::uintptr_t>(key);
  const std::uint32_t id = append_node_locked(node);
  // An acquire joins the sync object's accumulated clock, i.e. it
  // happens-after *every* prior release of the key, not just the latest.
  const auto it = releases_.find(node.key);
  if (it != releases_.end()) {
    for (const std::uint32_t rel : it->second) {
      graph_.edges.push_back({rel, id, GraphEdge::Kind::kSync});
    }
  }
}

void GraphRecorder::record_key_retire(const void* key) {
  std::lock_guard lock(mutex_);
  releases_.erase(reinterpret_cast<std::uintptr_t>(key));
}

bool GraphRecorder::absorb(const std::string& text, std::string* error) {
  ExecutionGraph child;
  if (!parse_graph(text, &child, error)) {
    return false;
  }
  for (std::size_t i = 0; i < child.nodes.size(); ++i) {
    if (child.nodes[i].id != i) {
      return reject(error, common::format("node {}: ids must run from 0 without a gap",
                                          child.nodes[i].id));
    }
  }
  for (const GraphEdge& e : child.edges) {
    if (e.from >= child.nodes.size() || e.to >= child.nodes.size()) {
      return reject(error, common::format("edge {} -> {}: dangling endpoint", e.from, e.to));
    }
  }
  std::lock_guard lock(mutex_);
  const auto offset = static_cast<std::uint32_t>(graph_.nodes.size());
  for (GraphNode node : child.nodes) {
    node.id += offset;
    lane_last_[node.actor.key()] = node.id + 1;
    graph_.nodes.push_back(node);
  }
  for (GraphEdge e : child.edges) {
    e.from += offset;
    e.to += offset;
    graph_.edges.push_back(e);
  }
  return true;
}

void GraphRecorder::set_strategy(std::string strategy) {
  std::lock_guard lock(mutex_);
  graph_.strategy = std::move(strategy);
}

ExecutionGraph GraphRecorder::snapshot() const {
  std::lock_guard lock(mutex_);
  return graph_;
}

ExecutionGraph GraphRecorder::take_graph() {
  std::lock_guard lock(mutex_);
  ExecutionGraph out = std::move(graph_);
  graph_ = {};
  lane_last_.clear();
  releases_.clear();
  return out;
}

std::size_t GraphRecorder::node_count() const {
  std::lock_guard lock(mutex_);
  return graph_.nodes.size();
}

}  // namespace schedsim
