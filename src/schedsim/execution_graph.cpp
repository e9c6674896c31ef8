#include "schedsim/execution_graph.hpp"

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <limits>
#include <sstream>
#include <utility>

#include "common/format.hpp"

namespace schedsim {

namespace {

constexpr const char* kMagic = "# cusan-execution-graph v1";

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

/// Parse `<rank>:h` (e.g. `0:h`, `-1:h`); the rank is -1 (unattributed) or a
/// valid int rank.
[[nodiscard]] bool parse_actor_token(const std::string& token, int* rank) {
  const std::size_t colon = token.find(':');
  if (colon == std::string::npos || token.compare(colon, std::string::npos, ":h") != 0) {
    return false;
  }
  char* end = nullptr;
  const long parsed = std::strtol(token.c_str(), &end, 10);
  if (end != token.c_str() + colon || parsed < -1 ||
      parsed >= std::numeric_limits<int>::max()) {
    return false;
  }
  *rank = static_cast<int>(parsed);
  return true;
}

}  // namespace

const char* to_string(Site site) {
  switch (site) {
    case Site::kMatchRecv:
      return "match_recv";
    case Site::kWaitany:
      return "waitany";
    case Site::kWaitallOrder:
      return "waitall_order";
  }
  return "unknown";
}

bool site_from_string(const std::string& name, Site* out) {
  static constexpr Site kAll[] = {Site::kMatchRecv, Site::kWaitany, Site::kWaitallOrder};
  for (const Site site : kAll) {
    if (name == to_string(site)) {
      *out = site;
      return true;
    }
  }
  return false;
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
        out += common::format("n {} d {}:h {} {} {} {}\n", n.id, n.rank,
                              to_string(n.site), n.seq, n.candidates, n.chosen);
        break;
      case NodeKind::kRelease:
      case NodeKind::kAcquire: {
        char key_hex[24];
        std::snprintf(key_hex, sizeof(key_hex), "%llx",
                      static_cast<unsigned long long>(n.key));
        out += common::format("n {} {} {}:h {} {}\n", n.id,
                              std::string(1, kind_char(n.kind)), n.rank, n.ctx, key_hex);
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
      if (!parse_actor_token(actor_token, &node.rank)) {
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
          std::uint64_t& expect = next_seq[stream_key(node.rank, node.site)];
          if (node.seq != expect) {
            return fail(error, line_no,
                        common::format("actor {} {} seq {} out of order (expected {})",
                                       actor_token, site_token, node.seq, expect));
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
      out.push_back({n.rank, n.seq, n.site, n.candidates, n.chosen});
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
  std::uint32_t& last = lane_last_[node.rank];
  if (last != 0) {
    graph_.edges.push_back({last - 1, id, GraphEdge::Kind::kProgram});
  }
  last = id + 1;
  graph_.nodes.push_back(node);
  return id;
}

void GraphRecorder::record_decision(int rank, Site site, std::uint64_t seq, int candidates,
                                    int chosen) {
  std::lock_guard lock(mutex_);
  GraphNode node;
  node.kind = NodeKind::kDecision;
  node.rank = rank;
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
  node.rank = rank;
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
  node.rank = rank;
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
    lane_last_[node.rank] = node.id + 1;
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
