#include "check/invariants.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "centaur/build_graph.hpp"
#include "centaur/query.hpp"
#include "util/flat_map.hpp"
#include "util/vec_map.hpp"

namespace centaur::check {

using core::DirectedLink;

const char* to_string(Invariant inv) {
  switch (inv) {
    case Invariant::kRootValid:
      return "root-valid";
    case Invariant::kRootNoParents:
      return "root-no-parents";
    case Invariant::kAdjacency:
      return "adjacency-consistent";
    case Invariant::kAdjacencySorted:
      return "adjacency-sorted";
    case Invariant::kAcyclic:
      return "acyclic";
    case Invariant::kRootReachable:
      return "root-reachable";
    case Invariant::kPlistActivation:
      return "plist-activation";
    case Invariant::kCounter:
      return "counter";
    case Invariant::kDestinationMark:
      return "destination-mark";
    case Invariant::kLoopFree:
      return "loop-free";
    case Invariant::kLocalRebuild:
      return "local-rebuild";
    case Invariant::kNeighborRoot:
      return "neighbor-root";
    case Invariant::kDerivedCache:
      return "derived-cache";
    case Invariant::kSelection:
      return "selection-consistent";
    case Invariant::kLeakedRoute:
      return "leaked-route";
    case Invariant::kInterceptedRoute:
      return "intercepted-route";
  }
  return "?";
}

namespace {

std::string link_str(NodeId from, NodeId to) {
  return std::to_string(from) + "->" + std::to_string(to);
}

std::string path_str(const Path& p) {
  std::string out;
  for (const NodeId n : p) {
    if (!out.empty()) out += ',';
    out += std::to_string(n);
  }
  return "<" + out + ">";
}

/// Appends a violation to `out`.
void report(std::vector<Violation>& out, Invariant inv, std::string detail) {
  out.push_back(Violation{inv, std::move(detail)});
}

bool revisits_a_node(const Path& p) {
  const std::set<NodeId> unique(p.begin(), p.end());
  return unique.size() != p.size();
}

/// Every node the graph mentions: root, link endpoints, adjacency keys.
std::set<NodeId> all_nodes(const PGraph& g) {
  std::set<NodeId> nodes;
  if (g.root() != topo::kInvalidNode) nodes.insert(g.root());
  for (const auto& [link, data] : g.links()) {
    nodes.insert(link.from);
    nodes.insert(link.to);
  }
  const auto collect = [&nodes](NodeId n, const PGraph::AdjList& adj) {
    if (adj.empty()) return;
    nodes.insert(n);
    nodes.insert(adj.begin(), adj.end());
  };
  g.parent_map().for_each(collect);
  g.child_map().for_each(collect);
  return nodes;
}

void check_adjacency_map(const PGraph::AdjVec& map, const PGraph& g,
                         bool map_is_parents, std::vector<Violation>& out) {
  const char* name = map_is_parents ? "parents" : "children";
  map.for_each([&](NodeId n, const PGraph::AdjList& adj) {
    // Empty values are legal: a removed link empties its endpoint's list in
    // place, leaving a node with no neighbors on this side.
    if (adj.empty()) return;
    if (!std::is_sorted(adj.begin(), adj.end()) ||
        std::adjacent_find(adj.begin(), adj.end()) != adj.end()) {
      report(out, Invariant::kAdjacencySorted,
             std::string(name) + "[" + std::to_string(n) +
                 "] is not sorted/duplicate-free");
    }
    for (const NodeId other : adj) {
      const NodeId from = map_is_parents ? other : n;
      const NodeId to = map_is_parents ? n : other;
      if (!g.has_link(from, to)) {
        report(out, Invariant::kAdjacency,
               std::string(name) + "[" + std::to_string(n) +
                   "] lists dangling link " + link_str(from, to));
      }
    }
  });
}

/// Iterative three-color DFS over child links; reports one witness link per
/// detected cycle entry point.
void check_acyclic(const PGraph& g, std::vector<Violation>& out) {
  enum : std::uint8_t { kWhite = 0, kGray = 1, kBlack = 2 };
  util::FlatMap<NodeId, std::uint8_t> color;
  struct Frame {
    NodeId node;
    std::size_t next_child = 0;
  };
  std::vector<Frame> stack;
  for (const NodeId start : all_nodes(g)) {
    if (color[start] != kWhite) continue;
    stack.push_back(Frame{start});
    color[start] = kGray;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const PGraph::AdjList& kids = g.children(frame.node);
      if (frame.next_child >= kids.size()) {
        color[frame.node] = kBlack;
        stack.pop_back();
        continue;
      }
      const NodeId child = kids[frame.next_child++];
      const std::uint8_t c = color[child];
      if (c == kGray) {
        report(out, Invariant::kAcyclic,
               "cycle through link " + link_str(frame.node, child));
        return;  // one witness is enough; a cycle poisons everything below
      }
      if (c == kWhite) {
        color[child] = kGray;
        stack.push_back(Frame{child});
      }
    }
  }
}

void check_root_reachable(const PGraph& g, std::vector<Violation>& out) {
  // n reaches the root via parent links iff the root reaches n via child
  // links (same edges, reversed) — so one forward BFS from the root covers
  // every node.
  util::FlatSet<NodeId> seen;
  seen.insert(g.root());
  std::vector<NodeId> frontier{g.root()};
  while (!frontier.empty()) {
    const NodeId n = frontier.back();
    frontier.pop_back();
    for (const NodeId child : g.children(n)) {
      if (seen.insert(child)) frontier.push_back(child);
    }
  }
  for (const NodeId n : all_nodes(g)) {
    if (!seen.count(n)) {
      report(out, Invariant::kRootReachable,
             "node " + std::to_string(n) +
                 " cannot reach the root through parent links");
    }
  }
}

}  // namespace

std::vector<Violation> check_pgraph(const PGraph& g,
                                    const PGraphCheckOptions& options) {
  std::vector<Violation> out;
  if (g.root() == topo::kInvalidNode) {
    if (g.num_links() > 0 || !g.destinations().empty()) {
      report(out, Invariant::kRootValid,
             "graph has links/destinations but no root");
    }
    return out;  // nothing else is meaningful without a root
  }

  if (g.in_degree(g.root()) > 0) {
    report(out, Invariant::kRootNoParents,
           "root " + std::to_string(g.root()) + " has " +
               std::to_string(g.in_degree(g.root())) + " parent link(s)");
  }

  // links_ -> adjacency direction.
  for (const auto& [link, data] : g.links()) {
    const PGraph::AdjList& ps = g.parents(link.to);
    if (!std::binary_search(ps.begin(), ps.end(), link.from)) {
      report(out, Invariant::kAdjacency,
             "link " + link_str(link.from, link.to) + " missing from parents[" +
                 std::to_string(link.to) + "]");
    }
    const PGraph::AdjList& cs = g.children(link.from);
    if (!std::binary_search(cs.begin(), cs.end(), link.to)) {
      report(out, Invariant::kAdjacency,
             "link " + link_str(link.from, link.to) +
                 " missing from children[" + std::to_string(link.from) + "]");
    }
    if (options.require_positive_counters && data.counter == 0) {
      report(out, Invariant::kCounter,
             "stored link " + link_str(link.from, link.to) +
                 " has counter 0 (should have been withdrawn)");
    }
    if (options.plists_imply_multihomed && !data.plist.empty() &&
        !g.multi_homed(link.to)) {
      report(out, Invariant::kPlistActivation,
             "link " + link_str(link.from, link.to) +
                 " carries a Permission List but head " +
                 std::to_string(link.to) + " is single-homed");
    }
  }

  // Adjacency -> links_ direction (dangling entries), plus sortedness.
  check_adjacency_map(g.parent_map(), g, /*map_is_parents=*/true, out);
  check_adjacency_map(g.child_map(), g, /*map_is_parents=*/false, out);

  if (options.require_acyclic) check_acyclic(g, out);
  if (options.require_root_reachable) check_root_reachable(g, out);

  if (options.destinations_in_graph) {
    for (const NodeId d : g.destinations()) {
      if (!g.contains(d)) {
        report(out, Invariant::kDestinationMark,
               "destination " + std::to_string(d) +
                   " is marked but absent from the graph");
      }
    }
  }
  return out;
}

template <typename SelectedPaths>
std::vector<Violation> check_counters_against(const PGraph& g,
                                              const SelectedPaths& selected) {
  std::vector<Violation> out;

  // Expected per-link traversal counts — the multiset of links over the
  // selected path set (S4.3.2).
  std::map<DirectedLink, std::uint32_t> expected;
  for (const auto& [dest, path] : selected) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      ++expected[DirectedLink{path[i], path[i + 1]}];
    }
  }
  for (const auto& [link, count] : expected) {
    const core::LinkData* data = g.find_link_data(link.from, link.to);
    if (data == nullptr) {
      report(out, Invariant::kCounter,
             "selected paths traverse " + link_str(link.from, link.to) +
                 " but the link is not in the P-graph");
      continue;
    }
    const std::uint32_t stored = data->counter;
    if (stored != count) {
      report(out, Invariant::kCounter,
             "link " + link_str(link.from, link.to) + " counter is " +
                 std::to_string(stored) + ", " + std::to_string(count) +
                 " selected path(s) traverse it");
    }
  }
  for (const auto& [link, data] : g.links()) {
    if (!expected.count(link)) {
      report(out, Invariant::kCounter,
             "link " + link_str(link.from, link.to) + " (counter " +
                 std::to_string(data.counter) +
                 ") is traversed by no selected path");
    }
  }

  // Destination marks must be exactly the selected endpoints, and every
  // selected path must be loop-free (the per-destination face of the
  // paper's acyclicity property — the union graph itself may cycle).
  for (const auto& [dest, path] : selected) {
    if (!g.is_destination(dest)) {
      report(out, Invariant::kDestinationMark,
             "selected destination " + std::to_string(dest) + " is unmarked");
    }
    if (path.empty() || path.back() != dest) {
      report(out, Invariant::kLoopFree,
             "selected path " + path_str(path) + " does not end at destination " +
                 std::to_string(dest));
    } else if (revisits_a_node(path)) {
      report(out, Invariant::kLoopFree,
             "selected path " + path_str(path) + " revisits a node");
    }
  }
  for (const NodeId d : g.destinations()) {
    if (!selected.count(d)) {
      report(out, Invariant::kDestinationMark,
             "destination " + std::to_string(d) +
                 " is marked but has no selected path");
    }
  }
  return out;
}

template std::vector<Violation> check_counters_against(
    const PGraph& g, const std::map<NodeId, Path>& selected);
template std::vector<Violation> check_counters_against(
    const PGraph& g, const util::VecMap<NodeId, Path>& selected);

namespace {

/// Prefixes every violation in `sub` with `scope` and appends to `out`.
void merge_scoped(std::vector<Violation>& out, std::vector<Violation> sub,
                  const std::string& scope) {
  for (Violation& v : sub) {
    v.detail = scope + v.detail;
    out.push_back(std::move(v));
  }
}

}  // namespace

std::vector<Violation> check_centaur_node(const core::CentaurNode& node) {
  std::vector<Violation> out;
  const PGraph& local = node.local_pgraph();
  const util::VecMap<NodeId, Path>& selected = node.selected_paths();
  if (local.root() == topo::kInvalidNode && selected.empty()) {
    return out;  // node not started yet
  }

  // Whole-graph acyclicity is deliberately off: a union of per-destination
  // policy paths may order two nodes both ways even at convergence (see
  // PGraphCheckOptions::require_acyclic).  Loop-freedom is enforced per
  // path by check_counters_against / the derived-cache loop below.
  PGraphCheckOptions local_options;
  local_options.require_acyclic = false;
  merge_scoped(out, check_pgraph(local, local_options), "local P-graph: ");
  merge_scoped(out, check_counters_against(local, selected),
               "local P-graph: ");

  // Selection consistency: every selected path starts at this node and its
  // tail is exactly what the first-hop neighbor's graph currently derives
  // for that destination — reselect() always adopts `self + derived`.
  for (const auto& [dest, path] : selected) {
    if (path.empty()) continue;  // already reported by kLoopFree above
    if (path.front() != local.root()) {
      report(out, Invariant::kSelection,
             "selected path " + path_str(path) + " does not start at " +
                 std::to_string(local.root()));
      continue;
    }
    if (path.size() < 2) continue;  // the fixed origin route
    const NodeId first_hop = path[1];
    const core::CentaurNode::DestCache* derived =
        node.neighbor_derived(first_hop);
    if (derived == nullptr) {
      report(out, Invariant::kSelection,
             "selected path " + path_str(path) + " uses first hop " +
                 std::to_string(first_hop) + " but no RIB entry exists");
      continue;
    }
    const core::CentaurNode::DestState* cached = derived->find(dest);
    if (cached == nullptr || cached->path.empty()) {
      report(out, Invariant::kSelection,
             "selected path " + path_str(path) + " has no derived path in G[" +
                 std::to_string(first_hop) + "]");
    } else if (!std::equal(path.begin() + 1, path.end(), cached->path.begin(),
                           cached->path.end())) {
      report(out, Invariant::kSelection,
             "selected path " + path_str(path) + " diverges from G[" +
                 std::to_string(first_hop) + "]'s derived path " +
                 path_str(cached->path));
    }
  }

  // BuildGraph-rebuild equivalence: the incrementally maintained local
  // P-graph must match a from-scratch BuildGraph over the same path set
  // (structure, destination marks, Permission Lists; counters are covered
  // by check_counters_against above).
  try {
    const PGraph rebuilt = core::build_local_pgraph(local.root(), selected);
    if (!(rebuilt == local)) {
      report(out, Invariant::kLocalRebuild,
             "local P-graph diverges from BuildGraph(selected paths): " +
                 std::to_string(local.num_links()) + " links vs " +
                 std::to_string(rebuilt.num_links()) + " rebuilt");
    }
  } catch (const std::exception& e) {
    report(out, Invariant::kLocalRebuild,
           std::string("BuildGraph over the selected path set failed: ") +
               e.what());
  }

  for (const NodeId nbr : node.rib_neighbors()) {
    const PGraph* g = node.neighbor_pgraph(nbr);
    const core::CentaurNode::DestCache* derived = node.neighbor_derived(nbr);
    const std::string scope = "G[" + std::to_string(nbr) + "]: ";
    if (g == nullptr || derived == nullptr) continue;  // unreachable
    if (g->root() != nbr) {
      report(out, Invariant::kNeighborRoot,
             scope + "rooted at " + std::to_string(g->root()) +
                 " instead of the neighbor");
    }
    PGraphCheckOptions nbr_options = neighbor_graph_options();
    nbr_options.require_acyclic = false;  // see check above for rationale
    merge_scoped(out, check_pgraph(*g, nbr_options), scope);

    // Derived-path cache consistency: for every marked destination the
    // cache must hold exactly what DerivePath returns today (via the
    // unified query API, centaur/query.hpp).
    for (const NodeId dest : g->destinations()) {
      core::PathResult fresh;
      try {
        fresh = core::query_path(*g, core::PathQuery{dest});
      } catch (const std::exception& e) {
        report(out, Invariant::kDerivedCache,
               scope + "DerivePath(" + std::to_string(dest) +
                   ") threw: " + e.what());
        continue;
      }
      const core::CentaurNode::DestState* cached = derived->find(dest);
      const bool has_cached = cached != nullptr && !cached->path.empty();
      if (fresh) {
        if (!has_cached) {
          report(out, Invariant::kDerivedCache,
                 scope + "destination " + std::to_string(dest) +
                     " derives to " + path_str(fresh.path) +
                     " but the cache has no entry");
        } else if (cached->path != fresh.path) {
          report(out, Invariant::kDerivedCache,
                 scope + "destination " + std::to_string(dest) + " caches " +
                     path_str(cached->path) + " but derives to " +
                     path_str(fresh.path));
        }
      } else if (has_cached) {
        report(out, Invariant::kDerivedCache,
               scope + "destination " + std::to_string(dest) +
                   " is underivable but the cache holds " +
                   path_str(cached->path));
      }
    }
    for (const auto& [dest, state] : *derived) {
      if (state.path.empty()) continue;  // underivable: walk index only
      if (!g->is_destination(dest)) {
        report(out, Invariant::kDerivedCache,
               scope + "cache entry for unmarked destination " +
                   std::to_string(dest));
      }
      if (revisits_a_node(state.path)) {
        report(out, Invariant::kLoopFree,
               scope + "derived path " + path_str(state.path) +
                   " revisits a node");
      }
    }
  }
  return out;
}

}  // namespace centaur::check
