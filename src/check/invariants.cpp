#include "check/invariants.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <span>
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
    case Invariant::kExportView:
      return "export-view";
    case Invariant::kReceivedView:
      return "received-view";
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

/// Every node the graph mentions: the root and every link endpoint.
std::set<NodeId> all_nodes(const PGraph& g) {
  std::set<NodeId> nodes;
  if (g.root() != topo::kInvalidNode) nodes.insert(g.root());
  g.parent_map().for_each([&nodes](NodeId n, const PGraph::AdjList& adj) {
    if (adj.empty()) return;
    nodes.insert(n);
    nodes.insert(adj.begin(), adj.end());
  });
  return nodes;
}

/// Children of every node, derived from the parents index, the graph's
/// only adjacency.  Sorted by (from, to), each node's out-links form one
/// run ascending by head, so traversals visit children in ascending order.
class ChildIndex {
 public:
  explicit ChildIndex(const PGraph& g) {
    links_.reserve(g.num_links());
    for (const auto& [to, parents] : g.parent_map()) {
      for (const NodeId from : parents) links_.push_back({from, to});
    }
    std::sort(links_.begin(), links_.end());
  }

  /// Out-links of `n`, ascending by head.
  std::span<const DirectedLink> of(NodeId n) const {
    const auto lo = std::lower_bound(
        links_.begin(), links_.end(), n,
        [](const DirectedLink& l, NodeId v) { return l.from < v; });
    const auto hi = std::upper_bound(
        lo, links_.end(), n,
        [](NodeId v, const DirectedLink& l) { return v < l.from; });
    return {lo, hi};
  }

 private:
  std::vector<DirectedLink> links_;
};

/// Checks the parents index — the graph's link set — for sorted,
/// duplicate-free values that the kept link count accounts for, and the
/// list table against it: no stored list is empty, and none sits on a link
/// missing from the parents index.
void check_links(const PGraph& g, std::vector<Violation>& out) {
  std::size_t links = 0;
  g.parent_map().for_each([&](NodeId n, const PGraph::AdjList& adj) {
    // Empty values are legal: a removed link empties its head's list in
    // place, leaving a node without parents.
    links += adj.size();
    if (!std::is_sorted(adj.begin(), adj.end()) ||
        std::adjacent_find(adj.begin(), adj.end()) != adj.end()) {
      report(out, Invariant::kAdjacencySorted,
             "parents[" + std::to_string(n) + "] is not sorted/duplicate-free");
    }
  });
  if (links != g.num_links()) {
    report(out, Invariant::kAdjacency,
           "num_links() is " + std::to_string(g.num_links()) +
               " but the parents index holds " + std::to_string(links) +
               " links");
  }
  for (const auto& [key, plist] : g.plist_map()) {
    const DirectedLink link = core::unpack_link(key);
    if (plist.empty()) {
      report(out, Invariant::kAdjacency,
             "link " + link_str(link.from, link.to) +
                 " stores an empty Permission List");
    }
    if (!g.has_link(link.from, link.to)) {
      report(out, Invariant::kAdjacency,
             "Permission List stored for " + link_str(link.from, link.to) +
                 ", a link missing from parents[" + std::to_string(link.to) +
                 "]");
    }
  }
}

/// Iterative three-color DFS over child links; reports one witness link per
/// detected cycle entry point.
void check_acyclic(const std::set<NodeId>& nodes, const ChildIndex& children,
                   std::vector<Violation>& out) {
  enum : std::uint8_t { kWhite = 0, kGray = 1, kBlack = 2 };
  util::FlatMap<NodeId, std::uint8_t> color;
  struct Frame {
    NodeId node;
    std::span<const DirectedLink> kids;
    std::size_t next_child = 0;
  };
  std::vector<Frame> stack;
  for (const NodeId start : nodes) {
    if (color[start] != kWhite) continue;
    stack.push_back(Frame{start, children.of(start)});
    color[start] = kGray;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.next_child >= frame.kids.size()) {
        color[frame.node] = kBlack;
        stack.pop_back();
        continue;
      }
      const NodeId child = frame.kids[frame.next_child++].to;
      const std::uint8_t c = color[child];
      if (c == kGray) {
        report(out, Invariant::kAcyclic,
               "cycle through link " + link_str(frame.node, child));
        return;  // one witness is enough; a cycle poisons everything below
      }
      if (c == kWhite) {
        color[child] = kGray;
        stack.push_back(Frame{child, children.of(child)});
      }
    }
  }
}

void check_root_reachable(NodeId root, const std::set<NodeId>& nodes,
                          const ChildIndex& children,
                          std::vector<Violation>& out) {
  // n reaches the root via parent links iff the root reaches n via child
  // links (same edges, reversed) — so one forward BFS from the root covers
  // every node.
  util::FlatSet<NodeId> seen;
  seen.insert(root);
  std::vector<NodeId> frontier{root};
  while (!frontier.empty()) {
    const NodeId n = frontier.back();
    frontier.pop_back();
    for (const DirectedLink& link : children.of(n)) {
      if (seen.insert(link.to)) frontier.push_back(link.to);
    }
  }
  for (const NodeId n : nodes) {
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

  check_links(g, out);
  for (const auto& [link, plist] : g.links()) {
    if (options.require_positive_counters && plist.empty()) {
      report(out, Invariant::kCounter,
             "stored link " + link_str(link.from, link.to) +
                 " carries no (destination, next hop) pair (should have "
                 "been withdrawn)");
    }
    if (options.plists_imply_multihomed && !plist.empty() &&
        !g.multi_homed(link.to)) {
      report(out, Invariant::kPlistActivation,
             "link " + link_str(link.from, link.to) +
                 " carries a Permission List but head " +
                 std::to_string(link.to) + " is single-homed");
    }
  }

  if (options.require_acyclic || options.require_root_reachable) {
    const std::set<NodeId> nodes = all_nodes(g);
    const ChildIndex children(g);
    if (options.require_acyclic) check_acyclic(nodes, children, out);
    if (options.require_root_reachable) {
      check_root_reachable(g.root(), nodes, children, out);
    }
  }

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
  // selected path set (S4.3.2).  A link's counter is its Permission List's
  // pair count: each selected path through it records one pair.
  std::map<DirectedLink, std::size_t> expected;
  for (const auto& [dest, path] : selected) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      ++expected[DirectedLink{path[i], path[i + 1]}];
    }
  }
  for (const auto& [link, count] : expected) {
    if (!g.has_link(link.from, link.to)) {
      report(out, Invariant::kCounter,
             "selected paths traverse " + link_str(link.from, link.to) +
                 " but the link is not in the P-graph");
      continue;
    }
    const core::PermissionList* plist = g.plist(link.from, link.to);
    const std::size_t pairs = plist != nullptr ? plist->dest_count() : 0;
    if (pairs != count) {
      report(out, Invariant::kCounter,
             "link " + link_str(link.from, link.to) + " carries " +
                 std::to_string(pairs) + " pair(s), " + std::to_string(count) +
                 " selected path(s) traverse it");
    }
  }
  for (const auto& [link, plist] : g.links()) {
    if (!expected.count(link)) {
      report(out, Invariant::kCounter,
             "link " + link_str(link.from, link.to) + " (" +
                 std::to_string(plist.dest_count()) +
                 " pair(s)) is traversed by no selected path");
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

  // Selection optimality: the cached rank-merge must pick what ranking
  // every usable neighbor's derived path from scratch picks (the ranking
  // override included).
  for (const NodeId dest : node.stale_selections()) {
    const std::optional<Path> cur = node.selected_path(dest);
    report(out, Invariant::kSelection,
           "selection for " + std::to_string(dest) + " (" +
               (cur ? path_str(*cur) : std::string("none")) +
               ") differs from a from-scratch ranking of the candidates");
  }

  // The export views, maintained from the flood scratch, must equal what
  // make_export_view builds from the local P-graph.
  if (!node.category_views_current()) {
    report(out, Invariant::kExportView,
           "a stored category view diverges from make_export_view of the "
           "local P-graph");
  }

  // BuildGraph-rebuild equivalence: the incrementally maintained local
  // P-graph must match a from-scratch BuildGraph over the same path set
  // (structure, destination marks, Permission Lists).
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
    // Failed walks live in a side table: one chain, starting at the
    // destination, for exactly the cached destinations without a path.
    const core::CentaurNode::FailChains& failed =
        *node.neighbor_fail_chains(nbr);
    for (const auto& [dest, chain] : failed) {
      const core::CentaurNode::DestState* cached = derived->find(dest);
      if (cached == nullptr || !cached->path.empty() || chain.empty() ||
          chain.front() != dest) {
        report(out, Invariant::kDerivedCache,
               scope + "stray failed-walk chain " + path_str(chain) +
                   " for destination " + std::to_string(dest));
      }
    }
    for (const auto& [dest, state] : *derived) {
      if (state.path.empty()) {
        if (failed.find(dest) == nullptr) {
          report(out, Invariant::kDerivedCache,
                 scope + "underivable destination " + std::to_string(dest) +
                     " has no failed-walk chain");
        }
        continue;
      }
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

std::vector<Violation> check_received_view(const core::CentaurNode& receiver,
                                           NodeId u,
                                           const core::CentaurNode& sender,
                                           NodeId v) {
  std::vector<Violation> out;
  const PGraph* held = receiver.neighbor_pgraph(v);
  if (held == nullptr) return out;
  core::GraphDelta snapshot =
      core::diff_views(core::ExportedView{}, sender.reference_view(u));
  snapshot.reset = true;
  core::LinkFilter import_allowed;
  if (const auto& filter = receiver.config().import_link_filter) {
    import_allowed = [&filter, v](NodeId a, NodeId b) {
      return filter(v, a, b);
    };
  }
  PGraph expected(v);
  core::apply_delta(expected, snapshot, u, import_allowed);
  if (!(expected == *held)) {
    report(out, Invariant::kReceivedView,
           "G[" + std::to_string(v) + "] holds " +
               std::to_string(held->num_links()) + " links and " +
               std::to_string(held->destinations().size()) +
               " destinations; " + std::to_string(v) +
               "'s view imports to " + std::to_string(expected.num_links()) +
               " links and " + std::to_string(expected.destinations().size()) +
               " destinations");
  }
  return out;
}

}  // namespace centaur::check
