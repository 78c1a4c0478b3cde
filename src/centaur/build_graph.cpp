#include "centaur/build_graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

namespace centaur::core {

void add_path_to_pgraph(PGraph& g, const Path& path) {
  if (path.empty() || path.front() != g.root()) {
    throw std::invalid_argument("add_path_to_pgraph: path must start at root");
  }
  const NodeId dest = path.back();
  g.mark_destination(dest);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    // Next hop of B toward dest (kNoNextHop when B is the destination).
    const NodeId next = (i + 2 < path.size()) ? path[i + 2] : kNoNextHop;
    g.add_permission(path[i], path[i + 1], dest, next);
  }
}

void remove_path_from_pgraph(PGraph& g, const Path& path) {
  if (path.empty() || path.front() != g.root()) {
    throw std::invalid_argument(
        "remove_path_from_pgraph: path must start at root");
  }
  const NodeId dest = path.back();
  const auto next_hop = [&path](std::size_t i) {
    return i + 2 < path.size() ? path[i + 2] : kNoNextHop;
  };
  // Check every link before the first change, so a path the graph does not
  // carry throws with the graph untouched.
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const PermissionList* list = g.plist(path[i], path[i + 1]);
    if (list == nullptr || !list->permits(dest, next_hop(i))) {
      throw std::logic_error("remove_path_from_pgraph: link " +
                             std::to_string(path[i]) + "->" +
                             std::to_string(path[i + 1]) +
                             " does not carry the path");
    }
  }
  g.unmark_destination(dest);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    g.withdraw_permission(path[i], path[i + 1], dest, next_hop(i));
  }
}

namespace {

// Per-head body of the minimal scheme; reads and writes only b's in-links.
std::size_t minimize_head(PGraph& g, NodeId b) {
  // Default link: the in-link whose permissions include b itself as the
  // destination (so DerivePath(b)'s fallback lands on the right parent);
  // ties, and heads never appearing as destinations, resolve to the
  // in-link carrying the most destinations, then the lowest parent id.
  NodeId best_parent = topo::kInvalidNode;
  bool best_sentinel = false;
  std::size_t best_count = 0;
  for (NodeId a : g.parents(b)) {
    const PermissionList* plist = g.plist(a, b);
    const bool sentinel = plist != nullptr && plist->permits(b, kNoNextHop);
    const std::size_t count = plist != nullptr ? plist->dest_count() : 0;
    const bool better = best_parent == topo::kInvalidNode ||
                        std::tuple(sentinel, count) >
                            std::tuple(best_sentinel, best_count);
    if (better) {
      best_parent = a;
      best_sentinel = sentinel;
      best_count = count;
    }
  }
  // set_plist leaves the parents index alone, so the loop's range stays
  // valid.
  std::size_t cleared = 0;
  for (NodeId a : g.parents(b)) {
    const PermissionList* plist = g.plist(a, b);
    if (plist == nullptr) continue;
    if (a == best_parent) {
      ++cleared;
      g.set_plist(a, b, PermissionList{});
    } else if (plist->permits(b, kNoNextHop)) {
      // The head-as-destination case is handled by the default link;
      // other in-links only need entries for traffic crossing the head
      // (redundant co-optimal sentinel entries would double-resolve).
      PermissionList trimmed = *plist;
      trimmed.remove(b, kNoNextHop);
      g.set_plist(a, b, trimmed);
    }
  }
  return cleared;
}

}  // namespace

std::size_t minimize_permission_lists(PGraph& g) {
  // Collect the multi-homed heads first (ascending): editing lists below
  // does not change the link structure.
  std::vector<NodeId> heads;
  g.parent_map().for_each([&heads](NodeId n, const PGraph::AdjList& ps) {
    if (ps.size() > 1) heads.push_back(n);
  });
  std::size_t cleared = 0;
  for (NodeId b : heads) cleared += minimize_head(g, b);
  return cleared;
}

std::size_t minimize_permission_lists_at(PGraph& g,
                                         std::vector<NodeId> heads) {
  std::sort(heads.begin(), heads.end());
  heads.erase(std::unique(heads.begin(), heads.end()), heads.end());
  std::size_t cleared = 0;
  for (NodeId b : heads) {
    if (g.multi_homed(b)) cleared += minimize_head(g, b);
  }
  return cleared;
}

}  // namespace centaur::core
