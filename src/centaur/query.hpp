// Unified path-query API over P-graphs (DESIGN.md §14.3).
//
// PathQuery/PathResult are the one DerivePath surface, shared by the
// protocol, the serving plane and the checker:
//
//   * query_path_into — buffer-reuse form (the hot refresh loops).
//   * query_path      — allocating convenience form.
//   * path_uses       — the shared usability predicate (Observation 1).
//   * query_k_paths / disjoint_path_count — multi-path enumeration for the
//     serving plane (k policy-compliant paths, path-diversity metric);
//     query_all_paths + disjoint_count give both from one enumeration.
//
// Everything is templated over a *graph view* so the same walk serves both
// a live PGraph and an immutable serve-plane PGraphSnapshot:
//
//   View requirements:
//     NodeId root() const;
//     parents(NodeId n) const;  // a contiguous range of NodeId (the live
//                               // graph's AdjList, a snapshot's
//                               // std::span<const NodeId>): ascending,
//                               // empty when n is unknown
//     const PermissionList* plist(NodeId from, NodeId to) const;
//                               // nullptr == no entries recorded; the
//                               // walks read it only where `to` has two
//                               // or more parents, so a view may define
//                               // it only at such multi-homed heads
//
// Contract (uniform across every entry point):
//   * dest == root()  ->  kFound with the trivial one-node path {root}.
//   * unreachable / ambiguous-fallback -> kUnreachable, `out` left empty.
//   * a backtrace cycle throws std::logic_error (corrupt graph).
//   * `visited` (optional) receives every node the walk examined; the
//     outcome is a pure function of the in-links of these nodes.  At a
//     visited node with two or more parents it depends only on which
//     in-links are unlisted and on the listed ones' pairs that name `dest`
//     (the fine/coarse invalidation rule of DeltaReport, announce.hpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "centaur/pgraph.hpp"
#include "topology/types.hpp"

namespace centaur::core {

/// One (destination, options) query against a P-graph view.
struct PathQuery {
  NodeId dest = topo::kInvalidNode;
  /// Optional walk capture: receives every node the backtracking walk
  /// examined (including `dest` and, on failure, the blocking node).  A
  /// graph change that touches none of their in-links cannot change the
  /// walk.  A change at a node with two or more parents before and after
  /// that removes no in-link, adds no unlisted one and flips none between
  /// listed and unlisted can change it there only if a changed
  /// Permission-List pair names `dest` (DESIGN.md §12.1).
  std::vector<NodeId>* visited = nullptr;
};

enum class PathStatus : std::uint8_t {
  kFound,        ///< the unique policy-compliant path was derived
  kUnreachable,  ///< no permitted parent chain reaches the root
};

/// The shared usability predicate (paper Observation 1): a downstream path
/// that already contains `node` must not be extended through it.
inline bool path_uses(const Path& path, NodeId node) {
  return std::find(path.begin(), path.end(), node) != path.end();
}

/// Allocating query result.
struct PathResult {
  PathStatus status = PathStatus::kUnreachable;
  Path path;  ///< root..dest when found, empty otherwise

  bool found() const { return status == PathStatus::kFound; }
  explicit operator bool() const { return found(); }
  /// Usability helper: true if the found path traverses `node`.
  bool uses(NodeId node) const { return path_uses(path, node); }
};

/// Read-only view adapter presenting a PGraph to the generic walk.
struct PGraphView {
  const PGraph* graph = nullptr;

  NodeId root() const { return graph->root(); }
  const PGraph::AdjList& parents(NodeId n) const { return graph->parents(n); }
  const PermissionList* plist(NodeId from, NodeId to) const {
    return graph->plist(from, to);
  }
};

/// DerivePath (paper Table 1) over any graph view.  Buffer-reuse form:
/// writes the path into `out` (reusing its capacity) and returns kFound, or
/// returns kUnreachable leaving `out` empty.
template <typename View>
PathStatus query_path_over(const View& g, const PathQuery& q, Path& out) {
  out.clear();
  const NodeId root = g.root();
  if (root == topo::kInvalidNode) {
    throw std::logic_error("query_path: graph has no root");
  }
  if (q.dest == root) {
    if (q.visited != nullptr) q.visited->assign(1, q.dest);
    out.push_back(root);
    return PathStatus::kFound;
  }

  // The walked-node set IS the partial path (dest-first): one buffer serves
  // as path accumulator, cycle guard, and visited report.
  Path& reversed = out;
  reversed.push_back(q.dest);
  NodeId current = q.dest;
  // Next hop of `current` toward `dest` during backtracking — the node we
  // arrived from; kNoNextHop while current == dest (S4.1 per-dest-next
  // semantics; see pgraph.hpp's note on Table 1).
  NodeId came_from = kNoNextHop;
  const auto fail = [&]() {
    if (q.visited != nullptr) {
      q.visited->assign(reversed.begin(), reversed.end());
    }
    out.clear();
    return PathStatus::kUnreachable;
  };

  while (current != root) {
    const auto& ps = g.parents(current);
    if (ps.empty()) return fail();
    NodeId parent = topo::kInvalidNode;
    if (ps.size() == 1) {
      parent = ps.front();  // Table 1 lines 3-5: single-homed, follow up
    } else {
      // Table 1 lines 6-11: multi-homed, consult Permission Lists.
      // Links with entries are explicit permissions; if none permits, an
      // in-link *without* a Permission List acts as the default (the
      // paper's Figure 4(c) lists only the exceptional link C->D and
      // leaves B->D unlisted).  More than one unlisted in-link would be
      // ambiguous, so derivation fails then.
      NodeId fallback = topo::kInvalidNode;
      bool fallback_ambiguous = false;
      for (const NodeId p : ps) {
        const PermissionList* plist = g.plist(p, current);
        if (plist == nullptr || plist->empty()) {
          if (fallback == topo::kInvalidNode) {
            fallback = p;
          } else {
            fallback_ambiguous = true;
          }
          continue;
        }
        if (plist->permits(q.dest, came_from)) {
          parent = p;
          break;
        }
      }
      if (parent == topo::kInvalidNode && !fallback_ambiguous) {
        parent = fallback;
      }
      if (parent == topo::kInvalidNode) return fail();
    }
    // Cycle guard: paths are short, so a linear scan beats a node set.
    if (std::find(reversed.begin(), reversed.end(), parent) !=
        reversed.end()) {
      throw std::logic_error("query_path: backtrace cycle (corrupt graph)");
    }
    reversed.push_back(parent);
    came_from = current;
    current = parent;
  }
  if (q.visited != nullptr) {
    q.visited->assign(reversed.begin(), reversed.end());
  }
  std::reverse(reversed.begin(), reversed.end());
  return PathStatus::kFound;
}

/// Buffer-reuse query against a PGraph (the hot refresh-loop form).
PathStatus query_path_into(const PGraph& g, const PathQuery& q, Path& out);

/// Allocating query against a PGraph.
PathResult query_path(const PGraph& g, const PathQuery& q);

// ---------------------------------------------------------------- k paths --
//
// Multi-path enumeration for the serving plane (DESIGN.md §14.4).  A
// DerivePath walk is deterministic because every branch point picks one
// parent; enumeration explores *all* policy-compliant parents instead:
// every explicitly-permitting in-link, plus the unique unlisted in-link
// (the paper's default) when exactly one exists.  Loops are skipped rather
// than fatal — an alternate branch revisiting a node is simply not a path.

/// Result of a k-path enumeration.
struct KPathResult {
  /// paths[0], when present, is exactly the DerivePath result (the
  /// canonical policy-compliant path); the alternates follow sorted by
  /// (length, lexicographic node sequence).  No duplicates.
  std::vector<Path> paths;
  /// True when the expansion budget was exhausted before the branch space:
  /// the list is a best-effort prefix, not the complete enumeration.
  bool truncated = false;
};

namespace query_detail {

/// Depth-first enumeration of policy-compliant paths root..dest in
/// *canonical-first* order: at each branch point the explicitly-permitting
/// parents are visited ascending, then the unlisted default — so the first
/// leaf reached is exactly the DerivePath choice chain.
template <typename View, typename Emit>
void enumerate_paths(const View& g, NodeId dest, std::size_t max_expansions,
                     bool& truncated, const Emit& emit) {
  const NodeId root = g.root();
  if (root == topo::kInvalidNode) {
    throw std::logic_error("query_k_paths: graph has no root");
  }
  if (dest == root) {
    emit(Path{root});
    return;
  }

  // Explicit DFS stack: reversed partial path + per-level candidate lists.
  // Candidate lists are tiny (in-degree of one node), so a per-level
  // SmallVec keeps the whole walk allocation-light.
  struct Level {
    util::SmallVec<NodeId, 4> candidates;
    std::size_t next = 0;
  };
  Path reversed{dest};
  std::vector<Level> stack;
  std::size_t expansions = 0;

  const auto candidates_for = [&](NodeId current,
                                  NodeId came_from) -> Level {
    Level level;
    const auto& ps = g.parents(current);
    if (ps.empty()) return level;
    if (ps.size() == 1) {
      level.candidates.push_back(ps.front());
      return level;
    }
    NodeId fallback = topo::kInvalidNode;
    bool fallback_ambiguous = false;
    for (const NodeId p : ps) {
      const PermissionList* plist = g.plist(p, current);
      if (plist == nullptr || plist->empty()) {
        if (fallback == topo::kInvalidNode) {
          fallback = p;
        } else {
          fallback_ambiguous = true;
        }
        continue;
      }
      if (plist->permits(dest, came_from)) level.candidates.push_back(p);
    }
    // The unlisted default ranks after every explicit permission: DerivePath
    // only falls back to it when no entry permits, so canonical-first DFS
    // order must try it last.
    if (fallback != topo::kInvalidNode && !fallback_ambiguous) {
      level.candidates.push_back(fallback);
    }
    return level;
  };

  stack.push_back(candidates_for(dest, kNoNextHop));
  while (!stack.empty()) {
    Level& level = stack.back();
    if (level.next >= level.candidates.size()) {
      stack.pop_back();
      reversed.pop_back();
      continue;
    }
    if (++expansions > max_expansions) {
      truncated = true;
      return;
    }
    const NodeId parent = level.candidates[level.next++];
    // Loop: this branch revisits a node on the partial path — skip it
    // (alternate branches may legally cross; only the canonical chain
    // treats a cycle as corruption).
    if (path_uses(reversed, parent)) continue;
    reversed.push_back(parent);
    if (parent == root) {
      Path found(reversed.rbegin(), reversed.rend());
      emit(std::move(found));
      reversed.pop_back();
      continue;
    }
    stack.push_back(candidates_for(parent, reversed[reversed.size() - 2]));
  }
}

}  // namespace query_detail

/// Every policy-compliant path root..dest the `max_expansions` budget
/// reaches, in KPathResult order: the canonical DerivePath result first,
/// alternates sorted by (length, lexicographic).  Hitting the budget (which
/// keeps adversarial graphs from going exponential) sets `truncated`.
template <typename View>
KPathResult query_all_paths(const View& g, NodeId dest,
                            std::size_t max_expansions = 4096) {
  KPathResult result;
  query_detail::enumerate_paths(
      g, dest, max_expansions, result.truncated,
      [&](Path&& p) { result.paths.push_back(std::move(p)); });
  if (result.paths.empty()) return result;
  // Canonical path stays first; alternates sort by (length, lex).
  std::sort(result.paths.begin() + 1, result.paths.end(),
            [](const Path& a, const Path& b) {
              if (a.size() != b.size()) return a.size() < b.size();
              return a < b;
            });
  // Distinct branch chains yield distinct node sequences, so duplicates
  // should be impossible; drop any defensively to keep the contract hard.
  result.paths.erase(
      std::unique(result.paths.begin() + 1, result.paths.end()),
      result.paths.end());
  return result;
}

/// The first `k` paths of query_all_paths: paths[0] is the canonical
/// DerivePath result, alternates follow sorted by (length, lexicographic).
template <typename View>
KPathResult query_k_paths(const View& g, NodeId dest, std::size_t k,
                          std::size_t max_expansions = 4096) {
  if (k == 0) return KPathResult{};
  KPathResult result = query_all_paths(g, dest, max_expansions);
  if (result.paths.size() > k) result.paths.resize(k);
  return result;
}

/// Path-diversity metric over paths in KPathResult order: a greedy lower
/// bound on the number of mutually interior-node-disjoint paths (endpoints
/// may be shared), taking each path that shares no interior node with one
/// already taken.  Deterministic because the order is.
inline std::size_t disjoint_count(const std::vector<Path>& paths) {
  std::size_t count = 0;
  std::vector<NodeId> used;  // interior nodes of accepted paths
  for (const Path& p : paths) {
    bool clash = false;
    for (std::size_t i = 1; i + 1 < p.size(); ++i) {
      if (std::find(used.begin(), used.end(), p[i]) != used.end()) {
        clash = true;
        break;
      }
    }
    if (clash) continue;
    ++count;
    for (std::size_t i = 1; i + 1 < p.size(); ++i) used.push_back(p[i]);
  }
  return count;
}

/// disjoint_count over every policy-compliant path root..dest.  Returns 0
/// when dest is unreachable, 1 for dest == root.
template <typename View>
std::size_t disjoint_path_count(const View& g, NodeId dest,
                                std::size_t max_expansions = 4096) {
  return disjoint_count(query_all_paths(g, dest, max_expansions).paths);
}

// ------------------------------------------------------------ serve hook --

/// Snapshot export hook (serving plane, src/serve): a CentaurNode invokes
/// its configured sink after every selection commit that changed the local
/// P-graph, *before* the flood-scratch dirty sets are consumed.  The dirty
/// sets may contain duplicates; `touched_links` covers every link whose
/// payload or wire form may have changed and `changed_dests` every
/// destination whose selection changed, so a delta-proportional publisher
/// only has to copy those.  A call with both sets empty carries no delta,
/// so the publisher reads the whole graph: a CentaurNode makes the first
/// call of each protocol instance that way, so a restarted node's first
/// publish replaces everything its crashed predecessor published.  Called
/// from handler context: the callee must not block, must not touch other
/// nodes' state, and must confine shared side effects to its own
/// single-writer cells (DESIGN.md §14.2).
using SnapshotSink = std::function<void(
    NodeId self, const PGraph& local, const std::vector<NodeId>& changed_dests,
    const std::vector<DirectedLink>& touched_links)>;

}  // namespace centaur::core
