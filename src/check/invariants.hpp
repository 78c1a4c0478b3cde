// Protocol invariant checker (analysis layer).
//
// Centaur's correctness rests on structural invariants the paper states but
// the protocol code never re-verifies: per-link counters — a local link's
// Permission-List pair count — equal the number of selected paths
// traversing the link (S4.3.2), Permission Lists are active
// exactly on links whose head is multi-homed (S4.1/S4.3.2), every selected
// and derived path is loop-free so DerivePath (Table 1) terminates, and the
// selected table stays consistent with the per-neighbor derived caches.
// This module checks those properties on demand — over a bare PGraph or over a
// full CentaurNode (local P-graph, per-neighbor RIB graphs, derived-path
// caches) — and reports every breach as a typed Violation.
//
// The checkers are pure observers: they never mutate the graphs they
// inspect and are safe to run at any event boundary.  analyzer.hpp wires
// them into the simulator's "analysis mode".
#pragma once

#include <map>
#include <string>
#include <vector>

#include "centaur/centaur_node.hpp"
#include "centaur/pgraph.hpp"

namespace centaur::check {

using core::PGraph;
using topo::NodeId;
using topo::Path;

/// Identifies which invariant a Violation breaches.
enum class Invariant {
  kRootValid,        ///< non-empty graph must have a valid root
  kRootNoParents,    ///< no link may point at the P-graph root
  kAdjacency,        ///< link count and list table match the parents index
  kAdjacencySorted,  ///< parent lists sorted ascending, duplicate-free
  kAcyclic,          ///< P-graph must be a DAG (DerivePath termination)
  kRootReachable,    ///< every node must reach the root via parent links
  kPlistActivation,  ///< plist only on links whose head is multi-homed
  kCounter,          ///< link pair counts == selected paths traversing it
  kDestinationMark,  ///< destination marks == selected path endpoints
  kLoopFree,         ///< selected/derived paths must not revisit a node
  kLocalRebuild,     ///< local P-graph == BuildGraph(selected path set)
  kNeighborRoot,     ///< RIB P-graph for neighbor B must be rooted at B
  kDerivedCache,     ///< cached derived paths == fresh DerivePath results
  kSelection,        ///< selections extend derived paths, rank best
  kExportView,       ///< category views == make_export_view(local P-graph)
  kReceivedView,     ///< RIB graph == sender's view, imported (quiescence)
  // Route-audit classes (DESIGN.md §15): breaches of the *policy* contract
  // against the ground-truth AS graph, reported by the analyzer's route
  // audit rather than the structural node checks above.
  kLeakedRoute,       ///< selected path violates valley-freeness
  kInterceptedRoute,  ///< selected path crosses a fabricated adjacency
};

const char* to_string(Invariant inv);

/// One invariant breach, with a human-readable detail naming the offending
/// nodes/links.
struct Violation {
  Invariant invariant;
  std::string detail;
};

/// Tuning for check_pgraph.  The defaults fit a *local* P-graph built by
/// BuildGraph from a selected path set.  Per-neighbor graphs assembled from
/// announcements are weaker in three documented ways (see
/// neighbor_graph_options below), so they use a relaxed preset.
struct PGraphCheckOptions {
  /// Require the graph to be a DAG.  On by default for bare graphs, but
  /// check_centaur_node disables it for protocol P-graphs: a union of
  /// per-destination policy paths may legitimately order two nodes both
  /// ways (destination X routed ...A,B... while destination Y routes
  /// ...B,A...), even at convergence — the equivalence tests show such
  /// states matching the static valley-free solver exactly.  The paper's
  /// acyclicity holds *per destination*: each selected/derived path is
  /// loop-free (kLoopFree) and DerivePath's visited guard bounds every
  /// backtracking walk (kDerivedCache reports walks that trip it).
  bool require_acyclic = true;
  /// Require every node to reach the root via parent links.  Always true
  /// for local graphs (unions of root-anchored paths).  False for received
  /// graphs: loop elimination (announce.hpp apply_delta Step 2) drops links
  /// pointing at the importer, which may orphan a downstream fragment.
  bool require_root_reachable = true;
  /// Require a non-empty Permission List on every stored link: a local
  /// link's pair count is its counter, and S4.3.2 withdraws a link exactly
  /// when its counter drops to zero.  False for received graphs, whose
  /// lists are the announced ones (empty at single-homed heads).
  bool require_positive_counters = true;
  /// Forbid a non-empty Permission List on a link whose head is
  /// single-homed — the wire-form rule (S4.1: lists exist only at
  /// multi-homed nodes).  False by default: BuildGraph deliberately keeps
  /// inactive entries on every local link, and import filtering can reduce
  /// a head's in-degree after its list was (correctly) announced.
  bool plists_imply_multihomed = false;
  /// Require every marked destination to appear in the graph.  True for
  /// local graphs (each mark comes from a selected path ending there);
  /// false for received graphs (import filters can drop a destination's
  /// links but not its mark).
  bool destinations_in_graph = true;
};

/// Preset for P-graphs assembled from a neighbor's announcements.
inline PGraphCheckOptions neighbor_graph_options() {
  PGraphCheckOptions o;
  o.require_root_reachable = false;
  o.require_positive_counters = false;
  o.plists_imply_multihomed = false;
  o.destinations_in_graph = false;
  return o;
}

/// Preset for the strict wire form (exported views, corrupted-graph tests):
/// local defaults plus the plist-activation rule.
inline PGraphCheckOptions wire_form_options() {
  PGraphCheckOptions o;
  o.plists_imply_multihomed = true;
  return o;
}

/// Checks one P-graph's structural invariants: sorted duplicate-free parent
/// lists that the link count accounts for, a list table holding only
/// non-empty lists of links in the parents index, acyclicity (iterative
/// DFS), root reachability, plist activation, and positive counters (the
/// last four per `options`).  Returns every breach found.
std::vector<Violation> check_pgraph(const PGraph& g,
                                    const PGraphCheckOptions& options = {});

/// Checks that `g`'s per-link pair counts equal the number of paths in
/// `selected` traversing each link (S4.3.2), that no stored link is unused
/// by every selected path, that destination marks match the selected path
/// endpoints exactly, and that every selected path is loop-free.
/// `selected` is any (destination, path) pair container with count();
/// instantiated in invariants.cpp for std::map and util::VecMap (the node's
/// own selected-path storage).
template <typename SelectedPaths>
std::vector<Violation> check_counters_against(const PGraph& g,
                                              const SelectedPaths& selected);

/// Full node-level check, valid at every event boundary: the local P-graph
/// (structure, counters, marks, loop-free paths) against the selected path
/// set, a BuildGraph-rebuild equivalence check, selection consistency
/// (every selected path extends its first-hop neighbor's derived path, and
/// every selection is what a from-scratch ranking of the candidates picks),
/// both stored category export views against make_export_view, and for
/// every RIB neighbor B: the graph is rooted at B, passes the relaxed
/// structural checks, and its derived-path cache matches fresh DerivePath
/// results for every marked destination.
std::vector<Violation> check_centaur_node(const core::CentaurNode& node);

/// Session check, valid only at quiescence (every sent update delivered):
/// the graph `receiver` (node u) holds from its neighbor `sender` (node v)
/// equals v's view for u rebuilt from v's local P-graph
/// (CentaurNode::reference_view), imported by u — links into u dropped,
/// u's import filter applied.  Empty when u holds no graph from v.
std::vector<Violation> check_received_view(const core::CentaurNode& receiver,
                                           NodeId u,
                                           const core::CentaurNode& sender,
                                           NodeId v);

}  // namespace centaur::check
