// Offline evaluation pipeline (paper S5.2).
//
// Mirrors the paper's measurement methodology on AS topologies:
//  1. derive the complete valley-free best-path set per node ("for each node
//     ... we first derive a complete path set reaching all other nodes");
//  2. build each node's local P-graph from its path set (BuildGraph);
//  3. read off P-graph structure (Table 4), the Permission-List entry
//     distribution (Table 5), and the immediate single-link-failure message
//     counts for BGP vs Centaur (Figure 5, no cascading).
//
// All-pairs over 20k+ nodes is quadratic, so statistics are taken over a
// deterministic sample of vantage nodes / failed links (sample sizes are
// reported by the benches); the destination dimension is always complete.
#pragma once

#include <cstddef>
#include <vector>

#include "centaur/pgraph.hpp"
#include "policy/valley_free.hpp"
#include "topology/as_graph.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace centaur::eval {

using topo::AsGraph;
using topo::LinkId;
using topo::NodeId;

/// Table 4 + Table 5 data over a vantage sample.
struct PGraphStats {
  std::size_t vantage_count = 0;
  /// Table 4 rows (averages per local P-graph).
  double avg_links = 0;
  double avg_plists = 0;
  /// Table 5: distribution of Permission-List entry counts over all active
  /// Permission Lists of all sampled P-graphs.
  std::size_t plists_total = 0;
  double frac_entries_1 = 0;
  double frac_entries_2 = 0;
  double frac_entries_3 = 0;
  double frac_entries_gt3 = 0;
  /// Extra diagnostics (not in the paper's tables but useful):
  util::Accumulator plist_bytes_raw;
  util::Accumulator plist_bytes_bloom;
  util::Accumulator path_length;
  std::size_t unreachable_pairs = 0;
};

/// How each node's "complete path set" (S5.2) is derived.
///
/// kMultipath keeps, per destination, *every* maximally-preferred
/// valley-free path (all co-optimal next hops) — the reading of the
/// paper's "complete path set" that reproduces Table 4/5's shape: with any
/// single-path globally-consistent tie-break, P-graphs collapse to
/// near-trees and carry almost no Permission Lists, whereas the paper
/// reports ~1.5 links per node and 92% of lists with exactly two entries
/// (a destination-sentinel group plus one onward group per in-link of a
/// multi-homed node), which is exactly what co-optimal path sets produce.
///
/// kSinglePath keeps one best path per destination and is provided as an
/// ablation; its `tie_break` defaults to the per-destination-random mode
/// (real BGP breaks ties by effectively arbitrary per-prefix criteria —
/// route age, IGP cost, router id).
enum class PathSetMode { kSinglePath, kMultipath };

/// Which Permission-List placement is counted.
///
/// kPerLink is Table 2 taken literally (every in-link of a multi-homed
/// node carries a list).  kMinimal is the paper's Figure 4(c) placement —
/// the dominant in-link stays unlisted as the default — and is what the
/// paper's Table 4 count (#Permission Lists ~ #extra in-links) and Table 5
/// entry distribution reflect.
enum class PlistScheme { kPerLink, kMinimal };

/// Runs steps 1-3 for `vantage_count` deterministically sampled nodes.
PGraphStats compute_pgraph_stats(
    const AsGraph& g, std::size_t vantage_count, util::Rng& rng,
    PathSetMode mode = PathSetMode::kMultipath,
    PlistScheme scheme = PlistScheme::kMinimal,
    policy::TieBreak tie_break = policy::TieBreak::kPerDestRandom);

/// Builds the local P-graph of a single node from the static valley-free
/// solution (used by examples and tests; compute_pgraph_stats uses the
/// batched per-destination formulation internally).
core::PGraph build_node_pgraph(
    const AsGraph& g, NodeId vantage,
    policy::TieBreak tie_break = policy::TieBreak::kLowestNextHop,
    std::uint64_t tie_seed = 0);

/// Figure 5: immediate update messages caused by one link failure, with no
/// cascading — only what the two endpoint nodes emit.
/// BGP: one per-destination withdrawal per neighbor the route had been
/// exported to.  Centaur: one link withdrawal per neighbor whose exported
/// view contained the failed link.
struct FailureOverhead {
  util::Accumulator bgp_messages;      // one sample per failed link
  util::Accumulator centaur_messages;  // one sample per failed link
  std::size_t links_sampled = 0;
};

FailureOverhead immediate_failure_overhead(
    const AsGraph& g, std::size_t link_sample, util::Rng& rng,
    policy::TieBreak tie_break = policy::TieBreak::kPerDestRandom);

/// S7 extension study: cost of disseminating one node's *complete*
/// co-optimal path set (all maximally-preferred paths per destination).
///
/// Path vector must announce each path separately; Centaur announces the
/// union DAG as links (each link once, plus Permission Lists on multi-homed
/// heads).  The paper anticipates Centaur "can propagate multiple paths for
/// a destination in a more compact and scalable way" — this quantifies it.
struct MultipathDissemination {
  std::size_t destinations = 0;
  double total_paths = 0;          ///< sum over dests of co-optimal paths
  double max_paths_per_dest = 0;   ///< worst-case fan-out
  double path_vector_bytes = 0;    ///< one announcement per path
  std::size_t centaur_links = 0;   ///< links in the union DAG
  std::size_t centaur_bytes = 0;   ///< full-view announcement of the DAG
};

MultipathDissemination multipath_dissemination_cost(const AsGraph& g,
                                                    NodeId vantage);

}  // namespace centaur::eval
