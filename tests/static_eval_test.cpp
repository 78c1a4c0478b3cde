#include <gtest/gtest.h>

#include "centaur/query.hpp"
#include "eval/static_eval.hpp"
#include "policy/valley_free.hpp"
#include "topology/generator.hpp"

namespace centaur::eval {
namespace {

using topo::AsGraph;
using topo::NodeId;

AsGraph test_topology(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  return topo::tiered_internet(topo::caida_like_params(n), rng);
}

TEST(PGraphStats, BasicShape) {
  const AsGraph g = test_topology(120, 8);
  util::Rng rng(1);
  const PGraphStats s = compute_pgraph_stats(g, 10, rng);
  EXPECT_EQ(s.vantage_count, 10u);
  EXPECT_EQ(s.unreachable_pairs, 0u);  // tiered generator: full reachability
  // A local P-graph spans all destinations: at least n-1 links, at most all
  // topology links.
  EXPECT_GE(s.avg_links, static_cast<double>(g.num_nodes() - 1));
  EXPECT_LE(s.avg_links, static_cast<double>(g.num_links()));
  EXPECT_GT(s.avg_plists, 0.0);
  EXPECT_LE(s.avg_plists, s.avg_links);
  // The entry-count fractions form a distribution.
  const double sum = s.frac_entries_1 + s.frac_entries_2 + s.frac_entries_3 +
                     s.frac_entries_gt3;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(s.plists_total, 0u);
  EXPECT_GT(s.path_length.mean(), 1.0);
}

TEST(PGraphStats, VantageSampleClampedToNodeCount) {
  const AsGraph g = test_topology(50, 9);
  util::Rng rng(2);
  const PGraphStats s = compute_pgraph_stats(g, 10'000, rng);
  EXPECT_EQ(s.vantage_count, 50u);
}

TEST(PGraphStats, DeterministicForSeed) {
  const AsGraph g = test_topology(80, 10);
  util::Rng r1(3), r2(3);
  const PGraphStats a = compute_pgraph_stats(g, 8, r1);
  const PGraphStats b = compute_pgraph_stats(g, 8, r2);
  EXPECT_DOUBLE_EQ(a.avg_links, b.avg_links);
  EXPECT_DOUBLE_EQ(a.avg_plists, b.avg_plists);
  EXPECT_EQ(a.plists_total, b.plists_total);
}

TEST(BuildNodePGraph, MatchesSolverPaths) {
  const AsGraph g = test_topology(60, 11);
  const NodeId vantage = 17;
  const core::PGraph pg = build_node_pgraph(g, vantage);
  EXPECT_EQ(pg.root(), vantage);
  for (NodeId dest = 0; dest < g.num_nodes(); ++dest) {
    const auto solver = policy::ValleyFreeRoutes::compute(g, dest);
    const core::PathResult derived = core::query_path(pg, {dest});
    ASSERT_TRUE(derived.found()) << dest;
    EXPECT_EQ(derived.path, solver.path_from(vantage)) << dest;
  }
}

TEST(FailureOverhead, CentaurOrdersOfMagnitudeBelowBgp) {
  const AsGraph g = test_topology(400, 12);
  util::Rng rng(4);
  const FailureOverhead fo = immediate_failure_overhead(g, 80, rng);
  EXPECT_EQ(fo.links_sampled, 80u);
  EXPECT_EQ(fo.bgp_messages.count(), 80u);
  // Centaur withdraws at most one message per (endpoint, neighbor) pair.
  EXPECT_GE(fo.bgp_messages.mean(), fo.centaur_messages.mean());
  // The paper's Fig 5 reports 100-1000x; at this reduced scale expect at
  // least an order of magnitude.
  EXPECT_GT(fo.bgp_messages.mean(), 10 * fo.centaur_messages.mean());
}

TEST(FailureOverhead, CentaurBoundedByNeighborCount) {
  const AsGraph g = test_topology(150, 13);
  util::Rng rng(5);
  const FailureOverhead fo = immediate_failure_overhead(g, 40, rng);
  // A single link failure notifies at most deg(a) + deg(b) neighbors.
  std::size_t max_deg = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    max_deg = std::max(max_deg, g.degree(v));
  }
  EXPECT_LE(fo.centaur_messages.max(), static_cast<double>(2 * max_deg));
}

TEST(FailureOverhead, SampleLargerThanLinksClamped) {
  const AsGraph g = test_topology(30, 14);
  util::Rng rng(6);
  const FailureOverhead fo = immediate_failure_overhead(g, 10'000, rng);
  EXPECT_EQ(fo.links_sampled, g.num_links());
}

}  // namespace
}  // namespace centaur::eval

namespace centaur::eval {
namespace {

TEST(PGraphStats, ModesAndSchemesOrdering) {
  const AsGraph g = test_topology(300, 21);
  auto run = [&](PathSetMode m, PlistScheme s) {
    util::Rng r(3);
    return compute_pgraph_stats(g, 8, r, m, s);
  };
  const auto multi_min = run(PathSetMode::kMultipath, PlistScheme::kMinimal);
  const auto multi_per = run(PathSetMode::kMultipath, PlistScheme::kPerLink);
  const auto single_min = run(PathSetMode::kSinglePath, PlistScheme::kMinimal);
  const auto single_per = run(PathSetMode::kSinglePath, PlistScheme::kPerLink);
  // Multipath P-graphs contain at least as many links as single-path ones.
  EXPECT_GE(multi_min.avg_links, single_min.avg_links);
  // The minimal scheme strictly reduces the number of lists.
  EXPECT_LT(multi_min.avg_plists, multi_per.avg_plists);
  EXPECT_LE(single_min.avg_plists, single_per.avg_plists);
  // Multipath produces multi-homing (Table 4's headline effect).
  EXPECT_GT(multi_min.avg_plists, 0.0);
  EXPECT_GT(multi_min.avg_links,
            static_cast<double>(g.num_nodes() - 1));
}

TEST(PGraphStats, SinglePathStrictTieBreakNearTree) {
  // With a globally consistent tie-break, P-graphs should be trees or very
  // close to trees (the structural argument in DESIGN.md).
  const AsGraph g = test_topology(200, 22);
  util::Rng r(4);
  const auto s =
      compute_pgraph_stats(g, 8, r, PathSetMode::kSinglePath,
                           PlistScheme::kPerLink,
                           policy::TieBreak::kLowestNextHop);
  EXPECT_LT(s.avg_links, static_cast<double>(g.num_nodes()) * 1.02);
}

}  // namespace
}  // namespace centaur::eval

namespace centaur::eval {
namespace {

TEST(MultipathDissemination, CentaurMoreCompactThanPathVector) {
  const AsGraph g = test_topology(150, 31);
  const auto cost = multipath_dissemination_cost(g, 149);
  EXPECT_EQ(cost.destinations, g.num_nodes() - 1);
  // At least one path per destination; some destinations have several.
  EXPECT_GE(cost.total_paths, static_cast<double>(cost.destinations));
  EXPECT_GT(cost.max_paths_per_dest, 1.0);
  // The union DAG never exceeds the topology's link count, and the
  // link-level encoding beats per-path announcements.
  EXPECT_LE(cost.centaur_links, g.num_links());
  EXPECT_LT(static_cast<double>(cost.centaur_bytes), cost.path_vector_bytes);
}

TEST(MultipathDissemination, SinglePathTopologyDegenerates) {
  // A pure chain has exactly one path per destination; path vector and
  // Centaur costs are then within a small constant of each other.
  AsGraph g(6);
  for (NodeId v = 0; v + 1 < 6; ++v) {
    g.add_link(v, v + 1, topo::Relationship::kSibling);
  }
  const auto cost = multipath_dissemination_cost(g, 0);
  EXPECT_EQ(cost.destinations, 5u);
  EXPECT_DOUBLE_EQ(cost.total_paths, 5.0);
  EXPECT_DOUBLE_EQ(cost.max_paths_per_dest, 1.0);
  EXPECT_EQ(cost.centaur_links, 5u);
}

}  // namespace
}  // namespace centaur::eval
