#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "centaur/build_graph.hpp"
#include "centaur/query.hpp"
#include "policy/valley_free.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace centaur::core {
namespace {

constexpr NodeId A = 0, B = 1, C = 2, D = 3, Dp = 4;

std::map<NodeId, Path> fig4_selection() {
  return {
      {A, {C, A}},
      {B, {C, A, B}},
      {D, {C, A, B, D}},
      {Dp, {C, D, Dp}},
  };
}

TEST(BuildGraph, LinksAndDestinations) {
  const PGraph g = build_local_pgraph(C, fig4_selection());
  EXPECT_EQ(g.root(), C);
  EXPECT_EQ(g.num_links(), 5u);
  EXPECT_TRUE(g.has_link(C, A));
  EXPECT_TRUE(g.has_link(A, B));
  EXPECT_TRUE(g.has_link(B, D));
  EXPECT_TRUE(g.has_link(C, D));
  EXPECT_TRUE(g.has_link(D, Dp));
  EXPECT_EQ(std::vector<NodeId>(g.destinations().begin(),
                                g.destinations().end()),
            (std::vector<NodeId>{A, B, D, Dp}));
}

TEST(BuildGraph, CountersTrackPathsPerLink) {
  const PGraph g = build_local_pgraph(C, fig4_selection());
  // A link's pair count is its path counter: C->A lies on the paths to A,
  // B and D.
  EXPECT_EQ(g.plist(C, A)->dest_count(), 3u);
  EXPECT_EQ(g.plist(A, B)->dest_count(), 2u);
  EXPECT_EQ(g.plist(B, D)->dest_count(), 1u);
  EXPECT_EQ(g.plist(C, D)->dest_count(), 1u);
  EXPECT_EQ(g.plist(D, Dp)->dest_count(), 1u);
}

TEST(BuildGraph, RandomAddRemoveKeepsLinksExactlyWhileCountersArePositive) {
  // One selected path per destination, added, replaced and withdrawn in a
  // random order: each link must be present exactly while a counter model
  // (selected paths through it) reads above zero, and its pair count must
  // equal that counter.
  constexpr NodeId kRoot = 0;
  constexpr NodeId kNodes = 12;
  util::Rng rng(2009);
  const auto random_path = [&](NodeId dest) {
    std::vector<NodeId> pool;
    for (NodeId n = 1; n < kNodes; ++n) {
      if (n != dest) pool.push_back(n);
    }
    Path path{kRoot};
    const std::size_t hops = rng.index(4);
    for (std::size_t h = 0; h < hops; ++h) {
      const std::size_t pick = rng.index(pool.size());
      path.push_back(pool[pick]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    path.push_back(dest);
    return path;
  };
  PGraph g(kRoot);
  std::map<NodeId, Path> selected;
  std::map<DirectedLink, int> counter;
  const auto count = [&](const Path& path, int by) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      counter[DirectedLink{path[i], path[i + 1]}] += by;
    }
  };
  for (int step = 0; step < 3000; ++step) {
    const auto dest = static_cast<NodeId>(1 + rng.index(kNodes - 1));
    const auto it = selected.find(dest);
    if (it == selected.end()) {
      const Path path = random_path(dest);
      add_path_to_pgraph(g, path);
      count(path, +1);
      selected.emplace(dest, path);
    } else {
      // A path for the destination that is not the selected one (or, for
      // an unselected destination below, any path) is not in the graph.
      Path other = random_path(dest);
      if (other != it->second) {
        PGraph copy = g;
        EXPECT_THROW(remove_path_from_pgraph(copy, other), std::logic_error);
        EXPECT_EQ(copy, g) << "step " << step;
      }
      remove_path_from_pgraph(g, it->second);
      count(it->second, -1);
      selected.erase(it);
      if (rng.index(2) == 0) {
        add_path_to_pgraph(g, other);
        count(other, +1);
        selected.emplace(dest, other);
      } else {
        PGraph copy = g;
        EXPECT_THROW(remove_path_from_pgraph(copy, other), std::logic_error);
        EXPECT_EQ(copy, g) << "step " << step;
      }
    }
    std::size_t positive = 0;
    for (const auto& [link, paths] : counter) {
      ASSERT_GE(paths, 0);
      ASSERT_EQ(g.has_link(link.from, link.to), paths > 0)
          << "step " << step << " link " << link.from << "->" << link.to;
      if (paths == 0) continue;
      ++positive;
      const PermissionList* plist = g.plist(link.from, link.to);
      ASSERT_NE(plist, nullptr);
      ASSERT_EQ(plist->dest_count(), static_cast<std::size_t>(paths));
    }
    ASSERT_EQ(g.num_links(), positive) << "step " << step;
    ASSERT_EQ(g.plist_map().size(), positive) << "step " << step;
    ASSERT_EQ(g, build_local_pgraph(kRoot, selected)) << "step " << step;
  }
}

TEST(BuildGraph, RemovingAnAbsentPathThrowsWithTheGraphUnchanged) {
  PGraph g(0);
  add_path_to_pgraph(g, Path{0, 1, 2, 3});
  const PGraph before = g;
  // 0->1 carries the pair (3, next hop 2) of both paths, but 1->2 carries
  // (3, 3), not the (3, 4) of {0,1,2,4,3}: nothing may change before the
  // throw, neither the mark of 3 nor the pair (and so the link) 0->1.
  EXPECT_THROW(remove_path_from_pgraph(g, Path{0, 1, 2, 4, 3}),
               std::logic_error);
  EXPECT_EQ(g, before);
  EXPECT_TRUE(g.is_destination(3));
  EXPECT_TRUE(g.has_link(0, 1));
  remove_path_from_pgraph(g, Path{0, 1, 2, 3});
  EXPECT_EQ(g.num_links(), 0u);
  EXPECT_FALSE(g.is_destination(3));
}

TEST(BuildGraph, PermissionListsOnMultiHomedHead) {
  const PGraph g = build_local_pgraph(C, fig4_selection());
  EXPECT_TRUE(g.multi_homed(D));
  // Table 2 line 7: entries keyed by the next hop of the multi-homed node.
  EXPECT_TRUE(g.plist(B, D)->permits(D, kNoNextHop));
  EXPECT_TRUE(g.plist(C, D)->permits(Dp, Dp));
  EXPECT_FALSE(g.plist(C, D)->permits(D, kNoNextHop));
  EXPECT_EQ(g.active_plist_count(), 2u);
}

TEST(BuildGraph, TrivialSelfPathOnlyMarksDestination) {
  const std::map<NodeId, Path> sel{{C, {C}}};
  const PGraph g = build_local_pgraph(C, sel);
  EXPECT_EQ(g.num_links(), 0u);
  EXPECT_TRUE(g.is_destination(C));
}

TEST(BuildGraph, RejectsPathNotStartingAtRoot) {
  const std::map<NodeId, Path> sel{{D, {A, D}}};
  EXPECT_THROW(build_local_pgraph(C, sel), std::invalid_argument);
}

TEST(BuildGraph, RejectsPathNotEndingAtDest) {
  const std::map<NodeId, Path> sel{{D, {C, A}}};
  EXPECT_THROW(build_local_pgraph(C, sel), std::invalid_argument);
}

TEST(BuildGraph, RetroactivePermissionsWhenNodeBecomesMultiHomed) {
  // First path makes D single-homed; the second gives it a second parent.
  // Entries recorded for the first path must then be visible (the paper's
  // S4.3.2: a Permission List is created when a multi-homed node appears).
  std::map<NodeId, Path> sel{
      {D, {C, A, B, D}},  // D single-homed so far
      {Dp, {C, D, Dp}},   // now D is multi-homed
  };
  sel[A] = {C, A};
  sel[B] = {C, A, B};
  const PGraph g = build_local_pgraph(C, sel);
  EXPECT_TRUE(g.multi_homed(D));
  // The (D, kNoNextHop) entry from the first path must be active on B->D.
  EXPECT_TRUE(g.plist_active(B, D));
  EXPECT_TRUE(g.plist(B, D)->permits(D, kNoNextHop));
}

// ------------------- property: DerivePath inverts BuildGraph --------------

class BuildDeriveRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(BuildDeriveRoundTrip, DerivePathReturnsExactlySelectedPaths) {
  const auto [nodes, seed] = GetParam();
  util::Rng rng(seed);
  const topo::AsGraph topo =
      topo::tiered_internet(topo::caida_like_params(nodes), rng);

  // A handful of vantage points, complete destination set each.
  const auto vantages = rng.sample_without_replacement(nodes, 4);
  // Selected paths from the static valley-free solution.
  std::vector<std::map<NodeId, Path>> selected(vantages.size());
  for (NodeId dest = 0; dest < nodes; ++dest) {
    const auto routes = policy::ValleyFreeRoutes::compute(topo, dest);
    for (std::size_t i = 0; i < vantages.size(); ++i) {
      const NodeId v = static_cast<NodeId>(vantages[i]);
      if (v == dest) {
        selected[i][dest] = Path{v};
      } else if (routes.at(v).reachable()) {
        selected[i][dest] = routes.path_from(v);
      }
    }
  }

  for (std::size_t i = 0; i < vantages.size(); ++i) {
    const NodeId v = static_cast<NodeId>(vantages[i]);
    const PGraph g = build_local_pgraph(v, selected[i]);
    // Invariant 4 (DESIGN.md): the unique derivable path per destination is
    // the path the creator selected.
    for (const auto& [dest, path] : selected[i]) {
      const PathResult derived = query_path(g, {dest});
      ASSERT_TRUE(derived.found()) << "dest " << dest;
      EXPECT_EQ(derived.path, path) << "dest " << dest;
    }
    // Counter invariant 6: a link's pair count equals the number of
    // selected paths through the link.
    std::map<DirectedLink, std::size_t> expect_counts;
    for (const auto& [dest, path] : selected[i]) {
      for (std::size_t k = 0; k + 1 < path.size(); ++k) {
        ++expect_counts[DirectedLink{path[k], path[k + 1]}];
      }
    }
    for (const auto& [link, plist] : g.links()) {
      EXPECT_EQ(plist.dest_count(), expect_counts.at(link));
    }
    EXPECT_EQ(expect_counts.size(), g.num_links());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BuildDeriveRoundTrip,
    ::testing::Combine(::testing::Values<std::size_t>(30, 100),
                       ::testing::Values<std::uint64_t>(2, 23, 1001)));

}  // namespace
}  // namespace centaur::core

namespace centaur::core {
namespace {

TEST(MinimizePlists, DefaultLinkClearedOthersKeepEntries) {
  // Fig 4 selection: D multi-homed with in-links B->D (carries dest D,
  // 1 dest) and C->D (carries dest D', 1 dest).  The sentinel-bearing
  // in-link B->D becomes the default.
  const std::map<NodeId, Path> sel{
      {0, {2, 0}},        // A
      {1, {2, 0, 1}},     // B
      {3, {2, 0, 1, 3}},  // D via the long path
      {4, {2, 3, 4}},     // D' via the short path
  };
  PGraph g = build_local_pgraph(2, sel);
  ASSERT_TRUE(g.multi_homed(3));
  const std::size_t cleared = minimize_permission_lists(g);
  EXPECT_EQ(cleared, 1u);
  EXPECT_EQ(g.plist(1, 3), nullptr);  // default (sentinel): unlisted
  ASSERT_NE(g.plist(2, 3), nullptr);  // exceptional
  EXPECT_TRUE(g.plist(2, 3)->permits(4, 4));
  // DerivePath still resolves both destinations correctly through the
  // explicit-permission-first / default-fallback rule.
  EXPECT_EQ(query_path(g, {3}).path, (Path{2, 0, 1, 3}));
  EXPECT_EQ(query_path(g, {4}).path, (Path{2, 3, 4}));
}

TEST(MinimizePlists, NoopOnTreePGraph) {
  const std::map<NodeId, Path> sel{{1, {0, 1}}, {2, {0, 1, 2}}};
  PGraph g = build_local_pgraph(0, sel);
  EXPECT_EQ(minimize_permission_lists(g), 0u);
}

TEST(MinimizePlists, DerivedPathsUnchangedOnRandomTopologies) {
  util::Rng rng(55);
  const topo::AsGraph topo =
      topo::tiered_internet(topo::caida_like_params(60), rng);
  const NodeId vantage = 11;
  std::map<NodeId, Path> selected;
  for (NodeId dest = 0; dest < topo.num_nodes(); ++dest) {
    if (dest == vantage) {
      selected[dest] = Path{vantage};
      continue;
    }
    const auto routes = policy::ValleyFreeRoutes::compute(
        topo, dest, policy::TieBreak::kPerDestRandom, 99);
    if (routes.at(vantage).reachable()) {
      selected[dest] = routes.path_from(vantage);
    }
  }
  PGraph g = build_local_pgraph(vantage, selected);
  minimize_permission_lists(g);
  for (const auto& [dest, path] : selected) {
    const PathResult derived = query_path(g, {dest});
    ASSERT_TRUE(derived.found()) << dest;
    EXPECT_EQ(derived.path, path) << dest;
  }
}

TEST(MinimizePlists, IncrementalBatchesMatchFullPass) {
  util::Rng rng(77);
  const topo::AsGraph topo =
      topo::tiered_internet(topo::caida_like_params(60), rng);
  const NodeId vantage = 7;
  std::map<NodeId, Path> selected;
  for (NodeId dest = 0; dest < topo.num_nodes(); ++dest) {
    if (dest == vantage) {
      selected[dest] = Path{vantage};
      continue;
    }
    const auto routes = policy::ValleyFreeRoutes::compute(
        topo, dest, policy::TieBreak::kPerDestRandom, 42);
    if (routes.at(vantage).reachable()) {
      selected[dest] = routes.path_from(vantage);
    }
  }
  PGraph full = build_local_pgraph(vantage, selected);
  PGraph batched = full;
  std::vector<NodeId> heads;
  for (const auto& [link, plist] : full.links()) heads.push_back(link.to);
  std::sort(heads.begin(), heads.end());
  heads.erase(std::unique(heads.begin(), heads.end()), heads.end());
  ASSERT_FALSE(heads.empty());
  const std::size_t cleared_full = minimize_permission_lists(full);
  // Partition the candidate heads (still containing single-homed entries)
  // into two batches; batched minimization must land on the same graph and
  // the same cleared count.  Heads may not repeat across batches — the
  // scheme is not idempotent per head.
  const auto half =
      static_cast<std::ptrdiff_t>(heads.size()) / 2;
  std::size_t cleared_batched = minimize_permission_lists_at(
      batched, std::vector<NodeId>(heads.begin(), heads.begin() + half));
  cleared_batched += minimize_permission_lists_at(
      batched, std::vector<NodeId>(heads.begin() + half, heads.end()));
  EXPECT_EQ(cleared_batched, cleared_full);
  EXPECT_EQ(batched, full);
}

TEST(BuildGraph, AcceptsAnyDestPathPairContainer) {
  // The template form accepts the node's own container or an ad-hoc pair
  // vector — no std::map round trip required.
  const std::vector<std::pair<NodeId, Path>> sel{
      {0, {2, 0}}, {1, {2, 0, 1}}, {3, {2, 0, 1, 3}}, {4, {2, 3, 4}}};
  const std::map<NodeId, Path> as_map(sel.begin(), sel.end());
  EXPECT_EQ(build_local_pgraph(2, sel), build_local_pgraph(2, as_map));
}

TEST(DerivePathFallback, TwoUnlistedInLinksAreAmbiguous) {
  PGraph g(0);
  g.add_link(0, 1);
  g.add_link(0, 2);
  g.add_link(1, 3);
  g.add_link(2, 3);
  g.mark_destination(3);
  // 3 is multi-homed with no permission lists at all: ambiguous.
  EXPECT_FALSE(query_path(g, {3}).found());
  // One explicit permission resolves it.
  g.add_permission(1, 3, 3, kNoNextHop);
  EXPECT_EQ(query_path(g, {3}).path, (Path{0, 1, 3}));
}

}  // namespace
}  // namespace centaur::core
