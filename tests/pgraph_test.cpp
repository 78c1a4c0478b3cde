#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "centaur/build_graph.hpp"
#include "centaur/pgraph.hpp"
#include "centaur/query.hpp"

namespace centaur::core {
namespace {

// Node ids used for readability in the paper-figure tests.
constexpr NodeId A = 0, B = 1, C = 2, D = 3, Dp = 4;  // Dp is D' of Fig 4

PermissionList plist_of(NodeId dest, NodeId next_hop) {
  PermissionList l;
  l.add(dest, next_hop);
  return l;
}

TEST(PGraph, AddRemoveLinks) {
  PGraph g(A);
  EXPECT_TRUE(g.add_link(A, B));
  EXPECT_FALSE(g.add_link(A, B));  // idempotent
  EXPECT_TRUE(g.has_link(A, B));
  EXPECT_EQ(g.num_links(), 1u);
  EXPECT_TRUE(g.remove_link(A, B));
  EXPECT_FALSE(g.remove_link(A, B));
  EXPECT_EQ(g.num_links(), 0u);
}

TEST(PGraph, DirectednessMatters) {
  PGraph g(A);
  g.add_link(A, B);
  EXPECT_FALSE(g.has_link(B, A));
  EXPECT_EQ(g.in_degree(B), 1u);
  EXPECT_EQ(g.in_degree(A), 0u);
}

TEST(PGraph, SelfLoopRejected) {
  PGraph g(A);
  EXPECT_THROW(g.add_link(A, A), std::invalid_argument);
}

TEST(PGraph, ParentsChildrenMultiHoming) {
  PGraph g(A);
  g.add_link(A, B);
  g.add_link(A, C);
  g.add_link(B, D);
  g.add_link(C, D);
  EXPECT_TRUE(std::ranges::equal(g.parents(D), std::vector<NodeId>{B, C}));
  EXPECT_TRUE(g.multi_homed(D));
  EXPECT_FALSE(g.multi_homed(B));
  g.remove_link(C, D);
  EXPECT_FALSE(g.multi_homed(D));
}

TEST(PGraph, DestinationMarks) {
  PGraph g(A);
  g.mark_destination(B);
  EXPECT_TRUE(g.is_destination(B));
  EXPECT_TRUE(g.unmark_destination(B));
  EXPECT_FALSE(g.unmark_destination(B));
}

TEST(PGraph, ResetClearsEverything) {
  PGraph g(A);
  g.add_link(A, B);
  g.mark_destination(B);
  g.reset(C);
  EXPECT_EQ(g.root(), C);
  EXPECT_EQ(g.num_links(), 0u);
  EXPECT_TRUE(g.destinations().empty());
}

TEST(PGraph, SetPlistThrowsForMissingLink) {
  PGraph g(A);
  EXPECT_THROW(g.set_plist(A, B, plist_of(B, kNoNextHop)), std::out_of_range);
  EXPECT_EQ(g.plist(A, B), nullptr);
  EXPECT_TRUE(g.plist_map().empty());
}

TEST(PGraph, ListsLiveOnlyWhereNonEmpty) {
  PGraph g(A);
  g.add_link(A, B);
  EXPECT_EQ(g.plist(A, B), nullptr);  // a new link is unlisted
  g.set_plist(A, B, plist_of(B, kNoNextHop));
  ASSERT_NE(g.plist(A, B), nullptr);
  EXPECT_TRUE(g.plist(A, B)->permits(B, kNoNextHop));
  g.set_plist(A, B, PermissionList{});  // emptying unlists, the link stays
  EXPECT_EQ(g.plist(A, B), nullptr);
  EXPECT_TRUE(g.has_link(A, B));
  EXPECT_TRUE(g.plist_map().empty());

  g.set_plist(A, B, plist_of(B, kNoNextHop));
  EXPECT_TRUE(g.remove_link(A, B));  // the list goes with its link
  EXPECT_TRUE(g.plist_map().empty());
  EXPECT_EQ(g.num_links(), 0u);
}

TEST(PGraph, PermissionPairsCountSelectedPaths) {
  // add_permission inserts the link with its first pair; withdraw_permission
  // drops the link with its last (S4.3.2's counter rule).
  PGraph g(A);
  EXPECT_TRUE(g.add_permission(A, B, B, kNoNextHop));
  EXPECT_FALSE(g.add_permission(A, B, D, D));
  EXPECT_EQ(g.plist(A, B)->dest_count(), 2u);
  EXPECT_FALSE(g.withdraw_permission(A, B, D, B));  // pair absent
  EXPECT_FALSE(g.withdraw_permission(B, D, D, kNoNextHop));  // link absent
  EXPECT_TRUE(g.withdraw_permission(A, B, D, D));
  EXPECT_TRUE(g.has_link(A, B));
  EXPECT_TRUE(g.withdraw_permission(A, B, B, kNoNextHop));
  EXPECT_FALSE(g.has_link(A, B));
  EXPECT_EQ(g.num_links(), 0u);
  EXPECT_TRUE(g.plist_map().empty());
}

TEST(PGraph, LinksYieldEveryLinkWithItsList) {
  PGraph g(A);
  g.add_link(A, B);
  g.add_link(A, C);
  g.add_link(C, B);
  g.set_plist(C, B, plist_of(B, kNoNextHop));
  std::vector<std::pair<DirectedLink, std::size_t>> seen;
  for (const auto& [link, plist] : g.links()) {
    seen.emplace_back(link, plist.dest_count());
  }
  std::sort(seen.begin(), seen.end());
  const std::vector<std::pair<DirectedLink, std::size_t>> want{
      {{A, B}, 0}, {{A, C}, 0}, {{C, B}, 1}};
  EXPECT_EQ(seen, want);
  EXPECT_EQ(g.links().size(), 3u);
  g.remove_link(A, B);  // leaves parents[B] = {C}
  g.remove_link(C, B);  // empties parents[B] in place
  std::size_t left = 0;
  for (const auto& [link, plist] : g.links()) {
    EXPECT_EQ(link, (DirectedLink{A, C}));
    ++left;
  }
  EXPECT_EQ(left, 1u);
}

// ----------------------------------------------------------- DerivePath ---

TEST(DerivePath, RootItself) {
  PGraph g(A);
  const PathResult p = query_path(g, {A});
  ASSERT_TRUE(p.found());
  EXPECT_EQ(p.path, (Path{A}));
}

TEST(DerivePath, SimpleChain) {
  PGraph g(A);
  g.add_link(A, B);
  g.add_link(B, D);
  const PathResult p = query_path(g, {D});
  ASSERT_TRUE(p.found());
  EXPECT_EQ(p.path, (Path{A, B, D}));
}

TEST(DerivePath, UnknownNode) {
  PGraph g(A);
  g.add_link(A, B);
  EXPECT_FALSE(query_path(g, {D}).found());
}

TEST(DerivePath, DanglingParentChain) {
  PGraph g(A);
  g.add_link(B, D);  // B has no parent and is not the root
  EXPECT_FALSE(query_path(g, {D}).found());
}

TEST(DerivePath, CorruptCycleThrows) {
  PGraph g(A);
  g.add_link(B, C);
  g.add_link(C, B);
  EXPECT_THROW(query_path(g, {C}), std::logic_error);
}

/// The paper's Figure 4(c) scenario: C prefers <C,A,B,D> for destination D
/// but uses <C,D,D'> for destination D', so C->D is announced as a
/// downstream link.  D becomes multi-homed in C's local P-graph; the
/// Permission Lists must make DerivePath return exactly the paths C uses.
PGraph fig4_pgraph() {
  PGraph g(C);
  g.add_link(C, A);
  g.add_link(A, B);
  g.add_link(B, D);
  g.add_link(C, D);
  g.add_link(D, Dp);
  g.mark_destination(D);
  g.mark_destination(Dp);
  // D is multi-homed: permission lists on both in-links.
  g.set_plist(B, D, plist_of(D, kNoNextHop));  // <C,A,B,D>: D is the dest
  g.set_plist(C, D, plist_of(Dp, Dp));  // <C,D,D'>: D's next hop is D'
  return g;
}

TEST(DerivePath, Fig4PolicyCompliantPathForD) {
  const PGraph g = fig4_pgraph();
  const PathResult p = query_path(g, {D});
  ASSERT_TRUE(p.found());
  // NOT the short policy-violating <C,D>.
  EXPECT_EQ(p.path, (Path{C, A, B, D}));
}

TEST(DerivePath, Fig4PolicyCompliantPathForDPrime) {
  const PGraph g = fig4_pgraph();
  const PathResult p = query_path(g, {Dp});
  ASSERT_TRUE(p.found());
  EXPECT_EQ(p.path, (Path{C, D, Dp}));
}

TEST(DerivePath, Fig4WithoutPermissionWouldBeAmbiguous) {
  // Strip the permission lists: the multi-homed node now has no permitted
  // in-link, so derivation fails rather than guessing a policy-violating
  // path.
  PGraph g = fig4_pgraph();
  g.set_plist(B, D, PermissionList{});
  g.set_plist(C, D, PermissionList{});
  EXPECT_FALSE(query_path(g, {D}).found());
}

TEST(DerivePath, UniquePathPerDestination) {
  // Invariant (S4.2): exactly one policy-compliant path per destination is
  // derivable.  With permission lists in place, check both destinations
  // resolve deterministically even though D has two parents.
  const PGraph g = fig4_pgraph();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(query_path(g, {D}).path, (Path{C, A, B, D}));
    EXPECT_EQ(query_path(g, {Dp}).path, (Path{C, D, Dp}));
  }
}

TEST(PGraph, ActivePlistCount) {
  const PGraph g = fig4_pgraph();
  // Two in-links of the multi-homed D carry permission lists; D' is
  // single-homed so D->D' carries none.
  EXPECT_EQ(g.active_plist_count(), 2u);
}

TEST(PGraph, EqualityIncludesPlists) {
  const PGraph a = fig4_pgraph();
  PGraph b = fig4_pgraph();
  EXPECT_TRUE(a == b);
  PermissionList widened = *b.plist(C, D);
  widened.add(D, kNoNextHop);
  b.set_plist(C, D, widened);
  EXPECT_FALSE(a == b);
  PGraph c = fig4_pgraph();
  c.remove_link(D, Dp);
  EXPECT_FALSE(a == c);
  // An emptied parents slot counts as absent.
  PGraph d = fig4_pgraph();
  d.add_link(A, C);
  d.remove_link(A, C);
  EXPECT_TRUE(a == d);
  EXPECT_TRUE(d == a);
}

}  // namespace
}  // namespace centaur::core
