#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "centaur/build_graph.hpp"
#include "centaur/pgraph.hpp"

namespace centaur::core {
namespace {

// Node ids used for readability in the paper-figure tests.
constexpr NodeId A = 0, B = 1, C = 2, D = 3, Dp = 4;  // Dp is D' of Fig 4

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

TEST(PGraph, LinkDataThrowsForMissingLink) {
  PGraph g(A);
  EXPECT_THROW(g.link_data(A, B), std::out_of_range);
}

// ----------------------------------------------------------- DerivePath ---

TEST(DerivePath, RootItself) {
  PGraph g(A);
  const auto p = g.derive_path(A);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, (Path{A}));
}

TEST(DerivePath, SimpleChain) {
  PGraph g(A);
  g.add_link(A, B);
  g.add_link(B, D);
  const auto p = g.derive_path(D);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, (Path{A, B, D}));
}

TEST(DerivePath, UnknownNode) {
  PGraph g(A);
  g.add_link(A, B);
  EXPECT_FALSE(g.derive_path(D).has_value());
}

TEST(DerivePath, DanglingParentChain) {
  PGraph g(A);
  g.add_link(B, D);  // B has no parent and is not the root
  EXPECT_FALSE(g.derive_path(D).has_value());
}

TEST(DerivePath, CorruptCycleThrows) {
  PGraph g(A);
  g.add_link(B, C);
  g.add_link(C, B);
  EXPECT_THROW(g.derive_path(C), std::logic_error);
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
  g.link_data(B, D).plist.add(D, kNoNextHop);  // <C,A,B,D>: D is the dest
  g.link_data(C, D).plist.add(Dp, Dp);         // <C,D,D'>: D's next hop is D'
  return g;
}

TEST(DerivePath, Fig4PolicyCompliantPathForD) {
  const PGraph g = fig4_pgraph();
  const auto p = g.derive_path(D);
  ASSERT_TRUE(p.has_value());
  // NOT the short policy-violating <C,D>.
  EXPECT_EQ(*p, (Path{C, A, B, D}));
}

TEST(DerivePath, Fig4PolicyCompliantPathForDPrime) {
  const PGraph g = fig4_pgraph();
  const auto p = g.derive_path(Dp);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, (Path{C, D, Dp}));
}

TEST(DerivePath, Fig4WithoutPermissionWouldBeAmbiguous) {
  // Strip the permission lists: the multi-homed node now has no permitted
  // in-link, so derivation fails rather than guessing a policy-violating
  // path.
  PGraph g = fig4_pgraph();
  g.link_data(B, D).plist = PermissionList{};
  g.link_data(C, D).plist = PermissionList{};
  EXPECT_FALSE(g.derive_path(D).has_value());
}

TEST(DerivePath, UniquePathPerDestination) {
  // Invariant (S4.2): exactly one policy-compliant path per destination is
  // derivable.  With permission lists in place, check both destinations
  // resolve deterministically even though D has two parents.
  const PGraph g = fig4_pgraph();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(*g.derive_path(D), (Path{C, A, B, D}));
    EXPECT_EQ(*g.derive_path(Dp), (Path{C, D, Dp}));
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
  b.link_data(C, D).plist.add(D, kNoNextHop);
  EXPECT_FALSE(a == b);
  PGraph c = fig4_pgraph();
  c.remove_link(D, Dp);
  EXPECT_FALSE(a == c);
}

}  // namespace
}  // namespace centaur::core
