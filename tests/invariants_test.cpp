// Tests for the protocol invariant checker (src/check).
//
// The structural tests hand-corrupt P-graphs — through the public API where
// it permits the breakage, through the PGraphCorruptor backdoor where it
// does not — and assert the checker reports the exact invariant seeded.
// The sim-level tests run full init + failure scenarios and assert a clean
// report, independent of build type (the analyzer is attached explicitly).
#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "centaur/build_graph.hpp"
#include "centaur/centaur_node.hpp"
#include "centaur/pgraph.hpp"
#include "check/analyzer.hpp"
#include "check/invariants.hpp"
#include "sim/network.hpp"
#include "test_helpers.hpp"
#include "topology/as_graph.hpp"
#include "util/rng.hpp"

namespace centaur::core {

// Seeds the structural corruption the public PGraph API refuses to produce
// (see the friend declaration in pgraph.hpp).
struct PGraphCorruptor {
  /// Records `from` as a parent of `to` without counting the link.
  static void add_dangling_parent(PGraph& g, NodeId from, NodeId to) {
    PGraph::AdjList& ps = g.parents_.ensure(to);
    ps.insert(std::upper_bound(ps.begin(), ps.end(), from), from);
  }
  /// Destroys the sorted-ascending ordering of parents[of].
  static void unsort_parents(PGraph& g, NodeId of) {
    PGraph::AdjList& ps = g.parents_.ensure(of);
    std::reverse(ps.begin(), ps.end());
  }
  /// Stores `list` for from->to as is: empty, or on a missing link.
  static void store_plist(PGraph& g, NodeId from, NodeId to,
                          const PermissionList& list) {
    g.plists_[pack_link(from, to)] = list;
  }
};

}  // namespace centaur::core

namespace centaur::check {
namespace {

using core::PGraph;
using core::PGraphCorruptor;
using topo::NodeId;
using topo::Path;

bool has(const std::vector<Violation>& vs, Invariant inv) {
  return std::any_of(vs.begin(), vs.end(),
                     [inv](const Violation& v) { return v.invariant == inv; });
}

/// The detail of the first violation of `inv` (empty if none).
std::string detail_of(const std::vector<Violation>& vs, Invariant inv) {
  const auto it = std::find_if(vs.begin(), vs.end(), [inv](const Violation& v) {
    return v.invariant == inv;
  });
  return it != vs.end() ? it->detail : std::string();
}

std::map<NodeId, Path> two_paths() {
  return {{1, Path{0, 1}}, {2, Path{0, 1, 2}}};
}

/// Inserts from->to carrying one selected path's pair, as BuildGraph does.
void link(PGraph& g, NodeId from, NodeId to) {
  g.add_permission(from, to, to, core::kNoNextHop);
}

TEST(CheckPGraph, CleanLocalGraphPasses) {
  const PGraph g = core::build_local_pgraph(0, two_paths());
  EXPECT_TRUE(check_pgraph(g).empty());
  EXPECT_TRUE(check_counters_against(g, two_paths()).empty());
}

TEST(CheckPGraph, EmptyGraphPasses) {
  EXPECT_TRUE(check_pgraph(PGraph{}).empty());
}

TEST(CheckPGraph, CycleIsDetected) {
  PGraph g(0);
  link(g, 0, 1);
  link(g, 1, 2);
  link(g, 2, 1);  // 1 -> 2 -> 1
  const auto vs = check_pgraph(g);
  EXPECT_TRUE(has(vs, Invariant::kAcyclic));

  PGraphCheckOptions relaxed;
  relaxed.require_acyclic = false;
  EXPECT_FALSE(has(check_pgraph(g, relaxed), Invariant::kAcyclic));
}

TEST(CheckPGraph, DanglingParentEntryIsDetected) {
  // The parents index is the link set, so a parent entry the kept link
  // count does not account for is a link only half inserted.
  PGraph g(0);
  link(g, 0, 1);
  PGraphCorruptor::add_dangling_parent(g, 5, 1);  // parents[1] lists 5->1
  const auto vs = check_pgraph(g);
  ASSERT_TRUE(has(vs, Invariant::kAdjacency));
  // The report names both counts.
  const std::string detail = detail_of(vs, Invariant::kAdjacency);
  EXPECT_NE(detail.find("num_links() is 1"), std::string::npos) << detail;
  EXPECT_NE(detail.find("holds 2 links"), std::string::npos) << detail;
}

TEST(CheckPGraph, StoredEmptyListIsDetected) {
  PGraph g = core::build_local_pgraph(0, two_paths());
  PGraphCorruptor::store_plist(g, 1, 2, core::PermissionList{});
  const auto vs = check_pgraph(g, neighbor_graph_options());
  ASSERT_TRUE(has(vs, Invariant::kAdjacency));
  const std::string detail = detail_of(vs, Invariant::kAdjacency);
  EXPECT_NE(detail.find("1->2"), std::string::npos) << detail;
  EXPECT_NE(detail.find("empty"), std::string::npos) << detail;
}

TEST(CheckPGraph, ListOnAMissingLinkIsDetected) {
  PGraph g = core::build_local_pgraph(0, two_paths());
  core::PermissionList stray;
  stray.add(3, core::kNoNextHop);
  PGraphCorruptor::store_plist(g, 2, 3, stray);  // 2->3 is no link
  const auto vs = check_pgraph(g, neighbor_graph_options());
  ASSERT_TRUE(has(vs, Invariant::kAdjacency));
  const std::string detail = detail_of(vs, Invariant::kAdjacency);
  EXPECT_NE(detail.find("2->3"), std::string::npos) << detail;
  EXPECT_NE(detail.find("missing from parents[3]"), std::string::npos)
      << detail;
}

TEST(CheckPGraph, UnsortedAdjacencyIsDetected) {
  PGraph g(0);
  link(g, 0, 1);
  link(g, 0, 2);
  link(g, 1, 3);
  link(g, 2, 3);
  ASSERT_TRUE(check_pgraph(g).empty());
  PGraphCorruptor::unsort_parents(g, 3);  // parents[3] becomes {2, 1}
  EXPECT_TRUE(has(check_pgraph(g), Invariant::kAdjacencySorted));
}

TEST(CheckPGraph, RootWithParentIsDetected) {
  PGraph g(0);
  link(g, 0, 1);
  link(g, 1, 0);  // nothing may point at the root
  EXPECT_TRUE(has(check_pgraph(g), Invariant::kRootNoParents));
}

TEST(CheckPGraph, RootUnreachableNodeIsDetected) {
  PGraph g(0);
  link(g, 0, 1);
  link(g, 2, 3);  // island: 2 and 3 never reach the root
  const auto vs = check_pgraph(g);
  EXPECT_TRUE(has(vs, Invariant::kRootReachable));

  PGraphCheckOptions relaxed = neighbor_graph_options();
  EXPECT_FALSE(has(check_pgraph(g, relaxed), Invariant::kRootReachable));
}

TEST(CheckPGraph, ZeroCounterOnStoredLinkIsDetected) {
  // A local link's counter is its list's pair count: an unlisted local
  // link should have been withdrawn.
  PGraph g = core::build_local_pgraph(0, two_paths());
  g.set_plist(1, 2, core::PermissionList{});
  const auto vs = check_pgraph(g);
  ASSERT_TRUE(has(vs, Invariant::kCounter));
  EXPECT_NE(detail_of(vs, Invariant::kCounter).find("1->2"), std::string::npos);
  // Received graphs carry unlisted links legitimately.
  EXPECT_FALSE(has(check_pgraph(g, neighbor_graph_options()),
                   Invariant::kCounter));
}

TEST(CheckPGraph, StaleCounterIsDetected) {
  PGraph g = core::build_local_pgraph(0, two_paths());
  // Two selected paths traverse 0->1; a third pair makes its count 3.
  g.add_permission(0, 1, 7, 7);
  const auto vs = check_counters_against(g, two_paths());
  ASSERT_TRUE(has(vs, Invariant::kCounter));
  EXPECT_NE(detail_of(vs, Invariant::kCounter).find("0->1"),
            std::string::npos)
      << detail_of(vs, Invariant::kCounter);
}

TEST(CheckPGraph, UntraversedLinkIsDetected) {
  PGraph g = core::build_local_pgraph(0, two_paths());
  link(g, 1, 3);  // no selected path uses it
  EXPECT_TRUE(has(check_counters_against(g, two_paths()), Invariant::kCounter));
}

TEST(CheckPGraph, PlistOnSingleHomedHeadFailsWireForm) {
  PGraph g(0);
  link(g, 0, 1);
  link(g, 1, 2);  // head 2 is single-homed
  EXPECT_TRUE(has(check_pgraph(g, wire_form_options()),
                  Invariant::kPlistActivation));
  // The default (BuildGraph) contract keeps inactive entries everywhere.
  EXPECT_FALSE(has(check_pgraph(g), Invariant::kPlistActivation));
}

TEST(CheckPGraph, MissingDestinationMarkIsDetected) {
  PGraph g = core::build_local_pgraph(0, two_paths());
  g.unmark_destination(2);
  EXPECT_TRUE(has(check_counters_against(g, two_paths()),
                  Invariant::kDestinationMark));
}

TEST(CheckPGraph, MarkedButAbsentDestinationIsDetected) {
  PGraph g = core::build_local_pgraph(0, two_paths());
  g.mark_destination(9);  // 9 appears nowhere in the graph
  EXPECT_TRUE(has(check_pgraph(g), Invariant::kDestinationMark));
}

TEST(CheckPGraph, LoopingSelectedPathIsDetected) {
  const PGraph g = core::build_local_pgraph(0, two_paths());
  std::map<NodeId, Path> looping = two_paths();
  looping[2] = Path{0, 1, 0, 2};  // revisits 0
  EXPECT_TRUE(has(check_counters_against(g, looping), Invariant::kLoopFree));
}

// ---------------------------------------------------------------- sim level

// Full protocol runs on the Figure 4 topology must produce a clean report:
// the analyzer re-checks every touched node after each event and every node
// at each quiescence sweep.
TEST(AnalyzerSim, InitAndFailureRunReportZeroViolations) {
  topo::AsGraph g = testing::fig4_topology();
  util::Rng rng(7);
  sim::Network net(g, rng);
  Analyzer analyzer(net);
  for (topo::NodeId v = 0; v < g.num_nodes(); ++v) {
    net.attach(v, std::make_unique<core::CentaurNode>(g));
  }
  net.mark();
  net.start_all_and_converge();
  analyzer.check_all();

  const auto bd = g.find_link(1, 3);  // fail B-D, reroute via C
  ASSERT_TRUE(bd.has_value());
  net.mark();
  net.set_link_state(*bd, false);
  net.run_to_convergence();
  analyzer.check_all();

  net.mark();
  net.set_link_state(*bd, true);  // and recover
  net.run_to_convergence();
  analyzer.check_all();

  EXPECT_GT(analyzer.report().checks_run, 0u);
  EXPECT_TRUE(analyzer.report().clean()) << [&] {
    std::ostringstream os;
    analyzer.report().print(os);
    return os.str();
  }();
}

// A received graph that no longer matches its sender's view — here after a
// forged update adds a link the sender never announced — fails the
// quiescence sweep's session check.
TEST(AnalyzerSim, ForgedUpdateBreaksReceivedView) {
  topo::AsGraph g = testing::square_topology();
  util::Rng rng(5);
  sim::Network net(g, rng);
  Analyzer analyzer(net);
  for (topo::NodeId v = 0; v < g.num_nodes(); ++v) {
    net.attach(v, std::make_unique<core::CentaurNode>(g));
  }
  net.start_all_and_converge();
  analyzer.check_all();
  ASSERT_TRUE(analyzer.report().clean());

  core::GraphDelta forged;  // "C -> B", claimed by C towards A
  forged.upserts.emplace_back(core::DirectedLink{2, 1},
                              core::PermissionList{});
  net.send(2, 0, std::make_shared<core::CentaurUpdate>(std::move(forged)));
  net.run_to_convergence();
  analyzer.check_all();
  const std::vector<AnalysisEntry>& entries = analyzer.report().entries;
  EXPECT_TRUE(std::any_of(entries.begin(), entries.end(), [](const auto& e) {
    return e.node == 0 && e.violation.invariant == Invariant::kReceivedView;
  }));
}

// The event hook detaches with the analyzer: a second analyzer attached
// after the first is destroyed keeps working.
TEST(AnalyzerSim, DetachesOnDestruction) {
  topo::AsGraph g = testing::square_topology();
  util::Rng rng(3);
  sim::Network net(g, rng);
  for (topo::NodeId v = 0; v < g.num_nodes(); ++v) {
    net.attach(v, std::make_unique<core::CentaurNode>(g));
  }
  { Analyzer scoped(net); }  // attach + detach before any event
  Analyzer analyzer(net);
  net.mark();
  net.start_all_and_converge();
  analyzer.check_all();
  EXPECT_TRUE(analyzer.report().clean());
  EXPECT_GT(analyzer.report().checks_run, 0u);
}

}  // namespace
}  // namespace centaur::check
