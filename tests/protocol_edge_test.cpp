// Edge cases and robustness properties for the protocol implementations:
// import filters, origination control, session churn storms, simultaneous
// failures, same-burst coalescing, and determinism.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "bgp/bgp_node.hpp"
#include "centaur/centaur_node.hpp"
#include "check/analyzer.hpp"
#include "eval/experiments.hpp"
#include "policy/valley_free.hpp"
#include "test_helpers.hpp"
#include "topology/generator.hpp"

namespace centaur {
namespace {

using centaur::testing::TestNet;
using core::CentaurNode;
using topo::AsGraph;
using topo::LinkId;
using topo::NodeId;
using topo::Path;
using topo::Relationship;

// ----------------------------------------------------- Centaur options ----

TEST(CentaurEdge, ImportFilterBlocksLinks) {
  // A(0)-B(1), A-C(2), B-D(3), C-D; A refuses to import the link B->D, so
  // its only route to D goes via C.
  TestNet<CentaurNode> net(
      centaur::testing::square_topology(), [](NodeId v, AsGraph& g) {
        CentaurNode::Config cfg;
        if (v == 0) {
          cfg.import_link_filter = [](NodeId, NodeId from, NodeId to) {
            return !(from == 1 && to == 3);
          };
        }
        return std::make_unique<CentaurNode>(g, cfg);
      });
  EXPECT_EQ(net.node(0).selected_path(3), (Path{0, 2, 3}));
  // Unfiltered nodes still take the tie-break winner via B.
  EXPECT_EQ(net.node(3).selected_path(0), (Path{3, 1, 0}));
}

TEST(CentaurEdge, OriginationCanBeDisabled) {
  AsGraph g(3);
  g.add_link(0, 1, Relationship::kSibling);
  g.add_link(1, 2, Relationship::kSibling);
  TestNet<CentaurNode> net(g, [](NodeId v, AsGraph& gr) {
    CentaurNode::Config cfg;
    cfg.originate_prefix = (v != 2);
    return std::make_unique<CentaurNode>(gr, cfg);
  });
  EXPECT_FALSE(net.node(0).selected_path(2).has_value());
  EXPECT_TRUE(net.node(2).selected_path(0).has_value());
}

TEST(CentaurEdge, NeighborPgraphAbsentForStrangers) {
  AsGraph g(3);
  g.add_link(0, 1, Relationship::kPeer);
  g.add_link(1, 2, Relationship::kPeer);
  TestNet<CentaurNode> net(g);
  EXPECT_NE(net.node(0).neighbor_pgraph(1), nullptr);
  EXPECT_EQ(net.node(0).neighbor_pgraph(2), nullptr);  // not adjacent
}

TEST(CentaurEdge, UpdateDescribeIsInformative) {
  core::GraphDelta d;
  d.reset = true;
  d.upserts.emplace_back(core::DirectedLink{1, 2}, core::PermissionList{});
  d.dest_adds.push_back(7);
  const core::CentaurUpdate msg(d);
  const std::string s = msg.describe();
  EXPECT_NE(s.find("+1 links"), std::string::npos);
  EXPECT_NE(s.find("+1 dests"), std::string::npos);
  EXPECT_NE(s.find("reset"), std::string::npos);
  // Exact codec length: more than an empty delta (6 bytes), and equal to
  // the delta's own accounting.
  EXPECT_GT(msg.byte_size(), 6u);
  EXPECT_EQ(msg.byte_size(), msg.delta().byte_size(false));
}

// ------------------------------------------------------- churn storms -----

/// Every node of `net` (anything with node(v).selected_path(dest)) selects
/// the valley-free solver's path.
template <typename Net>
void expect_matches_solver(Net& net, const AsGraph& graph) {
  for (NodeId dest = 0; dest < graph.num_nodes(); ++dest) {
    const auto solver = policy::ValleyFreeRoutes::compute(graph, dest);
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      if (v == dest) continue;
      const auto got = net.node(v).selected_path(dest);
      if (!solver.at(v).reachable()) {
        EXPECT_FALSE(got.has_value()) << v << "->" << dest;
      } else {
        ASSERT_TRUE(got.has_value()) << v << "->" << dest;
        EXPECT_EQ(*got, solver.path_from(v)) << v << "->" << dest;
      }
    }
  }
}

TEST(ChurnStorm, SimultaneousFailuresConvergeToSolver) {
  util::Rng rng(71);
  const AsGraph graph = topo::tiered_internet(topo::caida_like_params(40), rng);
  TestNet<CentaurNode> centaur(graph);
  TestNet<bgp::BgpNode> bgp(graph);

  // Take three links down at (nearly) the same instant, converge once.
  util::Rng pick(5);
  const auto victims = pick.sample_without_replacement(graph.num_links(), 3);
  for (const std::size_t raw : victims) {
    centaur.net().set_link_state(static_cast<LinkId>(raw), false);
    bgp.net().set_link_state(static_cast<LinkId>(raw), false);
  }
  centaur.net().run_to_convergence();
  bgp.net().run_to_convergence();
  expect_matches_solver(centaur, centaur.graph());
  expect_matches_solver(bgp, bgp.graph());

  // And back up, all at once.
  for (const std::size_t raw : victims) {
    centaur.net().set_link_state(static_cast<LinkId>(raw), true);
    bgp.net().set_link_state(static_cast<LinkId>(raw), true);
  }
  centaur.net().run_to_convergence();
  bgp.net().run_to_convergence();
  expect_matches_solver(centaur, centaur.graph());
  expect_matches_solver(bgp, bgp.graph());
}

TEST(ChurnStorm, RapidFlapsOfOneLinkSettleCorrectly) {
  util::Rng rng(72);
  const AsGraph graph = topo::tiered_internet(topo::caida_like_params(30), rng);
  TestNet<CentaurNode> net(graph);
  const LinkId victim = 3;
  // Flap the link several times without waiting for convergence: in-flight
  // updates get dropped, sessions reset — the protocol must still settle to
  // the correct final (up) state.
  for (int i = 0; i < 4; ++i) {
    net.net().set_link_state(victim, false);
    net.net().simulator().run_until(net.net().simulator().now() + 0.001);
    net.net().set_link_state(victim, true);
    net.net().simulator().run_until(net.net().simulator().now() + 0.001);
  }
  net.net().run_to_convergence();
  expect_matches_solver(net, net.graph());
}

TEST(ChurnStorm, NodeIsolationAndRecovery) {
  util::Rng rng(73);
  const AsGraph graph = topo::tiered_internet(topo::caida_like_params(25), rng);
  TestNet<CentaurNode> net(graph);
  // Cut every link of one node, converge, then restore.
  const NodeId victim = 20;
  std::vector<LinkId> cut;
  for (const topo::Neighbor& nb : graph.neighbors(victim)) {
    cut.push_back(nb.link);
  }
  for (const LinkId l : cut) net.net().set_link_state(l, false);
  net.net().run_to_convergence();
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (v == victim) continue;
    EXPECT_FALSE(net.node(v).selected_path(victim).has_value())
        << v << " still routes to the isolated node";
  }
  for (const LinkId l : cut) net.net().set_link_state(l, true);
  net.net().run_to_convergence();
  expect_matches_solver(net, net.graph());
}

// ------------------------------------------------------- determinism ------

TEST(Determinism, IdenticalRunsProduceIdenticalTraffic) {
  util::Rng rng(74);
  const AsGraph graph = topo::tiered_internet(topo::caida_like_params(35), rng);
  for (const auto proto :
       {eval::Protocol::kBgp, eval::Protocol::kCentaur, eval::Protocol::kOspf,
        eval::Protocol::kBgpRcn}) {
    util::Rng r1(9), r2(9);
    eval::ProtocolRun a(graph, proto, r1);
    eval::ProtocolRun b(graph, proto, r2);
    EXPECT_EQ(a.cold_start().messages_sent, b.cold_start().messages_sent)
        << eval::to_string(proto);
    EXPECT_EQ(a.cold_start().bytes_sent, b.cold_start().bytes_sent)
        << eval::to_string(proto);
    EXPECT_DOUBLE_EQ(a.cold_start_time(), b.cold_start_time())
        << eval::to_string(proto);
  }
}

// ------------------------------------------------ same-burst coalescing ---

// Runs all-Centaur nodes over `graph` with *constant* link delays, so every
// wave of a cascade arrives as one same-instant burst per node — the regime
// where the outbound coalescing slot actually merges deltas.  (With the
// default continuous random delays, same-instant multi-floods are measure
// zero and coalescing is a near no-op.)  An analyzer rides along in every
// build type, so each quiescence sweep also checks every received graph
// against its sender's view.
struct ConstDelayRun {
  topo::AsGraph graph;
  util::Rng rng;
  sim::Network net;
  check::Analyzer analyzer;
  std::vector<CentaurNode*> nodes;

  explicit ConstDelayRun(const AsGraph& g)
      : graph(g),
        rng(7),
        net(graph, rng, /*min_delay=*/0.001, /*max_delay=*/0.001),
        analyzer(net) {
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      auto node = std::make_unique<CentaurNode>(graph);
      nodes.push_back(node.get());
      net.attach(v, std::move(node));
    }
    net.start_all_and_converge();
    analyzer.check_all();
  }
  CentaurNode& node(NodeId v) { return *nodes.at(v); }
};

TEST(CentaurCoalescing, ConstantDelayBurstsConvergeToSolver) {
  util::Rng topo_rng(11);
  const AsGraph g = topo::brite_like(24, 2, 3, topo_rng);
  ConstDelayRun run(g);
  expect_matches_solver(run, run.graph);
  for (const LinkId link : {LinkId{0}, LinkId{7}}) {
    for (const bool up : {false, true}) {
      run.net.set_link_state(link, up);
      run.net.run_to_convergence();
      run.analyzer.check_all();
      expect_matches_solver(run, run.graph);
    }
  }
  EXPECT_TRUE(run.analyzer.report().clean()) << [&] {
    std::ostringstream os;
    run.analyzer.report().print(os);
    return os.str();
  }();
}

TEST(Determinism, ByteCountsArePositiveAndProtocolSpecific) {
  util::Rng rng(75);
  const AsGraph graph = topo::tiered_internet(topo::caida_like_params(30), rng);
  util::Rng r1(1), r2(1), r3(1);
  eval::ProtocolRun bgp(graph, eval::Protocol::kBgp, r1);
  eval::ProtocolRun centaur(graph, eval::Protocol::kCentaur, r2);
  eval::ProtocolRun ospf(graph, eval::Protocol::kOspf, r3);
  EXPECT_GT(bgp.cold_start().bytes_sent, 0u);
  EXPECT_GT(centaur.cold_start().bytes_sent, 0u);
  EXPECT_GT(ospf.cold_start().bytes_sent, 0u);
}

}  // namespace
}  // namespace centaur
