#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "centaur/centaur_node.hpp"
#include "check/analyzer.hpp"
#include "check/invariants.hpp"
#include "test_helpers.hpp"
#include "topology/generator.hpp"

namespace centaur::core {
namespace {

using centaur::testing::TestNet;
using topo::AsGraph;
using topo::NodeId;
using topo::Relationship;

constexpr NodeId A = 0, B = 1, C = 2, D = 3, Dp = 4;

// --------------------------------------------------------- basic flow -----

TEST(CentaurNode, TwoNodesLearnEachOther) {
  AsGraph g(2);
  g.add_link(0, 1, Relationship::kPeer);
  TestNet<CentaurNode> net(g);
  EXPECT_EQ(net.node(0).selected_path(1), (Path{0, 1}));
  EXPECT_EQ(net.node(1).selected_path(0), (Path{1, 0}));
}

TEST(CentaurNode, SquareConvergesWithDeterministicTieBreak) {
  TestNet<CentaurNode> net(centaur::testing::square_topology());
  // A's two candidate paths to D tie on class and length; the lower
  // next-hop id (B=1) wins.
  EXPECT_EQ(net.node(A).selected_path(D), (Path{A, B, D}));
  EXPECT_EQ(net.node(D).selected_path(A), (Path{D, B, A}));
  // Every node reaches every other node.
  for (NodeId v = 0; v < 4; ++v) {
    for (NodeId d = 0; d < 4; ++d) {
      ASSERT_TRUE(net.node(v).selected_path(d).has_value())
          << v << " -> " << d;
    }
  }
}

TEST(CentaurNode, LocalPGraphMatchesSelection) {
  TestNet<CentaurNode> net(centaur::testing::square_topology());
  const CentaurNode& a = net.node(A);
  const PGraph& local = a.local_pgraph();
  for (const auto& [dest, path] : a.selected_paths()) {
    const PathResult derived = query_path(local, {dest});
    ASSERT_TRUE(derived.found());
    EXPECT_EQ(derived.path, path);
  }
}

TEST(CentaurNode, GaoRexfordPolicyRespected) {
  // 0 -peer- 1 -peer- 2: peers do not provide transit, so 0 never learns 2.
  AsGraph g(3);
  g.add_link(0, 1, Relationship::kPeer);
  g.add_link(1, 2, Relationship::kPeer);
  TestNet<CentaurNode> net(g);
  EXPECT_TRUE(net.node(0).selected_path(1).has_value());
  EXPECT_FALSE(net.node(0).selected_path(2).has_value());
}

TEST(CentaurNode, CustomerRoutePreferredOverShorterPeer) {
  AsGraph g(3);
  g.add_link(0, 2, Relationship::kPeer);
  g.add_link(1, 0, Relationship::kProvider);  // 1 is 0's customer
  g.add_link(2, 1, Relationship::kProvider);  // 2 is 1's customer
  TestNet<CentaurNode> net(g);
  EXPECT_EQ(net.node(0).selected_path(2), (Path{0, 1, 2}));
}

// ----------------------------------------- link hiding (Fig 2 scenario) ---

TEST(CentaurNode, ExportFilterHidesLinkWithoutLoops) {
  // C hides its link C->D from A (the S2.1 motivating scenario).  A must
  // route to D via B; C still uses C->D itself; no loops form.
  TestNet<CentaurNode> net(
      centaur::testing::square_topology(),
      [](NodeId v, AsGraph& g) {
        CentaurNode::Config cfg;
        if (v == C) {
          cfg.export_link_filter = [](NodeId neighbor, NodeId from,
                                      NodeId to) {
            return !(neighbor == A && from == C && to == D);
          };
        }
        return std::make_unique<CentaurNode>(g, cfg);
      });
  EXPECT_EQ(net.node(A).selected_path(D), (Path{A, B, D}));
  EXPECT_EQ(net.node(C).selected_path(D), (Path{C, D}));
  // A's RIB graph from C must not contain the hidden link.
  const PGraph* from_c = net.node(A).neighbor_pgraph(C);
  ASSERT_NE(from_c, nullptr);
  EXPECT_FALSE(from_c->has_link(C, D));
}

/// Square-topology nodes where C hides its link C->D from A.
std::unique_ptr<CentaurNode> c_hides_cd_from_a(NodeId v, AsGraph& g) {
  CentaurNode::Config cfg;
  if (v == C) {
    cfg.export_link_filter = [](NodeId neighbor, NodeId from, NodeId to) {
      return !(neighbor == A && from == C && to == D);
    };
  }
  return std::make_unique<CentaurNode>(g, cfg);
}

TEST(CentaurNode, RouteLeakWithoutConeSessionsKeepsHiddenViews) {
  // None of C's neighbors is a peer or a provider, so a route leak at C
  // changes no session's view: nothing is sent, and A keeps both its routes
  // and its filtered graph from C.
  TestNet<CentaurNode> net(centaur::testing::square_topology(),
                           c_hides_cd_from_a);
  std::map<std::pair<NodeId, NodeId>, std::optional<Path>> before;
  for (NodeId v = 0; v < 4; ++v) {
    for (NodeId d = 0; d < 4; ++d) {
      before[{v, d}] = net.node(v).selected_path(d);
    }
  }
  const PGraph from_c = *net.node(A).neighbor_pgraph(C);
  ASSERT_FALSE(from_c.has_link(C, D));

  net.net().mark();
  net.node(C).set_route_leak(true);
  net.net().run_to_convergence();
  EXPECT_EQ(net.net().window().messages_sent, 0u);
  for (NodeId v = 0; v < 4; ++v) {
    for (NodeId d = 0; d < 4; ++d) {
      EXPECT_EQ(net.node(v).selected_path(d), (before[{v, d}]))
          << v << " -> " << d;
    }
  }
  ASSERT_NE(net.node(A).neighbor_pgraph(C), nullptr);
  EXPECT_TRUE(*net.node(A).neighbor_pgraph(C) == from_c);
}

TEST(CentaurNode, RouteLeakRebaselinesPeerToFullViewMinusHiddenLink) {
  // A and C peer; D is a customer of B and C, and B a customer of A.  C
  // hides C->D from A.  Unleaked, A sees C's cone (C and its customer D);
  // the leak re-baselines A to C's full view, which adds the peer-learned
  // routes to A and B, still without the hidden link.
  AsGraph g(4);
  g.add_link(A, C, Relationship::kPeer);
  g.add_link(B, A, Relationship::kProvider);
  g.add_link(D, B, Relationship::kProvider);
  g.add_link(D, C, Relationship::kProvider);
  TestNet<CentaurNode> net(g, c_hides_cd_from_a);
  const auto received_view_ok = [&net] {
    return check::check_received_view(net.node(A), A, net.node(C), C).empty();
  };
  const PGraph* from_c = net.node(A).neighbor_pgraph(C);
  ASSERT_NE(from_c, nullptr);
  EXPECT_TRUE(received_view_ok());
  EXPECT_TRUE(from_c->is_destination(D));
  EXPECT_FALSE(from_c->is_destination(B));
  EXPECT_FALSE(from_c->has_link(C, D));

  net.net().mark();
  net.node(C).set_route_leak(true);
  net.net().run_to_convergence();
  EXPECT_EQ(net.net().window().messages_sent, 1u);  // A's reset snapshot
  from_c = net.node(A).neighbor_pgraph(C);
  ASSERT_NE(from_c, nullptr);
  EXPECT_TRUE(received_view_ok());
  EXPECT_TRUE(from_c->is_destination(B));
  EXPECT_TRUE(from_c->has_link(A, B));
  EXPECT_FALSE(from_c->has_link(C, D));

  net.net().mark();
  net.node(C).set_route_leak(false);
  net.net().run_to_convergence();
  from_c = net.node(A).neighbor_pgraph(C);
  ASSERT_NE(from_c, nullptr);
  EXPECT_TRUE(received_view_ok());
  EXPECT_FALSE(from_c->is_destination(B));
}

TEST(CentaurNode, HiddenLinksStayExactUnderChurn) {
  // A 40-node topology where four nodes each hide one of their links from
  // one neighbor and one node filters imports, driven through link flips
  // (hidden links and filtered sessions included) and a route-leak toggle
  // at a hiding node.  The analyzer runs in every build type, so each
  // quiescence sweep checks every filtered session (kReceivedView).
  util::Rng topo_rng(0x41D);
  topo::AsGraph g = topo::brite_like(40, 2, 4, topo_rng);
  struct Hide {
    NodeId node, from_neighbor, link_head;
  };
  std::vector<Hide> hides;
  for (const NodeId v : {3u, 11u, 19u, 27u}) {
    const auto& nbs = g.neighbors(v);
    ASSERT_GE(nbs.size(), 2u) << v;
    hides.push_back({v, nbs[0].node, nbs[1].node});
  }
  constexpr NodeId kImportFiltering = 5;
  const NodeId refused_head = g.neighbors(kImportFiltering)[0].node;

  util::Rng rng(3);
  sim::Network net(g, rng);
  check::Analyzer analyzer(net);
  std::vector<CentaurNode*> nodes;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    CentaurNode::Config cfg;
    for (const Hide& h : hides) {
      if (h.node != v) continue;
      cfg.export_link_filter = [h](NodeId neighbor, NodeId from, NodeId to) {
        return !(neighbor == h.from_neighbor && from == h.node &&
                 to == h.link_head);
      };
    }
    if (v == kImportFiltering) {
      // Refuses every announced link into its first neighbor.
      cfg.import_link_filter = [refused_head](NodeId, NodeId, NodeId to) {
        return to != refused_head;
      };
    }
    auto node = std::make_unique<CentaurNode>(g, cfg);
    nodes.push_back(node.get());
    net.attach(v, std::move(node));
  }
  net.start_all_and_converge();
  analyzer.check_all();
  // The filters have something to hide: the hidden links carry routes.
  for (const Hide& h : hides) {
    EXPECT_TRUE(nodes[h.node]->local_pgraph().has_link(h.node, h.link_head))
        << h.node;
  }

  std::vector<topo::LinkId> flips;
  for (const Hide& h : {hides[0], hides[1]}) {
    flips.push_back(*g.find_link(h.node, h.link_head));
    flips.push_back(*g.find_link(h.node, h.from_neighbor));
  }
  flips.push_back(*g.find_link(kImportFiltering, refused_head));
  for (topo::LinkId link = 0; link < 4; ++link) flips.push_back(link);
  for (const topo::LinkId link : flips) {
    for (const bool up : {false, true}) {
      net.set_link_state(link, up);
      net.run_to_convergence();
      analyzer.check_all();
    }
  }
  for (const bool leak : {true, false}) {
    nodes[hides[2].node]->set_route_leak(leak);
    net.run_to_convergence();
    analyzer.check_all();
  }

  for (const Hide& h : hides) {
    const PGraph* held = nodes[h.from_neighbor]->neighbor_pgraph(h.node);
    ASSERT_NE(held, nullptr) << h.node;
    EXPECT_FALSE(held->has_link(h.node, h.link_head)) << h.node;
  }
  EXPECT_GT(analyzer.report().checks_run, 0u);
  EXPECT_TRUE(analyzer.report().clean()) << [&] {
    std::ostringstream os;
    analyzer.report().print(os);
    return os.str();
  }();
}

// --------------------------------- ranking override (Fig 4 scenario) ------

TEST(CentaurNode, Fig4RankingOverrideCreatesPermissionLists) {
  // C prefers <C,A,B,D> to reach D but uses <C,D,D'> for D'; C->D then
  // becomes a downstream link and D is multi-homed in C's local P-graph.
  TestNet<CentaurNode> net(
      centaur::testing::fig4_topology(), [](NodeId v, AsGraph& g) {
        CentaurNode::Config cfg;
        if (v == C) {
          cfg.ranking = [](const policy::Candidate&, const Path& pa,
                           const policy::Candidate&, const Path& pb) {
            // Strictly prefer the long path for destination D.
            if (pa.back() == D && pb.back() == D) {
              return pa == Path{C, A, B, D} && pb != Path{C, A, B, D};
            }
            return false;
          };
        }
        return std::make_unique<CentaurNode>(g, cfg);
      });

  EXPECT_EQ(net.node(C).selected_path(D), (Path{C, A, B, D}));
  EXPECT_EQ(net.node(C).selected_path(Dp), (Path{C, D, Dp}));

  // C's local P-graph matches Figure 4(c): D multi-homed with permission
  // lists steering each destination.
  const PGraph& local = net.node(C).local_pgraph();
  EXPECT_TRUE(local.multi_homed(D));
  EXPECT_TRUE(local.plist(B, D)->permits(D, kNoNextHop));
  EXPECT_TRUE(local.plist(C, D)->permits(Dp, Dp));

  // A cannot derive the policy-violating <C, D> from C's announcement:
  // only the D'-path survives the permission lists.
  const PGraph* from_c = net.node(A).neighbor_pgraph(C);
  ASSERT_NE(from_c, nullptr);
  EXPECT_EQ(query_path(*from_c, {Dp}).path, (Path{C, D, Dp}));
  EXPECT_FALSE(query_path(*from_c, {D}).found());

  // Consequently A never builds the policy-violating <A, C, D>.
  EXPECT_EQ(net.node(A).selected_path(D), (Path{A, B, D}));
}

// ------------------------------------------------------ failure flow ------

TEST(CentaurNode, LinkFailureReconverges) {
  AsGraph g = centaur::testing::square_topology();
  TestNet<CentaurNode> net(g);
  const topo::LinkId bd = *net.graph().find_link(B, D);
  net.flip(bd, false);
  EXPECT_EQ(net.node(A).selected_path(D), (Path{A, C, D}));
  EXPECT_EQ(net.node(B).selected_path(D), (Path{B, A, C, D}));
  net.flip(bd, true);
  EXPECT_EQ(net.node(A).selected_path(D), (Path{A, B, D}));
}

TEST(CentaurNode, PartitionRemovesRoutes) {
  AsGraph g(3);
  g.add_link(0, 1, Relationship::kSibling);
  g.add_link(1, 2, Relationship::kSibling);
  TestNet<CentaurNode> net(g);
  ASSERT_TRUE(net.node(0).selected_path(2).has_value());
  net.flip(*net.graph().find_link(1, 2), false);
  EXPECT_FALSE(net.node(0).selected_path(2).has_value());
  EXPECT_FALSE(net.node(1).selected_path(2).has_value());
  net.flip(*net.graph().find_link(1, 2), true);
  EXPECT_TRUE(net.node(0).selected_path(2).has_value());
}

TEST(CentaurNode, RootCauseWithdrawalIsOneLinkMessagePerNeighbor) {
  // Star around 0 with a chain hanging off: when the chain link fails the
  // failure is withdrawn as a single link update per neighbor, regardless
  // of how many destinations sat behind it.
  AsGraph g(6);
  g.add_link(1, 0, Relationship::kProvider);
  g.add_link(2, 0, Relationship::kProvider);
  g.add_link(3, 0, Relationship::kProvider);
  g.add_link(4, 0, Relationship::kProvider);  // 0 provides for 1..4
  g.add_link(5, 4, Relationship::kProvider);  // 5 behind 4
  TestNet<CentaurNode> net(g);
  ASSERT_EQ(net.node(1).selected_path(5), (Path{1, 0, 4, 5}));

  net.net().mark();
  net.net().set_link_state(*net.graph().find_link(4, 5), false);
  net.net().run_to_convergence();
  // Endpoint 0's neighbors each receive exactly one update from 0; total
  // messages stay near the neighbor count (4 from node 0 — node 4's only
  // other neighbor is 0).  Generous bound: strictly fewer than one message
  // per (destination x neighbor) = 6 x 4.
  EXPECT_LE(net.net().window().messages_sent, 8u);
  EXPECT_FALSE(net.node(1).selected_path(5).has_value());
}

TEST(CentaurNode, NoOpPolicyChangeSendsNothing) {
  TestNet<CentaurNode> net(centaur::testing::square_topology());
  // Nothing pending after convergence; a no-op policy change sends nothing.
  net.net().mark();
  net.node(C).policy_changed();
  net.net().run_to_convergence();
  EXPECT_EQ(net.net().window().messages_sent, 0u);
}

// ------------------------------------------------- destination caches ----

TEST(CentaurNode, DestinationCachesReserveTheOriginatedRangeOnce) {
  // Provider chain 0 > 1 > 2 > 3; only ids below 2 originate.  2 and 3
  // have no destination in their customer cones, so their providers' caches
  // for them never hold one and reserve nothing; every other cache reserves
  // the two originated ids on its first insert.
  AsGraph g(4);
  g.add_link(1, 0, Relationship::kProvider);
  g.add_link(2, 1, Relationship::kProvider);
  g.add_link(3, 2, Relationship::kProvider);
  CentaurNode::Config config;
  config.originate_limit = 2;
  TestNet<CentaurNode> limited(g, [&config](NodeId, AsGraph& graph) {
    return std::make_unique<CentaurNode>(graph, config);
  });
  const auto capacity = [&limited](NodeId v, NodeId nbr) {
    const CentaurNode::DestCache* cache =
        limited.node(v).neighbor_derived(nbr);
    EXPECT_NE(cache, nullptr) << v << " has no state for " << nbr;
    return cache != nullptr ? cache->capacity() : ~std::size_t{0};
  };
  EXPECT_EQ(capacity(1, 2), 0u);
  EXPECT_EQ(capacity(2, 3), 0u);
  EXPECT_EQ(capacity(0, 1), 2u);
  EXPECT_EQ(capacity(1, 0), 2u);
  EXPECT_EQ(capacity(2, 1), 2u);
  EXPECT_EQ(capacity(3, 2), 2u);

  // Every node originates, so every cache holds its neighbor's own
  // destination at least: each reserves all ids once and keeps that size
  // through churn (a session that goes down takes its cache along).
  util::Rng rng(99);
  TestNet<CentaurNode> net(
      topo::tiered_internet(topo::caida_like_params(40), rng));
  const std::size_t n = net.graph().num_nodes();
  const auto expect_full_range = [&net, n] {
    for (NodeId v = 0; v < n; ++v) {
      for (const NodeId nbr : net.node(v).rib_neighbors()) {
        const CentaurNode::DestCache* cache = net.node(v).neighbor_derived(nbr);
        EXPECT_FALSE(cache->empty()) << v << " for " << nbr;
        EXPECT_EQ(cache->capacity(), n) << v << " for " << nbr;
      }
    }
  };
  expect_full_range();
  for (topo::LinkId link = 0; link < 6; ++link) {
    net.flip(link, false);
    expect_full_range();
    net.flip(link, true);
  }
  expect_full_range();
}

// ------------------------------------------------ larger random sweeps ----

TEST(CentaurNode, ConvergesOnTieredTopology) {
  util::Rng rng(99);
  AsGraph g = topo::tiered_internet(topo::caida_like_params(40), rng);
  TestNet<CentaurNode> net(g);
  // Full reachability (generator guarantees valley-free connectivity).
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (NodeId d = 0; d < g.num_nodes(); ++d) {
      EXPECT_TRUE(net.node(v).selected_path(d).has_value())
          << v << " -> " << d;
    }
  }
}

}  // namespace
}  // namespace centaur::core
