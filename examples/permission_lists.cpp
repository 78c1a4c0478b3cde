// Permission Lists in action — the paper's Figure 4 walked end to end.
//
// Topology: C-A, A-B, B-D, C-D, D-D'.  C's local policy prefers the long
// path <C,A,B,D> for destination D, but uses <C,D,D'> for D'.  The link
// C->D therefore becomes a downstream link and D turns multi-homed in C's
// local P-graph, so BuildGraph attaches Permission Lists; A can then derive
// C's real D'-path but NOT the policy-violating <C,D>.
#include <iostream>

#include "centaur/centaur_node.hpp"
#include "example_check.hpp"
#include "sim/network.hpp"
#include "topology/as_graph.hpp"
#include "util/rng.hpp"

using namespace centaur;

namespace {

constexpr topo::NodeId A = 0, B = 1, C = 2, D = 3, Dp = 4;
const char* kNames[] = {"A", "B", "C", "D", "D'"};

std::string pretty(const topo::Path& p) {
  std::string s = "<";
  for (std::size_t i = 0; i < p.size(); ++i) {
    s += (i ? ", " : "");
    s += kNames[p[i]];
  }
  return s + ">";
}

}  // namespace

int main() {
  topo::AsGraph g(5);
  g.add_link(C, A, topo::Relationship::kSibling);
  g.add_link(A, B, topo::Relationship::kSibling);
  g.add_link(B, D, topo::Relationship::kSibling);
  g.add_link(C, D, topo::Relationship::kSibling);
  g.add_link(D, Dp, topo::Relationship::kSibling);

  util::Rng rng(11);
  sim::Network net(g, rng);
  examples::ScopedAnalysis analysis(net);  // invariant checks (Debug builds)
  for (topo::NodeId v = 0; v < g.num_nodes(); ++v) {
    core::CentaurNode::Config cfg;
    if (v == C) {
      // C's ranking override: strictly prefer <C,A,B,D> for destination D.
      cfg.ranking = [](const policy::Candidate&, const topo::Path& pa,
                       const policy::Candidate&, const topo::Path& pb) {
        if (pa.back() == D && pb.back() == D) {
          return pa == topo::Path{C, A, B, D} && pb != topo::Path{C, A, B, D};
        }
        return false;
      };
    }
    net.attach(v, std::make_unique<core::CentaurNode>(g, cfg));
  }
  net.start_all_and_converge();
  analysis.assert_clean();

  const auto& c = dynamic_cast<core::CentaurNode&>(net.node(C));
  std::cout << "C's selected paths (local preference at work):\n"
            << "  C -> D  : " << pretty(*c.selected_path(D)) << "\n"
            << "  C -> D' : " << pretty(*c.selected_path(Dp)) << "\n\n";

  // C's local P-graph is exactly the paper's Figure 4(c).
  const core::PGraph& pg = c.local_pgraph();
  std::cout << "C's local P-graph (" << pg.num_links() << " links):\n";
  for (const auto& [link, plist] : pg.links()) {
    std::cout << "  " << kNames[link.from] << " -> " << kNames[link.to];
    if (pg.plist_active(link.from, link.to)) {
      std::cout << "   Permission List:";
      for (const auto& entry : plist.entries()) {
        std::cout << " {dests: [";
        for (std::size_t i = 0; i < entry.dests.size(); ++i) {
          std::cout << (i ? ", " : "") << kNames[entry.dests[i]];
        }
        std::cout << "], next hop of " << kNames[link.to] << ": "
                  << (entry.next_hop == core::kNoNextHop
                          ? "(is destination)"
                          : kNames[entry.next_hop])
                  << "}";
      }
    }
    std::cout << "\n";
  }

  // What A can reconstruct from C's announcement (Observation 1):
  const auto& a = dynamic_cast<core::CentaurNode&>(net.node(A));
  const core::PGraph* from_c = a.neighbor_pgraph(C);
  std::cout << "\nA reassembling C's downstream paths:\n";
  const core::PathResult dp_path = core::query_path(*from_c, {Dp});
  std::cout << "  DerivePath(D') = "
            << (dp_path ? pretty(dp_path.path) : std::string("(none)"))
            << "\n";
  const core::PathResult d_path = core::query_path(*from_c, {D});
  std::cout << "  DerivePath(D)  = "
            << (d_path ? pretty(d_path.path) : std::string("(none)"))
            << "   <- the policy-violating <C, D> is NOT derivable\n";

  std::cout << "\nHence A routes to D via B: "
            << pretty(*a.selected_path(D)) << "\n";
  return 0;
}
