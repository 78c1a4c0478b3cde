// Quickstart: build a five-AS topology, run Centaur to convergence on the
// event simulator, and inspect routes and the P-graph data model.
//
//        T1a(0) ===peer=== T1b(1)
//         /   |              |
//     Acme(2) Beta(3)       Core(4)     (2,3 customers of 0; 4 customer of 1)
//
// Build:  cmake --build build --target quickstart
// Run:    ./build/examples/quickstart
#include <iostream>

#include "centaur/centaur_node.hpp"
#include "example_check.hpp"
#include "sim/network.hpp"
#include "topology/as_graph.hpp"
#include "util/rng.hpp"

using namespace centaur;

int main() {
  // 1. The topology: relationships are given as "what the second node is
  //    to the first" — kProvider below means node 0 is the provider.
  topo::AsGraph g(5);
  g.add_link(0, 1, topo::Relationship::kPeer);
  g.add_link(2, 0, topo::Relationship::kProvider);  // 0 provides for 2
  g.add_link(3, 0, topo::Relationship::kProvider);
  g.add_link(4, 1, topo::Relationship::kProvider);
  const char* names[] = {"T1a", "T1b", "Acme", "Beta", "Core"};

  // 2. A network with one Centaur node per AS and random 0-5 ms link
  //    delays, run to convergence (the initialization phase, S4.3.1).
  util::Rng rng(42);
  sim::Network net(g, rng);
  examples::ScopedAnalysis analysis(net);  // invariant checks (Debug builds)
  for (topo::NodeId v = 0; v < g.num_nodes(); ++v) {
    net.attach(v, std::make_unique<core::CentaurNode>(g));
  }
  net.mark();
  net.start_all_and_converge();
  analysis.assert_clean();
  std::cout << "Converged after " << net.window().messages_sent
            << " link-state update messages ("
            << net.window().bytes_sent << " bytes), "
            << net.window_convergence_time() * 1e3 << " ms simulated.\n\n";

  // 3. Routing tables: every AS selected a Gao-Rexford-compliant path.
  for (topo::NodeId v = 0; v < g.num_nodes(); ++v) {
    auto& node = dynamic_cast<core::CentaurNode&>(net.node(v));
    std::cout << names[v] << " routes:\n";
    for (const auto& [dest, path] : node.selected_paths()) {
      if (dest == v) continue;
      std::cout << "  -> " << names[dest] << "  via " << topo::to_string(path)
                << "\n";
    }
  }

  // 4. The P-graph data model: Acme's local policy graph encodes all its
  //    selected paths as downstream links (S3.2.2).
  auto& acme = dynamic_cast<core::CentaurNode&>(net.node(2));
  const core::PGraph& pg = acme.local_pgraph();
  std::cout << "\nAcme's local P-graph: " << pg.num_links()
            << " downstream links, " << pg.destinations().size()
            << " destinations, " << pg.active_plist_count()
            << " Permission Lists\n";
  // Each selected path records one (destination, next hop) pair on every
  // link it crosses, so a link's pair count is its path counter (S4.3.2).
  for (const auto& [link, plist] : pg.links()) {
    const std::size_t paths = plist.dest_count();
    std::cout << "  " << names[link.from] << " -> " << names[link.to]
              << "  (on " << paths << " selected path"
              << (paths == 1 ? "" : "s") << ")\n";
  }

  // 5. Policies at work: Core reaches Beta by climbing to its provider,
  //    crossing the single Tier-1 peering hop, and descending — the only
  //    valley-free shape these relationships allow.
  auto& core_as = dynamic_cast<core::CentaurNode&>(net.node(4));
  const auto path = core_as.selected_path(3);
  std::cout << "\nCore -> Beta uses " << topo::to_string(*path)
            << " (up to T1b, one peer hop, down to Beta — valley-free).\n";
  return 0;
}
