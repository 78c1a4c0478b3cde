// Link hiding without routing loops — the paper's motivating scenario
// (S2.1, Figures 1-3).
//
// On the square topology A-B, A-C, B-D, C-D, node C wants to keep its
// link C-D private from A.  In a traditional link-state protocol B's
// flooding would reveal the link anyway and A could pick <A,C,D> while C
// routes differently — a forwarding loop (Figure 2).  Centaur's downstream
// link announcements plus export filters hide the link cleanly: A routes
// via B, C still uses its private link, and hop-by-hop forwarding stays
// loop-free.
#include <iostream>

#include "centaur/centaur_node.hpp"
#include "example_check.hpp"
#include "sim/network.hpp"
#include "topology/as_graph.hpp"
#include "util/rng.hpp"

using namespace centaur;

namespace {

constexpr topo::NodeId A = 0, B = 1, C = 2, D = 3;
const char* kNames[] = {"A", "B", "C", "D"};

void print_routes_to_d(sim::Network& net) {
  for (const topo::NodeId v : {A, B, C}) {
    const auto& node = dynamic_cast<core::CentaurNode&>(net.node(v));
    const auto path = node.selected_path(D);
    std::cout << "  " << kNames[v] << " -> D : ";
    if (!path) {
      std::cout << "(no route)\n";
      continue;
    }
    std::cout << "<";
    for (std::size_t i = 0; i < path->size(); ++i) {
      std::cout << (i ? ", " : "") << kNames[(*path)[i]];
    }
    std::cout << ">\n";
  }
}

}  // namespace

int main() {
  topo::AsGraph g(4);
  // Sibling links exchange all routes — the closest match to the paper's
  // policy-free illustration topology.
  g.add_link(A, B, topo::Relationship::kSibling);
  g.add_link(A, C, topo::Relationship::kSibling);
  g.add_link(B, D, topo::Relationship::kSibling);
  g.add_link(C, D, topo::Relationship::kSibling);

  util::Rng rng(7);
  sim::Network net(g, rng);
  examples::ScopedAnalysis analysis(net);  // invariant checks (Debug builds)
  for (topo::NodeId v = 0; v < g.num_nodes(); ++v) {
    core::CentaurNode::Config cfg;
    if (v == C) {
      // C's export policy: never announce the directed link C->D to A.
      cfg.export_link_filter = [](topo::NodeId neighbor, topo::NodeId from,
                                  topo::NodeId to) {
        return !(neighbor == A && from == C && to == D);
      };
    }
    net.attach(v, std::make_unique<core::CentaurNode>(g, cfg));
  }
  net.mark();
  net.start_all_and_converge();
  analysis.assert_clean();

  std::cout << "Routes to D with C hiding its private link C-D from A:\n";
  print_routes_to_d(net);

  const auto& a = dynamic_cast<core::CentaurNode&>(net.node(A));
  const core::PGraph* from_c = a.neighbor_pgraph(C);
  const bool hidden = from_c != nullptr && !from_c->has_link(C, D);
  std::cout << "\nA's P-graph learned from C "
            << (hidden ? "does NOT contain" : "contains")
            << " the hidden link C->D.\n";

  // Hop-by-hop forwarding check: walk next hops from A toward D.
  std::cout << "\nForwarding a packet A -> D hop by hop:";
  topo::NodeId cur = A;
  std::size_t hops = 0;
  while (cur != D && hops++ < 8) {
    const auto& node = dynamic_cast<core::CentaurNode&>(net.node(cur));
    const auto path = node.selected_path(D);
    if (!path) break;
    cur = (*path)[1];
    std::cout << " -> " << kNames[cur];
  }
  const bool delivered = cur == D;
  std::cout << (delivered ? "   (delivered, no loop)\n"
                          : "   (LOOP! this must not happen)\n");

  // The punchline from S2.1: in naive policy-annotated link state, A would
  // have derived <A, C, D> from B's flooded copy of the hidden link and C
  // would bounce the packet straight back.
  std::cout << "\nIn flooding link state A would have picked <A, C, D> and\n"
               "C (whose own tables avoid C-D only for A's traffic in this\n"
               "policy) could loop packets between A and C — the failure\n"
               "Centaur's downstream-link announcements prevent.\n";
  return hidden && delivered ? 0 : 1;
}
