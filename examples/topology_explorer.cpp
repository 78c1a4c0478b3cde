// Topology workbench: generate an Internet-like AS graph, inspect its
// business-relationship mix, round-trip it through the CAIDA as-rel
// exchange format, and study valley-free routing and P-graph structure
// from a chosen vantage AS — the offline half of the library, no simulator
// involved.
#include <iostream>
#include <sstream>

#include "centaur/query.hpp"
#include "eval/static_eval.hpp"
#include "policy/valley_free.hpp"
#include "topology/generator.hpp"
#include "topology/parser.hpp"
#include "topology/stats.hpp"
#include "util/table.hpp"

using namespace centaur;

int main() {
  // 1. Generate a CAIDA-shaped topology.
  util::Rng rng(1234);
  const topo::AsGraph g =
      topo::tiered_internet(topo::caida_like_params(400), rng);
  std::cout << topo::compute_stats(g, "generated") << "\n\n";

  // 2. Round-trip through the CAIDA as-rel exchange format.
  const std::string serialized = topo::write_as_rel_text(g);
  const topo::ParsedTopology reparsed = topo::parse_as_rel_text(serialized);
  std::cout << "as-rel round trip: " << reparsed.graph.num_nodes()
            << " nodes / " << reparsed.graph.num_links()
            << " links re-parsed ("
            << serialized.size() / 1024 << " KiB serialized)\n\n";

  // 3. Valley-free routing from a stub AS.
  const topo::NodeId vantage = 399;  // generated last => a stub
  util::Accumulator lengths;
  std::size_t customer_routes = 0, peer_routes = 0, provider_routes = 0;
  for (topo::NodeId dest = 0; dest < g.num_nodes(); ++dest) {
    if (dest == vantage) continue;
    const auto routes = policy::ValleyFreeRoutes::compute(g, dest);
    const auto& entry = routes.at(vantage);
    if (!entry.reachable()) continue;
    lengths.add(entry.length);
    switch (policy::preference_class(entry.source)) {
      case 1:
        ++customer_routes;
        break;
      case 2:
        ++peer_routes;
        break;
      default:
        ++provider_routes;
        break;
    }
  }
  util::TextTable table("AS " + std::to_string(vantage) + "'s routing table");
  table.header({"route class", "count"});
  table.row({"via customer/sibling", util::fmt_count(customer_routes)});
  table.row({"via peer", util::fmt_count(peer_routes)});
  table.row({"via provider", util::fmt_count(provider_routes)});
  table.print(std::cout);
  std::cout << "Average AS-path length: " << util::fmt_double(lengths.mean(), 2)
            << " hops (max " << lengths.max() << ")\n\n";

  // 4. The vantage AS's local P-graph.
  const core::PGraph pg = eval::build_node_pgraph(g, vantage);
  std::cout << "Local P-graph of AS " << vantage << ": " << pg.num_links()
            << " downstream links for " << pg.destinations().size()
            << " destinations, " << pg.active_plist_count()
            << " Permission Lists\n";

  // 5. What its provider would hear (export filtering).
  std::size_t exportable = 0;
  for (topo::NodeId dest = 0; dest < g.num_nodes(); ++dest) {
    const core::PathResult path = core::query_path(pg, {dest});
    if (!path) continue;
    if (policy::may_export(policy::classify_path(g, path.path),
                           topo::Relationship::kProvider)) {
      ++exportable;
    }
  }
  std::cout << "Routes exportable to a provider (self/customer cone only): "
            << exportable << " of " << pg.destinations().size() << "\n";
  return 0;
}
