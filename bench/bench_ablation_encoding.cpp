// Ablation — Permission-List design choices (S4.1, S6.1):
//   * per-dest-next vs exhaustive per-path encoding (the paper proves them
//     equally expressive; per-dest-next is what ships),
//   * raw vs Bloom-compressed destination lists,
//   * per-link (Table 2 literal) vs minimal (Fig 4(c)) list placement.
// Prints announcement-state bytes per local P-graph under each combination,
// quantifying why the shipped design was chosen.  (The single-path vs
// multipath path-set contrast lives in bench_table4_pgraphs.)
#include <iostream>
#include <map>

#include "bench_util.hpp"
#include "centaur/build_graph.hpp"
#include "policy/valley_free.hpp"

namespace {

using namespace centaur;
using core::PGraph;
using topo::NodeId;
using topo::Path;

struct EncodingCosts {
  std::size_t lists = 0;
  std::size_t raw_bytes = 0;         // per-dest-next, plain
  std::size_t bloom_bytes = 0;       // per-dest-next, bloom dest lists
  std::size_t exhaustive_bytes = 0;  // per-path encoding
};

EncodingCosts measure(const PGraph& pg,
                      const std::map<NodeId, Path>& selected) {
  EncodingCosts costs;
  // Exhaustive per-path lists: one entry per selected path crossing the
  // link (rebuilt from the path set).
  std::map<core::DirectedLink, core::ExhaustivePermissionList> exhaustive;
  for (const auto& [dest, path] : selected) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      exhaustive[core::DirectedLink{path[i], path[i + 1]}].add(path);
    }
  }
  for (const auto& [link, plist] : pg.links()) {
    if (!pg.multi_homed(link.to) || plist.empty()) continue;
    ++costs.lists;
    costs.raw_bytes += plist.byte_size(false);
    costs.bloom_bytes += plist.byte_size(true);
    const auto it = exhaustive.find(link);
    if (it != exhaustive.end()) {
      costs.exhaustive_bytes += it->second.byte_size();
    }
  }
  return costs;
}

}  // namespace

int main(int argc, char** argv) {
  auto io = bench::bench_setup(
      &argc, argv, "ablation_encoding",
      "Ablation: Permission-List encodings and placements");
  const auto& params = io.params;

  // A mid-size topology and a handful of vantages keep this bench quick.
  const std::size_t n = std::max<std::size_t>(300, params.caida_like_nodes / 8);
  util::Rng topo_rng(params.seed ^ 0xAB1A);
  const topo::AsGraph g =
      topo::tiered_internet(topo::caida_like_params(n), topo_rng);
  std::cout << topo::compute_stats(g, "ablation topology") << "\n\n";

  // Per-vantage selected path sets (per-dest-random tie-break, the
  // realistic mode used by the Table 4/5 pipeline).
  const NodeId vantages[] = {1, static_cast<NodeId>(n / 3),
                             static_cast<NodeId>(n - 2)};
  std::map<NodeId, std::map<NodeId, Path>> selected;
  for (const NodeId v : vantages) selected[v][v] = Path{v};
  for (NodeId dest = 0; dest < g.num_nodes(); ++dest) {
    const auto routes = policy::ValleyFreeRoutes::compute(
        g, dest, policy::TieBreak::kPerDestRandom, params.seed);
    for (const NodeId v : vantages) {
      if (v != dest && routes.at(v).reachable()) {
        selected[v][dest] = routes.path_from(v);
      }
    }
  }

  util::TextTable table("Announcement state per local P-graph (averages)");
  table.header(
      {"placement", "#lists", "per-dest-next B", "bloom B", "exhaustive B"});
  for (const bool minimal : {false, true}) {
    const runner::Stopwatch sw;
    double lists = 0, raw = 0, bloom = 0, exhaustive = 0;
    for (const NodeId v : vantages) {
      PGraph pg = core::build_local_pgraph(v, selected[v]);
      if (minimal) core::minimize_permission_lists(pg);
      const EncodingCosts c = measure(pg, selected[v]);
      lists += static_cast<double>(c.lists);
      raw += static_cast<double>(c.raw_bytes);
      bloom += static_cast<double>(c.bloom_bytes);
      exhaustive += static_cast<double>(c.exhaustive_bytes);
    }
    const double k = static_cast<double>(std::size(vantages));
    table.row({minimal ? "minimal (Fig 4c)" : "per-link (Table 2)",
               util::fmt_double(lists / k, 1), util::fmt_double(raw / k, 0),
               util::fmt_double(bloom / k, 0),
               util::fmt_double(exhaustive / k, 0)});
    runner::TrialResult trial;
    trial.name = minimal ? "minimal" : "per_link";
    trial.wall_time_s = sw.seconds();
    trial.metrics.emplace_back("avg_lists", lists / k);
    trial.metrics.emplace_back("avg_raw_bytes", raw / k);
    trial.metrics.emplace_back("avg_bloom_bytes", bloom / k);
    trial.metrics.emplace_back("avg_exhaustive_bytes", exhaustive / k);
    io.report.add(std::move(trial));
  }
  table.print(std::cout);

  std::cout << "Takeaways: per-dest-next is far smaller than the equally\n"
               "expressive exhaustive per-path encoding (Claim 1); Bloom\n"
               "compression only pays once destination lists grow large;\n"
               "the minimal placement roughly halves the list count.\n";
  io.report.write();
  return 0;
}
