// Figure 8, large-scale arm — 100k+-AS cold-start convergence (DESIGN.md
// §5.6).
//
// The Fig 8 sweep (bench_fig8_scalability) measures per-event update
// overhead on topologies up to a few hundred nodes.  This arm answers the
// scale question instead: a tiered-internet topology at (or beyond) the
// paper's measured-table sizes ×4, cold-started to quiescence, reporting
// wall time and peak-RSS growth.
//
// Workload notes (also emitted as JSON provenance):
//   * Origination is destination-limited to the lowest fig8_large_origins
//     ids (the generator's core tiers): full-mesh origination is quadratic
//     in routes and infeasible at this scale for every protocol.  Routing
//     for the originated set is complete and unmodified.
//   * BGP runs as the baseline protocol.
//   * OSPF is excluded: its per-node LSDB is O(total links), which at 100k
//     nodes is quadratic aggregate memory — infeasible by design, not by
//     implementation.
//   * The invariant analyzer stays off: a quiescence sweep re-derives every
//     (node, destination) pair, which at this scale costs more than the
//     run it checks.
//   * The Centaur trial also carries the footprint of every per-node table
//     family after the cold start (CentaurNode::footprint, summed over the
//     nodes): live entries, slots, slot bytes and total probe length, as
//     metrics `tables.<family>.<field>`.  They are a pure function of the
//     event order, so a table-growth change moves a gated counter.
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "centaur/centaur_node.hpp"
#include "eval/experiments.hpp"

using namespace centaur;

int main(int argc, char** argv) {
  auto io = bench::bench_setup(
      &argc, argv, "fig8_large",
      "Figure 8 (large-scale arm): 100k+-AS tiered-internet cold start "
      "to quiescence");
  const auto& params = io.params;
  const std::size_t n = params.fig8_large_nodes;
  const auto origins = static_cast<topo::NodeId>(params.fig8_large_origins);

  util::Rng topo_rng(params.seed ^ 0xF18A);
  const runner::Stopwatch gen_sw;
  const topo::AsGraph g =
      topo::tiered_internet(topo::caida_like_params(n), topo_rng);
  const double gen_s = gen_sw.seconds();
  std::cout << "topology: " << g.num_nodes() << " nodes, " << g.num_links()
            << " links (tiered_internet, generated in "
            << util::fmt_double(gen_s, 2) << " s)\n"
            << "origins:  lowest " << origins
            << " ids (destination-limited)\n\n";

  eval::RunOptions opts;
  opts.origin_limit = origins;

  util::TextTable table("Figure 8 large — cold start to quiescence");
  table.header({"Arm", "Wall s", "Sim s", "Events", "Messages", "MB sent",
                "RSS +MiB"});
  util::TextTable tables("Centaur per-node tables after the cold start");
  tables.header({"Family", "Entries", "Slots", "Load", "Slot MiB",
                 "Probes/entry"});

  // Sums every node's table footprint into trial metrics and table rows.
  const auto add_footprint = [&](eval::ProtocolRun& run,
                                 runner::TrialResult& t) {
    core::CentaurNode::Footprint total;
    for (topo::NodeId v = 0; v < g.num_nodes(); ++v) {
      total += static_cast<const core::CentaurNode&>(run.network().node(v))
                   .footprint();
    }
    total.for_each([&](const char* family,
                       const core::CentaurNode::TableFootprint& f) {
      const std::string key = std::string("tables.") + family + ".";
      t.metrics.emplace_back(key + "entries", static_cast<double>(f.entries));
      t.metrics.emplace_back(key + "slots", static_cast<double>(f.slots));
      t.metrics.emplace_back(key + "slot_bytes",
                             static_cast<double>(f.slot_bytes));
      t.metrics.emplace_back(key + "probes", static_cast<double>(f.probes));
      const auto ratio = [](std::size_t a, std::size_t b) {
        return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
      };
      tables.row({family, util::fmt_count(f.entries), util::fmt_count(f.slots),
                  util::fmt_double(ratio(f.entries, f.slots), 3),
                  util::fmt_double(static_cast<double>(f.slot_bytes) /
                                       (1 << 20),
                                   2),
                  util::fmt_double(ratio(f.probes, f.entries), 3)});
    });
  };

  const auto cold_start = [&](const std::string& name, eval::Protocol proto) {
    const std::uint64_t rss_before = runner::peak_rss_kb();
    util::Rng rng(params.seed ^ 0xF888);
    const runner::Stopwatch sw;
    eval::ProtocolRun run(g, proto, rng, opts);
    runner::TrialResult t;
    t.name = name;
    t.wall_time_s = sw.seconds();
    t.events = run.network().events_executed();
    t.messages = run.cold_start().messages_sent;
    t.bytes = run.cold_start().bytes_sent;
    t.peak_rss_delta_kb = runner::peak_rss_kb() - rss_before;
    t.metrics.emplace_back("cold_start_time_s", run.cold_start_time());
    if (proto == eval::Protocol::kCentaur) add_footprint(run, t);
    table.row({name, util::fmt_double(t.wall_time_s, 1),
               util::fmt_double(run.cold_start_time(), 1),
               util::fmt_count(t.events), util::fmt_count(t.messages),
               util::fmt_double(static_cast<double>(t.bytes) / (1 << 20), 1),
               util::fmt_double(static_cast<double>(t.peak_rss_delta_kb) / 1024,
                                0)});
    io.report.add(std::move(t));
  };

  // Largest trial first so its peak-RSS delta reflects the real footprint
  // (the kernel high-water mark only rises; later, smaller trials report
  // the growth they add on top, typically ~0).
  cold_start("centaur", eval::Protocol::kCentaur);
  cold_start("bgp", eval::Protocol::kBgp);
  table.print(std::cout);
  std::cout << "\n";
  tables.print(std::cout);

  io.report.add_note("topology: tiered_internet caida_like n=" +
                     std::to_string(g.num_nodes()) + " links=" +
                     std::to_string(g.num_links()) + " generated in " +
                     util::fmt_double(gen_s, 2) + " s");
  io.report.add_note(
      "origination limited to lowest " + std::to_string(origins) +
      " ids (core tiers): full-mesh origination is quadratic in routes and "
      "infeasible at this scale for every protocol; routing for the "
      "originated set is complete");
  io.report.add_note(
      "OSPF excluded: per-node LSDB is O(total links) => quadratic "
      "aggregate memory at 100k+ nodes (infeasible by design)");
  io.report.add_note(
      "invariant analyzer off: a quiescence sweep re-derives every "
      "(node, destination) pair");
  io.report.write();
  return 0;
}
