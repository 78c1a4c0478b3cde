// Figure 8, large-scale arm — 100k+-AS cold-start convergence on the
// sharded event plane (DESIGN.md §13).
//
// The Fig 8 sweep (bench_fig8_scalability) measures per-event update
// overhead on topologies up to a few hundred nodes.  This arm answers the
// scale question instead: a tiered-internet topology at (or beyond) the
// paper's measured-table sizes ×4, cold-started to quiescence under
// CENTAUR_SHARDS-way topology sharding, reporting wall time, peak-RSS
// growth, and the per-shard event/channel breakdown.
//
// Workload notes (also emitted as JSON provenance):
//   * Origination is destination-limited to the lowest fig8_large_origins
//     ids (the generator's core tiers): full-mesh origination is quadratic
//     in routes and infeasible at this scale for every protocol.  Routing
//     for the originated set is complete and unmodified.
//   * Centaur runs sharded AND unsharded; the deterministic counters must
//     match exactly (the sharded plane's bit-identity contract, asserted
//     here at full scale), so the two wall times are directly comparable.
//   * BGP runs as the sharded baseline protocol.
//   * OSPF is excluded: its per-node LSDB is O(total links), which at 100k
//     nodes is quadratic aggregate memory — infeasible by design, not by
//     implementation.
//   * The invariant analyzer stays off: a quiescence sweep re-derives every
//     (node, destination) pair, which at this scale costs more than the
//     run it checks.  Identity/invariant coverage for the sharded plane
//     lives in tests/shard_identity_test.cpp.
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "eval/experiments.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace centaur;

/// Pins CENTAUR_SHARDS for one trial; restores the caller's value on exit
/// (the Network constructor samples the environment).
class ScopedShards {
 public:
  explicit ScopedShards(std::size_t count) {
    const char* prev = std::getenv("CENTAUR_SHARDS");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    ::setenv("CENTAUR_SHARDS", std::to_string(count).c_str(), 1);
  }
  ~ScopedShards() {
    if (had_prev_) {
      ::setenv("CENTAUR_SHARDS", prev_.c_str(), 1);
    } else {
      ::unsetenv("CENTAUR_SHARDS");
    }
  }
  ScopedShards(const ScopedShards&) = delete;
  ScopedShards& operator=(const ScopedShards&) = delete;

 private:
  bool had_prev_ = false;
  std::string prev_;
};

/// Deterministic cold-start outcome, for the sharded-vs-unsharded identity
/// assertion.
struct ColdCounters {
  std::uint64_t events = 0;
  std::size_t messages = 0;
  std::size_t bytes = 0;
  double converged_at = 0;

  bool operator==(const ColdCounters&) const = default;
};

}  // namespace

int main(int argc, char** argv) {
  auto io = bench::bench_setup(
      &argc, argv, "fig8_large",
      "Figure 8 (large-scale arm): 100k+-AS tiered-internet cold start "
      "under the sharded event plane");
  const auto& params = io.params;
  const std::size_t n = params.fig8_large_nodes;
  const auto origins = static_cast<topo::NodeId>(params.fig8_large_origins);
  const std::size_t shards = runner::shards_from_env() > 1
                                 ? runner::shards_from_env()
                                 : 4;  // the arm exists to exercise sharding

  util::Rng topo_rng(params.seed ^ 0xF18A);
  const runner::Stopwatch gen_sw;
  const topo::AsGraph g =
      topo::tiered_internet(topo::caida_like_params(n), topo_rng);
  const double gen_s = gen_sw.seconds();
  std::cout << "topology: " << g.num_nodes() << " nodes, " << g.num_links()
            << " links (tiered_internet, generated in "
            << util::fmt_double(gen_s, 2) << " s)\n"
            << "origins:  lowest " << origins << " ids (destination-limited)\n"
            << "shards:   " << shards << " (CENTAUR_SHARDS)\n\n";

  eval::RunOptions opts;
  opts.origin_limit = origins;

  util::TextTable table("Figure 8 large — cold start to quiescence");
  table.header({"Arm", "Wall s", "Sim s", "Events", "Messages", "MB sent",
                "RSS +MiB"});

  ColdCounters sharded_counters, unsharded_counters;
  const auto cold_start = [&](const std::string& name, eval::Protocol proto,
                              std::size_t shard_count,
                              ColdCounters* counters_out) {
    const ScopedShards pin(shard_count);
    const std::uint64_t rss_before = runner::peak_rss_kb();
    util::Rng rng(params.seed ^ 0xF888);
    const runner::Stopwatch sw;
    const eval::ProtocolRun run(g, proto, rng, opts);
    runner::TrialResult t;
    t.name = name;
    t.wall_time_s = sw.seconds();
    const sim::Simulator& sim =
        const_cast<eval::ProtocolRun&>(run).network().simulator();
    t.events = sim.executed();
    t.messages = run.cold_start().messages_sent;
    t.bytes = run.cold_start().bytes_sent;
    t.peak_rss_delta_kb = runner::peak_rss_kb() - rss_before;
    t.metrics.emplace_back("cold_start_time_s", run.cold_start_time());
    t.metrics.emplace_back("shards", static_cast<double>(sim.shards()));
    if (sim.shards() > 1) {
      // Per-shard breakdown: event counts are deterministic (gateable).
      // Per-shard wall time is left out: it is measured only when worker
      // lanes execute shard sub-batches, and this arm runs them serially.
      std::uint64_t channel_total = 0;
      for (std::size_t s = 0; s < sim.shards(); ++s) {
        const sim::Simulator::ShardStats& st = sim.shard_stats()[s];
        t.metrics.emplace_back("shard" + std::to_string(s) + "_events",
                               static_cast<double>(st.events));
        for (std::size_t d = 0; d < sim.shards(); ++d) {
          channel_total += sim.channel_messages(s, d);
        }
      }
      t.metrics.emplace_back("cross_shard_messages",
                             static_cast<double>(channel_total));
    }
    if (counters_out != nullptr) {
      *counters_out = ColdCounters{t.events, t.messages, t.bytes,
                                   run.cold_start_time()};
    }
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
  cold_start("centaur_sharded", eval::Protocol::kCentaur, shards,
             &sharded_counters);
  cold_start("centaur_unsharded", eval::Protocol::kCentaur, 1,
             &unsharded_counters);
  cold_start("bgp_sharded", eval::Protocol::kBgp, shards, nullptr);
  table.print(std::cout);

  if (!(sharded_counters == unsharded_counters)) {
    // The whole point of the deterministic barrier protocol: if this fires,
    // the sharded plane broke bit-identity at scale.
    throw std::logic_error(
        "fig8_large: sharded and unsharded Centaur cold starts diverged");
  }
  std::cout << "\nIdentity check: sharded (" << shards
            << "-way) and unsharded Centaur cold starts are bit-identical ("
            << util::fmt_count(sharded_counters.events) << " events, "
            << util::fmt_count(sharded_counters.messages) << " messages).\n";

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
      "sharded vs unsharded Centaur: identical deterministic counters "
      "(asserted in-run); wall times in the trial rows are directly "
      "comparable");
  io.report.add_note(
      "OSPF excluded: per-node LSDB is O(total links) => quadratic "
      "aggregate memory at 100k+ nodes (infeasible by design)");
  io.report.add_note(
      "invariant analyzer off: a quiescence sweep re-derives every "
      "(node, destination) pair; sharded-plane identity/invariant coverage "
      "lives in tests/shard_identity_test.cpp");
  io.report.write();
  return 0;
}
