// Figure 8 — scalability: update overhead vs topology size.
//
// The paper creates BRITE topologies of increasing size, cold-starts the
// protocols, and measures the update overhead per routing event; Centaur's
// advantage over BGP widens with topology size because a BGP event fans out
// per destination while a Centaur event stays per link.
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "eval/experiments.hpp"
#include "util/stats.hpp"

namespace {

using namespace centaur;

double mean(const std::vector<double>& v) {
  util::Accumulator a;
  for (double x : v) a.add(x);
  return a.mean();
}

}  // namespace

int main(int argc, char** argv) {
  auto io = bench::bench_setup(
      &argc, argv, "fig8_scalability",
      "Figure 8: update overhead per routing event vs topology size "
      "(Centaur vs BGP)");
  const auto& params = io.params;

  util::TextTable table("Figure 8 — mean messages per link-flip event");
  table.header({"Nodes", "Links", "Centaur", "BGP", "BGP/Centaur",
                "Centaur cold-start", "BGP cold-start"});

  const std::size_t steps = std::max<std::size_t>(2, params.fig8_steps);
  const std::size_t flips =
      std::max<std::size_t>(1, params.fig8_events_per_size / 2);
  const eval::Protocol protos[] = {eval::Protocol::kCentaur,
                                   eval::Protocol::kBgp};
  eval::RunOptions opts;
  opts.analysis = eval::analysis_from_env();

  // steps x protocols independent trials.  Each trial regenerates its
  // topology from the per-size seed (deterministic, so the two protocol
  // arms of a size see the identical graph) and replays the size's flip
  // sequence; trial inputs are a pure function of the index, making the
  // fan-out bit-identical to a serial run.
  struct Timed {
    eval::FlipSeries series;
    std::size_t nodes = 0;
    std::size_t links = 0;
    double wall_s = 0;
  };
  const std::size_t trial_count = steps * std::size(protos);
  const auto results =
      runner::run_trials(trial_count, io.threads, [&](std::size_t i) {
        const std::size_t s = i / std::size(protos);
        const eval::Protocol proto = protos[i % std::size(protos)];
        const std::size_t n =
            params.fig8_min_nodes +
            (params.fig8_max_nodes - params.fig8_min_nodes) * s / (steps - 1);
        util::Rng topo_rng(params.seed ^ (0xF180 + s));
        const topo::AsGraph g =
            topo::brite_like(n, 2, std::max<std::size_t>(4, n / 40), topo_rng);
        const runner::Stopwatch sw;
        Timed t;
        t.series = eval::run_link_flips(g, proto, flips,
                                        util::Rng(params.seed ^ 0xF888), opts);
        t.nodes = n;
        t.links = g.num_links();
        t.wall_s = sw.seconds();
        return t;
      });

  for (std::size_t s = 0; s < steps; ++s) {
    const Timed& centaur = results[s * std::size(protos)];
    const Timed& bgp = results[s * std::size(protos) + 1];
    const double cm = mean(centaur.series.message_counts);
    const double bm = mean(bgp.series.message_counts);
    table.row({util::fmt_count(centaur.nodes), util::fmt_count(centaur.links),
               util::fmt_double(cm, 1), util::fmt_double(bm, 1),
               util::fmt_double(bm / std::max(1.0, cm), 2),
               util::fmt_count(centaur.series.cold_start.messages_sent),
               util::fmt_count(bgp.series.cold_start.messages_sent)});
    for (const Timed* t : {&centaur, &bgp}) {
      const bool is_centaur = t == &centaur;
      io.report.add(bench::series_trial(
          std::string(is_centaur ? "centaur_n" : "bgp_n") +
              std::to_string(t->nodes),
          t->wall_s, t->series));
    }
    // Wall-time gap note per scale (informational, like wall_time_s itself
    // — never gated; bench_compare.py prints baseline vs current side by
    // side).  The incremental recompute plane exists to close this ratio.
    io.report.add_note(
        "centaur_vs_bgp_wall_ratio n=" + std::to_string(centaur.nodes) +
        ": " +
        util::fmt_double(centaur.wall_s / std::max(bgp.wall_s, 1e-9), 2) +
        " (centaur " + util::fmt_double(centaur.wall_s, 3) + " s, bgp " +
        util::fmt_double(bgp.wall_s, 3) + " s)");
  }
  table.print(std::cout);

  std::cout << "Shape check: the BGP/Centaur ratio should grow with the\n"
               "topology size — \"Centaur presents more distinct advantage\n"
               "on larger topologies\" (paper Fig 8).\n";

  // ProtocolRun reuse measurement (stdout only — the JSON baseline is
  // unchanged): campaign harnesses that need repeated cold starts used to
  // construct a fresh ProtocolRun each time, paying a full AS-graph copy
  // per run; reset() rebuilds the network and nodes in place instead.
  // Compare equal numbers of cold starts on the largest Fig 8 topology.
  {
    const std::size_t n = params.fig8_max_nodes;
    util::Rng topo_rng(params.seed ^ (0xF180 + steps - 1));
    const topo::AsGraph g =
        topo::brite_like(n, 2, std::max<std::size_t>(4, n / 40), topo_rng);
    eval::RunOptions plain;  // analysis off: measure the harness, not checks
    constexpr std::size_t kRepeats = 3;

    const runner::Stopwatch copy_sw;
    for (std::size_t r = 0; r < kRepeats; ++r) {
      util::Rng rng(params.seed ^ 0xF888);
      const eval::ProtocolRun run(g, eval::Protocol::kCentaur, rng, plain);
    }
    const double copy_s = copy_sw.seconds();

    util::Rng rng(params.seed ^ 0xF888);
    eval::ProtocolRun run(g, eval::Protocol::kCentaur, rng, plain);
    const runner::Stopwatch reset_sw;
    for (std::size_t r = 0; r < kRepeats; ++r) run.reset(rng);
    const double reset_s = reset_sw.seconds();

    std::cout << "\nProtocolRun reuse (n=" << n << ", " << kRepeats
              << " cold starts): fresh-construct "
              << util::fmt_double(copy_s * 1e3, 1)
              << " ms (AS-graph copy per run), reset-in-place "
              << util::fmt_double(reset_s * 1e3, 1) << " ms ("
              << util::fmt_double(copy_s / std::max(reset_s, 1e-9), 2)
              << "x)\n";
  }

  io.report.write();
  return 0;
}
