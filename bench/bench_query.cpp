// Serving-plane query bench (DESIGN.md §14.5).
//
// Phase 1 ("live"): query lanes hammer the RCU snapshot engine while the
// Centaur protocol cold-starts and flips links on another thread — reads
// race publishes, which is the TSan workload; QPS and latency percentiles
// are reported but never gated (machine-dependent).
//
// Phase 2 ("steady"): after convergence the canonical query set is answered
// at 1 thread and at CENTAUR_SERVE_THREADS lanes, asserted bit-identical,
// and the resulting counters (statuses, hops, disjoint-path histogram,
// publish counts) become the gated datapoints of BENCH_query.json
// (baselines/BENCH_query.json, compared at --tolerance 0 by CI).
#include <iostream>

#include "bench_util.hpp"
#include "serve/query_bench.hpp"

int main(int argc, char** argv) {
  using namespace centaur;

  auto io = bench::bench_setup(
      &argc, argv, "query",
      "Serving plane: k-path queries over RCU P-graph snapshots");

  serve::QueryBenchConfig config;
  config.nodes = io.params.proto_nodes;
  config.seed = io.params.seed ^ 0x5E62E;
  config.serve = eval::serve_options_from_env();

  std::cout << "nodes=" << config.nodes << " query_threads="
            << config.serve.query_threads << " (CENTAUR_SERVE_THREADS)"
            << " k=" << config.serve.query_k << " (CENTAUR_QUERY_K)\n\n";

  const serve::QueryBenchResult result = serve::run_query_bench(config);

  const auto metric = [](const runner::TrialResult& t, const char* key) {
    for (const auto& [name, value] : t.metrics) {
      if (name == std::string(key)) return value;
    }
    return 0.0;
  };
  util::TextTable live("live phase — queries racing convergence");
  live.header({"metric", "value"});
  live.row({"queries issued",
            util::fmt_count(
                static_cast<std::size_t>(metric(result.live, "queries_issued")))});
  live.row({"QPS", util::fmt_double(metric(result.live, "qps"), 0)});
  live.row({"query p50 (us)",
            util::fmt_double(metric(result.live, "query_p50_us"), 1)});
  live.row({"query p99 (us)",
            util::fmt_double(metric(result.live, "query_p99_us"), 1)});
  live.row({"publish p50 (us)",
            util::fmt_double(metric(result.live, "publish_p50_us"), 1)});
  live.row({"publish p99 (us)",
            util::fmt_double(metric(result.live, "publish_p99_us"), 1)});
  live.print(std::cout);

  util::TextTable steady("steady phase — deterministic (gated at 0%)");
  steady.header({"metric", "value"});
  for (const char* key :
       {"found", "unreachable", "not_destination", "paths_returned",
        "total_hops", "disjoint_1", "disjoint_2", "disjoint_3plus",
        "publishes", "full_builds", "cells_live"}) {
    steady.row({key, util::fmt_count(static_cast<std::size_t>(
                         metric(result.steady, key)))});
  }
  steady.print(std::cout);

  io.report.add(result.live);
  io.report.add(result.steady);
  io.report.add_note(
      "steady answers asserted bit-identical at 1 vs " +
      std::to_string(config.serve.query_threads) + " query threads");
  io.report.write();
  if (io.report.enabled()) std::cout << "\nwrote BENCH_query.json report\n";
  return 0;
}
