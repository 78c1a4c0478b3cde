// Protocol selection and per-run options, shared by every experiment
// entry point.
//
// These types used to live inside eval/experiments.hpp; they are split out
// so the ScenarioSpec API (src/faults/scenario.hpp) can aggregate
// "topology + protocol + RunOptions + fault script" without pulling in the
// whole link-flip harness.  experiments.hpp re-exports them, so existing
// callers compile unchanged.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "centaur/query.hpp"
#include "sim/network.hpp"
#include "topology/as_graph.hpp"

namespace centaur::eval {

enum class Protocol { kBgp, kBgpRcn, kCentaur, kOspf };

const char* to_string(Protocol p);

/// Parses "bgp" / "bgp-rcn" / "centaur" / "ospf" (the CLI and scenario-file
/// spellings).  Throws std::invalid_argument on anything else.
Protocol protocol_from_string(const std::string& name);

/// All four protocols in a fixed, reportable order (campaign sweeps).
inline constexpr Protocol kAllProtocols[] = {
    Protocol::kBgp, Protocol::kBgpRcn, Protocol::kCentaur, Protocol::kOspf};

/// Invariant analysis while a run executes (src/check).
enum class AnalysisMode {
  kOff,      ///< no checking (measurement runs; checks distort nothing but
             ///< cost time)
  kCollect,  ///< record violations into the run's AnalysisReport
  kAssert,   ///< like kCollect, but throw std::logic_error at the first
             ///< quiescence sweep that finds the report non-clean
};

/// Analysis mode requested via the CENTAUR_CHECK environment variable at
/// *runtime* (any build type): unset/"0"/"off" -> `fallback`, "1"/"collect"
/// -> kCollect, "assert" -> kAssert.  Lets release-build benches and the
/// parallel trial driver run with the invariant checker attached.
AnalysisMode analysis_from_env(AnalysisMode fallback = AnalysisMode::kOff);

/// Per-run protocol options.
struct RunOptions {
  /// BGP Minimum Route Advertisement Interval, seconds.  The paper's
  /// DistComm prototype sits on the SSFNet code base, whose BGP uses the
  /// standard 30 s eBGP MRAI — the dominant term in its Fig 6 convergence
  /// times.  0 disables batching (propagation-limited BGP).
  sim::Time bgp_mrai = 0.0;
  /// When non-zero, only nodes with id < origin_limit originate their
  /// prefix (destination-limited workload for 100k+-node scale runs —
  /// full-mesh origination is quadratic in routes).  Applied uniformly to
  /// Centaur and BGP so cross-protocol numbers stay comparable; OSPF
  /// ignores it (its LSDB is already per-link, but that also makes it
  /// infeasible at this scale — see bench_fig8_large).
  topo::NodeId origin_limit = 0;
  /// Invariant analysis mode.  kOff is upgraded to kAssert for Centaur runs
  /// in CENTAUR_CHECK (Debug) builds, so every tier-1 simulation doubles as
  /// an invariant test.
  AnalysisMode analysis = AnalysisMode::kOff;
  /// Serving-plane snapshot export hook, forwarded to CentaurNode::Config
  /// (src/serve attaches its QueryEngine here; null for every measurement
  /// run that does not serve queries).  Centaur-only: the other protocols
  /// have no P-graph to snapshot and ignore it.
  core::SnapshotSink centaur_snapshot_sink;
};

/// Query-plane knobs, split out of RunOptions: they configure how converged
/// state is *served*, not how the protocol runs, so protocol equivalence
/// and bit-identity contracts never depend on them.  Snapshot publishing
/// has a single path and no knob (DESIGN.md §14.1).
struct ServeOptions {
  /// Paths enumerated per (src, dst) query (CENTAUR_QUERY_K).
  std::size_t query_k = 4;
  /// Query worker threads for serve/querybench (CENTAUR_SERVE_THREADS).
  /// Results are bit-identical for any value; only throughput changes.
  std::size_t query_threads = 4;
};

/// ServeOptions from the environment via the strict util/env parsers:
/// CENTAUR_QUERY_K and CENTAUR_SERVE_THREADS (integers >= 1; garbage warns
/// once and keeps the default).
ServeOptions serve_options_from_env();

/// Builds one protocol instance for a topology node.  This is the single
/// node factory every harness uses — ProtocolRun's initial attach, crash
/// /restart replacement in the campaign engine (src/faults/campaign.cpp),
/// and ProtocolRun::reset().
std::unique_ptr<sim::Node> make_protocol_node(Protocol p,
                                              const topo::AsGraph& graph,
                                              const RunOptions& options);

}  // namespace centaur::eval
