// Experiment scale selection.
//
// The paper's topologies (26k-node CAIDA, 20k-node HeTop) make all-pairs
// computations quadratic; like the paper we sample.  Every bench honours
// CENTAUR_SCALE={smoke,default,large} so CI stays fast while a large run
// approaches paper scale.  All knobs live here so benches stay declarative.
#pragma once

#include <cstddef>
#include <string>

namespace centaur::util {

enum class Scale { kSmoke, kDefault, kLarge };

/// Reads CENTAUR_SCALE from the environment ("smoke" / "default" / "large",
/// case-insensitive); anything else or unset maps to kDefault.
Scale scale_from_env();

const char* to_string(Scale s);

/// Per-scale experiment knobs.
struct ScaleParams {
  // Synthetic measured-topology sizes (Table 3/4/5, Fig 5).
  std::size_t caida_like_nodes;
  std::size_t hetop_like_nodes;
  // Vantage-node sample for P-graph statistics (Tables 4/5).
  std::size_t pgraph_vantage_sample;
  // Failed-link sample for Fig 5.
  std::size_t fig5_link_sample;
  // Event-driven prototype topology (Figs 6/7); paper uses 500 nodes.
  std::size_t proto_nodes;
  // Link flips measured in Figs 6/7.
  std::size_t proto_flip_sample;
  // Topology size sweep for Fig 8.
  std::size_t fig8_min_nodes;
  std::size_t fig8_max_nodes;
  std::size_t fig8_steps;
  std::size_t fig8_events_per_size;
  // Fig 8 large-scale arm (bench_fig8_large): single tiered topology run
  // to cold-start convergence.  Origination
  // is destination-limited to the lowest `fig8_large_origins` ids (the
  // generator's core tiers) — full-mesh origination is quadratic in routes
  // and infeasible at 100k nodes for every protocol.
  std::size_t fig8_large_nodes;
  std::size_t fig8_large_origins;
  // Base RNG seed for the whole experiment suite.
  std::uint64_t seed;
};

/// Parameter set for `s`.
ScaleParams params_for(Scale s);

/// Convenience: params for the environment-selected scale.
ScaleParams params_from_env();

}  // namespace centaur::util
