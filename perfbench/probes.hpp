// Per-layer probes of the traced run.  Each one runs on converged state,
// outside every timed section, and times one layer's operation in
// isolation; none of them changes protocol state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/network.hpp"
#include "topology/types.hpp"

namespace perfbench {

/// Size of the converged Centaur state, summed over nodes.
struct CentaurState {
  std::uint64_t local_links = 0;  ///< local_pgraph().num_links()
  std::uint64_t plist_links = 0;  ///< local_pgraph().active_plist_count()
  std::uint64_t rib_entries = 0;  ///< neighbor_derived(nbr)->size()
};
CentaurState centaur_state(centaur::sim::Network& net);

/// DerivePath (core::query_path_into) for every node x destination on the
/// nodes' local P-graphs.
struct DeriveProbe {
  double ns_per_query = 0;
  double hops_mean = 0;
};
DeriveProbe derive_probe(centaur::sim::Network& net,
                         const std::vector<centaur::topo::NodeId>& dests);

/// Every node's full export view as a reset snapshot: the export layer
/// (make_export_view + diff_views), the import layer (apply_delta into an
/// empty P-graph) and the wire layer (GraphDelta::byte_size).
struct SnapshotProbe {
  double export_view_us = 0;         ///< per node
  double apply_ns_per_link = 0;      ///< per upserted link
  std::uint64_t snapshot_bytes = 0;  ///< summed over nodes
  double size_ns_per_byte = 0;
};
SnapshotProbe snapshot_probe(centaur::sim::Network& net);

/// Simulator dispatch cost alone: `events` no-op node-tagged events through
/// Simulator::schedule_tagged + run, keeping `in_flight` outstanding with
/// delays drawn like the network's link delays.
double dispatch_ns_per_event(std::uint64_t events, std::size_t in_flight,
                             std::size_t nodes, std::uint64_t seed);

}  // namespace perfbench
