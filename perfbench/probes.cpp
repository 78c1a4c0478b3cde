#include "probes.hpp"

#include "centaur/announce.hpp"
#include "centaur/centaur_node.hpp"
#include "centaur/query.hpp"
#include "sim/simulator.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using centaur::core::CentaurNode;
using centaur::topo::NodeId;

const CentaurNode& centaur_at(centaur::sim::Network& net, NodeId v) {
  return static_cast<const CentaurNode&>(net.node(v));
}

/// Shared state of the dispatch probe's self-rescheduling event chains.
struct DispatchChain {
  centaur::sim::Simulator* sim = nullptr;
  centaur::util::Rng* rng = nullptr;
  std::uint64_t scheduled = 0;
  std::uint64_t budget = 0;
  std::size_t nodes = 1;

  void schedule_one();
};

/// One no-op event: it only keeps its chain going while budget remains.
struct DispatchHop {
  DispatchChain* chain;
  void operator()() const {
    if (chain->scheduled < chain->budget) chain->schedule_one();
  }
};

void DispatchChain::schedule_one() {
  ++scheduled;
  const auto tag = static_cast<std::uint32_t>(rng->index(nodes));
  sim->schedule_tagged(rng->uniform(0.0, 0.005), tag, DispatchHop{this});
}

}  // namespace

CentaurState centaur_state(centaur::sim::Network& net) {
  CentaurState state;
  const auto n = static_cast<NodeId>(net.graph().num_nodes());
  for (NodeId v = 0; v < n; ++v) {
    const CentaurNode& node = centaur_at(net, v);
    state.local_links += node.local_pgraph().num_links();
    state.plist_links += node.local_pgraph().active_plist_count();
    for (const NodeId nbr : node.rib_neighbors()) {
      if (const CentaurNode::DestCache* derived = node.neighbor_derived(nbr)) {
        state.rib_entries += derived->size();
      }
    }
  }
  return state;
}

DeriveProbe derive_probe(centaur::sim::Network& net,
                         const std::vector<NodeId>& dests) {
  const auto n = static_cast<NodeId>(net.graph().num_nodes());
  centaur::topo::Path path;
  std::uint64_t queries = 0;
  std::uint64_t found = 0;
  std::uint64_t hops = 0;
  const Clock::time_point t0 = Clock::now();
  for (NodeId v = 0; v < n; ++v) {
    const centaur::core::PGraph& local = centaur_at(net, v).local_pgraph();
    for (const NodeId d : dests) {
      centaur::core::PathQuery q;
      q.dest = d;
      ++queries;
      if (centaur::core::query_path_into(local, q, path) ==
          centaur::core::PathStatus::kFound) {
        ++found;
        hops += path.size() - 1;
      }
    }
  }
  const double elapsed = seconds_between(t0, Clock::now());
  DeriveProbe probe;
  if (queries > 0) probe.ns_per_query = elapsed * 1e9 / static_cast<double>(queries);
  if (found > 0) {
    probe.hops_mean = static_cast<double>(hops) / static_cast<double>(found);
  }
  return probe;
}

SnapshotProbe snapshot_probe(centaur::sim::Network& net) {
  const auto n = static_cast<NodeId>(net.graph().num_nodes());
  double export_s = 0;
  double apply_s = 0;
  double size_s = 0;
  std::uint64_t links = 0;
  SnapshotProbe probe;
  for (NodeId v = 0; v < n; ++v) {
    const centaur::core::PGraph& local = centaur_at(net, v).local_pgraph();
    const Clock::time_point t0 = Clock::now();
    centaur::core::GraphDelta snapshot = centaur::core::diff_views(
        centaur::core::ExportedView{},
        centaur::core::make_export_view(local, nullptr));
    snapshot.reset = true;
    const Clock::time_point t1 = Clock::now();
    // The receiver's stored copy of v's graph; no link points at an id
    // outside the topology, so apply_delta drops nothing.
    centaur::core::PGraph stored(v);
    centaur::core::apply_delta(stored, snapshot, centaur::topo::kInvalidNode);
    const Clock::time_point t2 = Clock::now();
    probe.snapshot_bytes += snapshot.byte_size(false);
    const Clock::time_point t3 = Clock::now();
    export_s += seconds_between(t0, t1);
    apply_s += seconds_between(t1, t2);
    size_s += seconds_between(t2, t3);
    links += snapshot.upserts.size();
  }
  if (n > 0) probe.export_view_us = export_s * 1e6 / n;
  if (links > 0) probe.apply_ns_per_link = apply_s * 1e9 / static_cast<double>(links);
  if (probe.snapshot_bytes > 0) {
    probe.size_ns_per_byte =
        size_s * 1e9 / static_cast<double>(probe.snapshot_bytes);
  }
  return probe;
}

double dispatch_ns_per_event(std::uint64_t events, std::size_t in_flight,
                             std::size_t nodes, std::uint64_t seed) {
  if (events == 0) return 0;
  centaur::sim::Simulator sim;
  centaur::util::Rng rng(seed);
  DispatchChain chain;
  chain.sim = &sim;
  chain.rng = &rng;
  chain.budget = events;
  chain.nodes = nodes > 0 ? nodes : 1;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < in_flight && chain.scheduled < events; ++i) {
    chain.schedule_one();
  }
  const std::size_t executed = sim.run();
  const double elapsed = seconds_between(t0, Clock::now());
  return executed > 0 ? elapsed * 1e9 / static_cast<double>(executed) : 0;
}

}  // namespace perfbench
