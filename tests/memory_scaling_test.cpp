// Memory-scaling regression gate for per-node Centaur state (DESIGN.md §5.1).
//
// Every node keeps one P-graph per neighbor.  Sized by content, those graphs
// hold only the links toward the originated destinations; presized or
// indexed by global AS id, every (node, neighbor) pair costs O(n) and the
// aggregate grows quadratically — a 4,000-node cold start then needs more
// than 15 GB.  This test cold-starts Centaur on that topology with 16
// origins and bounds the process's peak RSS (VmHWM) at 1 GB; content-sized
// state peaks near 77 MB in a Release build.  It is the only test in its
// binary, so nothing else raises the high-water mark first.
#include <gtest/gtest.h>

#include <cstdint>

#include "centaur/centaur_node.hpp"
#include "eval/protocol_config.hpp"
#include "runner/bench_report.hpp"
#include "sim/network.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace centaur {
namespace {

TEST(MemoryScaling, CentaurColdStartAt4kNodesStaysUnder1GB) {
  constexpr std::size_t kNodes = 4000;
  constexpr topo::NodeId kOrigins = 16;
  constexpr std::uint64_t kPeakLimitKb = std::uint64_t{1} << 20;  // 1 GiB

  util::Rng rng(4000);
  topo::AsGraph graph =
      topo::tiered_internet(topo::caida_like_params(kNodes), rng);
  eval::RunOptions options;
  options.origin_limit = kOrigins;
  sim::Network net(graph, rng);
  for (topo::NodeId v = 0; v < graph.num_nodes(); ++v) {
    net.attach(v, eval::make_protocol_node(eval::Protocol::kCentaur, graph,
                                           options));
  }
  net.mark();
  net.start_all_and_converge();

  // The run did the full cold start: every node routes to every origin.
  EXPECT_GT(net.window().messages_sent, 0u);
  for (topo::NodeId v = 0; v < graph.num_nodes(); ++v) {
    const auto& node = dynamic_cast<const core::CentaurNode&>(net.node(v));
    ASSERT_EQ(node.selected_paths().size(), kOrigins) << "node " << v;
  }

  const std::uint64_t peak_kb = runner::peak_rss_kb();  // == VmHWM on Linux
  EXPECT_LT(peak_kb, kPeakLimitKb)
      << "peak RSS " << peak_kb / 1024 << " MiB at " << kNodes << " nodes";
}

}  // namespace
}  // namespace centaur
