#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace centaur::serve {

namespace {

/// Percentile over a writer-side latency sample vector (nearest-rank).
double percentile_us(std::vector<float>& samples, double p) {
  if (samples.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1) + 0.5);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return static_cast<double>(samples[rank]);
}

}  // namespace

QueryEngine::QueryEngine(std::size_t num_nodes,
                         const eval::ServeOptions& opts)
    : opts_(opts),
      num_nodes_(num_nodes),
      // Query threads plus headroom for the driver / main thread so a full
      // complement of readers never spins on slot acquisition.
      registry_(opts.query_threads + 2),
      cells_(new Cell[num_nodes]) {}

core::SnapshotSink QueryEngine::make_sink() {
  return [this](NodeId self, const PGraph& local,
                const std::vector<NodeId>& changed_dests,
                const std::vector<DirectedLink>& touched_links) {
    publish(self, local, changed_dests, touched_links);
  };
}

void QueryEngine::publish(NodeId node, const PGraph& local,
                          const std::vector<NodeId>& changed_dests,
                          const std::vector<DirectedLink>& touched_links) {
  if (static_cast<std::size_t>(node) >= num_nodes_) return;
  Cell& cell = cells_[node];
  const auto t0 = std::chrono::steady_clock::now();
  // No dirty sets means no delta (core::SnapshotSink): a fresh protocol
  // instance's first publish, rebuilt so nothing its crashed predecessor
  // published survives.
  auto snap = changed_dests.empty() && touched_links.empty()
                  ? cell.builder.rebuild(local)
                  : cell.builder.publish(local, changed_dests, touched_links);
  cell.cell.publish(std::move(snap), registry_);
  const auto t1 = std::chrono::steady_clock::now();
  ++cell.publishes;
  cell.publish_us.push_back(
      std::chrono::duration<float, std::micro>(t1 - t0).count());
}

QueryEngine::QueryResult QueryEngine::query(NodeId src, NodeId dst,
                                            std::size_t k) const {
  QueryResult result;
  if (k == 0) k = opts_.query_k;
  if (static_cast<std::size_t>(src) >= num_nodes_) return result;

  ReadPin pin(registry_);
  const PGraphSnapshot* snap = cells_[src].cell.current();
  if (snap == nullptr) return result;
  result.version = snap->version();

  if (dst == snap->root()) {
    // Self-destination: unified contract (DESIGN.md §14.3) — the trivial
    // path {src}, exactly one of it, trivially disjoint.
    result.status = QueryStatus::kOk;
    result.paths.push_back(Path{src});
    result.disjoint = 1;
    return result;
  }
  if (!snap->is_destination(dst)) {
    result.status = QueryStatus::kNotDestination;
    return result;
  }

  // One enumeration serves both answers: the first k paths and the
  // disjoint count over all of them.
  core::KPathResult all = core::query_all_paths(*snap, dst);
  result.truncated = all.truncated;
  if (all.paths.empty()) {
    result.status = QueryStatus::kUnreachable;
    return result;
  }
  result.status = QueryStatus::kOk;
  result.disjoint = core::disjoint_count(all.paths);
  if (all.paths.size() > k) all.paths.resize(k);
  result.paths = std::move(all.paths);
  return result;
}

QueryEngine::PublishStats QueryEngine::publish_stats() const {
  PublishStats stats;
  std::vector<float> all;
  for (std::size_t i = 0; i < num_nodes_; ++i) {
    const Cell& cell = cells_[i];
    stats.publishes += cell.publishes;
    stats.full_builds += cell.builder.full_builds();
    if (cell.publishes > 0) ++stats.cells_live;
    all.insert(all.end(), cell.publish_us.begin(), cell.publish_us.end());
  }
  for (const float us : all) stats.total_us += static_cast<double>(us);
  stats.p50_us = percentile_us(all, 0.50);
  stats.p99_us = percentile_us(all, 0.99);
  return stats;
}

const char* to_string(QueryEngine::QueryStatus s) {
  switch (s) {
    case QueryEngine::QueryStatus::kOk:
      return "ok";
    case QueryEngine::QueryStatus::kNoSnapshot:
      return "no_snapshot";
    case QueryEngine::QueryStatus::kNotDestination:
      return "not_destination";
    case QueryEngine::QueryStatus::kUnreachable:
      return "unreachable";
  }
  return "unknown";
}

}  // namespace centaur::serve
