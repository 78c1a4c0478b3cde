#include "serve/snapshot.hpp"

#include <algorithm>
#include <utility>

namespace centaur::serve {

const PGraph::AdjList PGraphSnapshot::kEmptyAdj{};

namespace {

/// Copies one node's live in-link state out of `local`.
SnapNode freeze_node(const PGraph& local, NodeId n) {
  SnapNode sn;
  const PGraph::AdjList& ps = local.parents(n);
  sn.parents = ps;
  sn.plists.reserve(ps.size());
  for (const NodeId p : ps) {
    const core::LinkData* data = local.find_link_data(p, n);
    sn.plists.push_back(data != nullptr ? data->plist
                                        : core::PermissionList{});
  }
  return sn;
}

/// Bounds the overlay-chain length even when deltas are tiny relative to
/// the graph: lookup cost is O(depth), so a hard cap keeps the read path
/// flat while the geometric rule keeps publishes delta-proportional.
constexpr std::size_t kMaxDepth = 64;

}  // namespace

std::shared_ptr<const PGraphSnapshot> SnapshotBuilder::build_full(
    const PGraph& local) {
  auto snap = std::make_shared<PGraphSnapshot>();
  snap->root_ = local.root();
  snap->version_ = next_version_++;
  snap->full_ = true;
  snap->depth_ = 1;
  // Link heads == the nodes with a non-empty parent list.  The parent map
  // visits ids ascending, so every insert appends to the sorted VecMap.
  snap->nodes_.reserve(local.parent_map().size());
  local.parent_map().for_each([&](NodeId n, const PGraph::AdjList& ps) {
    if (!ps.empty()) snap->nodes_[n] = freeze_node(local, n);
  });
  snap->dests_ = local.destinations();
  ++full_builds_;
  full_nodes_ = snap->nodes_.size();
  overlay_accum_ = 0;
  prev_ = snap;
  return snap;
}

std::shared_ptr<const PGraphSnapshot> SnapshotBuilder::publish(
    const PGraph& local, const std::vector<NodeId>& changed_dests,
    const std::vector<DirectedLink>& touched_links) {
  if (policy_ == eval::SnapshotPolicy::kFull || prev_ == nullptr) {
    return build_full(local);
  }

  // Dirty node set: every touched link's head (in-link owner).  Destination
  // mark flips ride along from changed_dests.
  dirty_scratch_.clear();
  dirty_scratch_.reserve(touched_links.size());
  for (const DirectedLink& link : touched_links) {
    dirty_scratch_.push_back(link.to);
  }
  std::sort(dirty_scratch_.begin(), dirty_scratch_.end());
  dirty_scratch_.erase(
      std::unique(dirty_scratch_.begin(), dirty_scratch_.end()),
      dirty_scratch_.end());

  const std::size_t depth = prev_->depth_ + 1;
  overlay_accum_ += dirty_scratch_.size();
  if (depth > kMaxDepth ||
      overlay_accum_ >= std::max<std::size_t>(full_nodes_, 16)) {
    return build_full(local);
  }

  auto snap = std::make_shared<PGraphSnapshot>();
  snap->root_ = local.root();
  snap->version_ = next_version_++;
  snap->full_ = false;
  snap->depth_ = depth;
  snap->base_ = prev_;
  for (const NodeId n : dirty_scratch_) {
    snap->nodes_[n] = freeze_node(local, n);
  }
  for (const NodeId d : changed_dests) {
    snap->marks_[d] = local.is_destination(d) ? 1 : 0;
  }
  prev_ = snap;
  return snap;
}

}  // namespace centaur::serve
