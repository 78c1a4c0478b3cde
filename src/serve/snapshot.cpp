#include "serve/snapshot.hpp"

#include <algorithm>
#include <memory>
#include <new>
#include <utility>

namespace centaur::serve {

using snapshot_detail::Entry;
using snapshot_detail::kBits;
using snapshot_detail::Replaced;
using snapshot_detail::TreeNode;

namespace {

constexpr std::uint32_t kIndexMask = (1u << kBits) - 1;

// A node's entries start right after its header, in the same block.
static_assert(sizeof(TreeNode) % alignof(Entry) == 0);

/// Allocates a node with its `count` entries in one block.
TreeNode* make_node(std::uint32_t present, std::uint32_t multi,
                    std::uint32_t dests, const Entry* entries,
                    std::uint32_t count) {
  void* mem = ::operator new(sizeof(TreeNode) + count * sizeof(Entry));
  auto* node = new (mem) TreeNode{present, multi, dests, count};
  std::uninitialized_copy_n(entries, count, reinterpret_cast<Entry*>(node + 1));
  return node;
}

void free_node(const TreeNode* node) {
  ::operator delete(const_cast<TreeNode*>(node));
}

/// Frees a whole subtree rooted at `level` (0 = leaf), SnapNodes included.
void free_tree(const TreeNode* node, unsigned level) {
  if (node == nullptr) return;
  std::uint32_t bits = node->present;
  for (std::uint32_t i = 0; i < node->count; ++i, bits &= bits - 1) {
    const Entry& e = node->entries()[i];
    if (level > 0) {
      free_tree(e.child, level - 1);
    } else if ((node->multi >> std::countr_zero(bits) & 1u) != 0) {
      delete e.multi;
    }
  }
  free_node(node);
}

/// Mask with bit (id >> shift) & 31 set for every id in [first, last).
std::uint32_t index_mask(const NodeId* first, const NodeId* last,
                         unsigned shift) {
  std::uint32_t mask = 0;
  for (const NodeId* it = first; it != last; ++it) {
    mask |= std::uint32_t{1} << ((*it >> shift) & kIndexMask);
  }
  return mask;
}

/// One publish's path copy: rebuilds the subtrees holding dirty ids from
/// the live graph and records every predecessor node it replaces.
struct PathCopy {
  const PGraph& local;
  Replaced& replaced;

  /// Successor subtree at `level` for the sorted dirty ids [first, last),
  /// all inside this subtree's range; nullptr when it ends up empty.
  /// `old` is the predecessor's subtree over the same range, rooted at
  /// `old_level` <= `level`: a lower root means the predecessor's tree was
  /// shorter, and the levels in between are implicit one-child branches.
  const TreeNode* subtree(const TreeNode* old, unsigned old_level,
                          unsigned level, const NodeId* first,
                          const NodeId* last) {
    if (first == last && (old == nullptr || old_level == level)) return old;
    if (level == 0) return leaf(old, first, last);

    const unsigned shift = kBits * level;
    const bool shorter = old != nullptr && old_level < level;
    std::uint32_t old_present = 0;
    if (shorter) {
      old_present = 1;  // the shorter tree covers the ids under index 0
    } else if (old != nullptr) {
      old_present = old->present;
      replaced.nodes.push_back(old);
    }

    Entry out[1u << kBits];
    std::uint32_t present = 0;
    std::uint32_t count = 0;
    const NodeId* it = first;
    for (std::uint32_t todo = old_present | index_mask(first, last, shift);
         todo != 0; todo &= todo - 1) {
      const auto index = static_cast<std::uint32_t>(std::countr_zero(todo));
      const std::uint32_t bit = std::uint32_t{1} << index;
      const NodeId* end = it;
      while (end != last && ((*end >> shift) & kIndexMask) == index) ++end;
      const TreeNode* old_child = nullptr;
      if ((old_present & bit) != 0) old_child = shorter ? old : old->at(bit).child;
      const TreeNode* child = subtree(old_child, shorter ? old_level : level - 1,
                                      level - 1, it, end);
      it = end;
      if (child == nullptr) continue;
      out[count++].child = child;
      present |= bit;
    }
    if (count == 0) return nullptr;
    return make_node(present, 0, 0, out, count);
  }

  /// Successor leaf: dirty ids re-read from the live graph, every other
  /// slot and mark copied from `old`.
  const TreeNode* leaf(const TreeNode* old, const NodeId* first,
                       const NodeId* last) {
    const NodeId base = *first & ~kIndexMask;
    const std::uint32_t dirty = index_mask(first, last, 0);
    std::uint32_t old_present = 0;
    std::uint32_t old_multi = 0;
    std::uint32_t dests = 0;
    if (old != nullptr) {
      old_present = old->present;
      old_multi = old->multi;
      dests = old->dests & ~dirty;
      replaced.nodes.push_back(old);
    }

    Entry out[1u << kBits];
    std::uint32_t present = 0;
    std::uint32_t multi = 0;
    std::uint32_t count = 0;
    const Entry* old_entry = old != nullptr ? old->entries() : nullptr;
    for (std::uint32_t todo = old_present | dirty; todo != 0;
         todo &= todo - 1) {
      const auto index = static_cast<std::uint32_t>(std::countr_zero(todo));
      const std::uint32_t bit = std::uint32_t{1} << index;
      const Entry* prior = (old_present & bit) != 0 ? old_entry++ : nullptr;
      if ((dirty & bit) == 0) {
        out[count++] = *prior;
        present |= bit;
        multi |= old_multi & bit;
        continue;
      }
      if ((old_multi & bit) != 0) replaced.multis.push_back(prior->multi);
      const NodeId n = base | index;
      if (local.is_destination(n)) dests |= bit;
      const PGraph::AdjList& ps = local.parents(n);
      if (ps.empty()) continue;
      present |= bit;
      if (ps.size() == 1) {
        out[count++].parent = ps.front();
        continue;
      }
      multi |= bit;
      auto* sn = new SnapNode{ps, {}};
      sn->plists.reserve(ps.size());
      for (const NodeId p : ps) {
        const core::PermissionList* plist = local.plist(p, n);
        sn->plists.push_back(plist != nullptr ? *plist
                                              : core::PermissionList{});
      }
      out[count++].multi = sn;
    }
    if (present == 0 && dests == 0) return nullptr;
    return make_node(present, multi, dests, out, count);
  }
};

/// Levels needed so that every id up to `max_id` fits.
unsigned height_for(NodeId max_id) {
  unsigned height = 1;
  while ((std::uint64_t{max_id} >> (kBits * height)) != 0) ++height;
  return height;
}

}  // namespace

PGraphSnapshot::~PGraphSnapshot() {
  if (!superseded_) {
    free_tree(tree_, height_ - 1);
    return;
  }
  for (const TreeNode* node : replaced_.nodes) free_node(node);
  for (const SnapNode* sn : replaced_.multis) delete sn;
  // Release the successor chain iteratively: a long-pinned version can be
  // the last owner of thousands of successors, and letting each destructor
  // drop the next would recurse once per version.
  std::shared_ptr<PGraphSnapshot> next = std::move(successor_);
  while (next != nullptr && next.use_count() == 1) {
    std::shared_ptr<PGraphSnapshot> after = std::move(next->successor_);
    next.reset();
    next = std::move(after);
  }
}

std::shared_ptr<const PGraphSnapshot> SnapshotBuilder::publish(
    const PGraph& local, const std::vector<NodeId>& changed_dests,
    const std::vector<DirectedLink>& touched_links) {
  // Dirty ids: on the first publish every link head and destination, then
  // every touched link's head (in-link owner) and every changed mark.
  std::vector<NodeId>& dirty = dirty_scratch_;
  dirty.clear();
  if (prev_ == nullptr) {
    ++full_builds_;
    local.parent_map().for_each([&](NodeId n, const PGraph::AdjList& ps) {
      if (!ps.empty()) dirty.push_back(n);
    });
    dirty.insert(dirty.end(), local.destinations().begin(),
                 local.destinations().end());
  } else {
    dirty.reserve(touched_links.size() + changed_dests.size());
    for (const DirectedLink& link : touched_links) dirty.push_back(link.to);
    dirty.insert(dirty.end(), changed_dests.begin(), changed_dests.end());
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());

  auto snap = std::make_shared<PGraphSnapshot>();
  snap->root_ = local.root();
  snap->version_ = next_version_++;
  const TreeNode* old_tree = prev_ != nullptr ? prev_->tree_ : nullptr;
  const unsigned old_height = prev_ != nullptr ? prev_->height_ : 1;
  snap->height_ = dirty.empty()
                      ? old_height
                      : std::max(old_height, height_for(dirty.back()));
  Replaced none;  // a first publish has no predecessor nodes to replace
  PathCopy copy{local, prev_ != nullptr ? prev_->replaced_ : none};
  snap->tree_ = copy.subtree(old_tree, old_height - 1, snap->height_ - 1,
                             dirty.data(), dirty.data() + dirty.size());
  if (prev_ != nullptr) {
    prev_->superseded_ = true;
    prev_->successor_ = snap;
  }
  prev_ = snap;
  return snap;
}

std::shared_ptr<const PGraphSnapshot> SnapshotBuilder::rebuild(
    const PGraph& local) {
  // Forgetting the predecessor makes this a first publish: the predecessor
  // keeps owning its whole tree and gains no successor.
  prev_.reset();
  return publish(local, {}, {});
}

}  // namespace centaur::serve
