// Immutable P-graph snapshots for the serving plane (DESIGN.md §14.1).
//
// A PGraphSnapshot is a frozen, self-contained view of one node's local
// P-graph at a commit point: per-node in-links, the Permission Lists a walk
// can read, and the destination marks.  Readers traverse it with the
// generic walk in centaur/query.hpp (it satisfies the View requirements), so
// a query answered from a snapshot is bit-identical to DerivePath on the
// live graph it was taken from.
//
// Layout: a persistent 32-way radix tree keyed by node id, its nodes
// bitmap-compressed (a presence bitmap plus a compact entry array indexed
// by popcount; Bagwell, "Ideal Hash Trees", 2001).  A leaf covers 32
// consecutive ids.  Its slot for a single-homed head holds the parent
// inline; a multi-homed head's slot points at a SnapNode with the parents
// and their Permission Lists.  DerivePath reads a Permission List only at a
// multi-homed head, so single-homed heads carry none.  Lookups are two
// levels deep for ids below 1,024 and never walk a version chain.
//
// Publish cost is the design constraint: the protocol hands the publisher
// the flood-scratch dirty sets (changed_dests_/touched_links_), so a publish
// copies only the leaves holding a dirty head or a changed destination mark
// plus their path to the root, and shares every other tree node with its
// predecessor (path copying).  Only a cell's first publish, and a rebuild
// for a restarted protocol instance, build from scratch.  Tree nodes are
// immutable from construction: a publish builds each node it copies once,
// complete, before anyone can read it.
//
// Ownership, without per-node reference counts (DESIGN.md §14.2): the
// newest version owns its whole tree; each superseded version owns exactly
// the tree nodes and SnapNodes its successor replaced, and keeps that
// successor alive, because everything it shares lives in newer versions.
// A rebuild shares nothing, so the version before it keeps its whole tree
// and no successor.  Dropping versions in any order is therefore safe, and
// a version's destructor releases the successor chain iteratively.
//
// Thread model: a snapshot is immutable to readers and safe to read from
// any thread; SnapshotBuilder is single-writer per node (the owning
// CentaurNode's handlers, on the simulator thread, DESIGN.md §14.2).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "centaur/pgraph.hpp"
#include "util/small_vec.hpp"

namespace centaur::serve {

using core::DirectedLink;
using core::PGraph;
using topo::NodeId;

/// Frozen in-link state of one multi-homed node: parents ascending,
/// Permission Lists parallel to them.
struct SnapNode {
  PGraph::AdjList parents;
  std::vector<core::PermissionList> plists;  // parallel to parents
};

namespace snapshot_detail {

inline constexpr unsigned kBits = 5;  // 32-way fan-out

struct TreeNode;

/// One compact entry: a branch's child, or a leaf slot — the inline parent
/// of a single-homed head or the SnapNode of a multi-homed one (the leaf's
/// `multi` bitmap says which).
union Entry {
  const TreeNode* child;
  NodeId parent;
  const SnapNode* multi;
};

/// Radix-tree node, allocated with its entries in one block: popcount(
/// `present`) entries follow the header in index order.  In a branch
/// `present` marks the non-empty children; in a leaf it marks the ids with
/// in-links, `multi` the multi-homed subset and `dests` the destination
/// marks.
struct TreeNode {
  std::uint32_t present = 0;
  std::uint32_t multi = 0;
  std::uint32_t dests = 0;
  std::uint32_t count = 0;  // popcount(present)

  const Entry* entries() const {
    return std::launder(reinterpret_cast<const Entry*>(this + 1));
  }
  Entry* entries() { return std::launder(reinterpret_cast<Entry*>(this + 1)); }
  /// Entry of the index whose presence bit is `bit` (which must be set).
  const Entry& at(std::uint32_t bit) const {
    return entries()[std::popcount(present & (bit - 1))];
  }
};

/// Predecessor nodes a publish replaced: the predecessor owns them and
/// frees them when it dies.
struct Replaced {
  util::SmallVec<const TreeNode*, 4> nodes;
  util::SmallVec<const SnapNode*, 4> multis;
};

}  // namespace snapshot_detail

class PGraphSnapshot {
 public:
  PGraphSnapshot() = default;
  ~PGraphSnapshot();
  PGraphSnapshot(const PGraphSnapshot&) = delete;
  PGraphSnapshot& operator=(const PGraphSnapshot&) = delete;

  NodeId root() const { return root_; }
  /// Per-node publish sequence number (1 = first publish).  Deterministic:
  /// it counts this node's commits, independent of thread interleaving.
  std::uint64_t version() const { return version_; }

  bool is_destination(NodeId d) const {
    const snapshot_detail::TreeNode* leaf = leaf_of(d);
    return leaf != nullptr && (leaf->dests & bit_of(d)) != 0;
  }

  // --- View interface for the centaur/query.hpp walk templates ----------

  /// Parents of `n` ascending; empty when `n` has no in-links.
  std::span<const NodeId> parents(NodeId n) const {
    const snapshot_detail::TreeNode* leaf = leaf_of(n);
    const std::uint32_t bit = bit_of(n);
    if (leaf == nullptr || (leaf->present & bit) == 0) return {};
    const snapshot_detail::Entry& e = leaf->at(bit);
    if ((leaf->multi & bit) == 0) return {&e.parent, 1};
    return {e.multi->parents.data(), e.multi->parents.size()};
  }

  /// Permission List of from->to, defined only at a multi-homed head `to`:
  /// nullptr when `to` has fewer than two parents or `from` is not one.
  const core::PermissionList* plist(NodeId from, NodeId to) const {
    const snapshot_detail::TreeNode* leaf = leaf_of(to);
    const std::uint32_t bit = bit_of(to);
    if (leaf == nullptr || (leaf->multi & bit) == 0) return nullptr;
    const SnapNode& sn = *leaf->at(bit).multi;
    const auto it = std::lower_bound(sn.parents.begin(), sn.parents.end(), from);
    if (it == sn.parents.end() || *it != from) return nullptr;
    return &sn.plists[static_cast<std::size_t>(it - sn.parents.begin())];
  }

 private:
  friend class SnapshotBuilder;

  static std::uint32_t bit_of(NodeId n) {
    return std::uint32_t{1} << (n & ((1u << snapshot_detail::kBits) - 1));
  }

  /// The leaf covering `n`, or nullptr when no node of its 32-id block is
  /// present.
  const snapshot_detail::TreeNode* leaf_of(NodeId n) const {
    unsigned shift = snapshot_detail::kBits * height_;
    if ((std::uint64_t{n} >> shift) != 0) return nullptr;
    const snapshot_detail::TreeNode* node = tree_;
    while (node != nullptr && (shift -= snapshot_detail::kBits) != 0) {
      const std::uint32_t bit = std::uint32_t{1} << ((n >> shift) & 31u);
      if ((node->present & bit) == 0) return nullptr;
      node = node->at(bit).child;
    }
    return node;
  }

  const snapshot_detail::TreeNode* tree_ = nullptr;
  unsigned height_ = 1;  // levels: ids below 32^height_ fit
  NodeId root_ = topo::kInvalidNode;
  std::uint64_t version_ = 0;

  // Writer-side ownership bookkeeping; readers never touch it.
  bool superseded_ = false;  // a successor shares the tree: own replaced_
  snapshot_detail::Replaced replaced_;
  std::shared_ptr<PGraphSnapshot> successor_;
};

/// Single-writer snapshot publisher for one node.  publish() turns the
/// current local P-graph plus the flood-scratch dirty sets into the next
/// immutable snapshot by path copying its predecessor; the first publish
/// builds the tree from the whole graph, and so does rebuild().
///
/// Not copyable: a predecessor's replaced nodes and successor link belong
/// to the one builder that superseded it.
class SnapshotBuilder {
 public:
  SnapshotBuilder() = default;
  SnapshotBuilder(const SnapshotBuilder&) = delete;
  SnapshotBuilder& operator=(const SnapshotBuilder&) = delete;

  /// Builds the successor snapshot.  `changed_dests` / `touched_links` may
  /// contain duplicates (they are the raw flood scratch); both are ignored
  /// on the first publish, which reads the whole graph.
  std::shared_ptr<const PGraphSnapshot> publish(
      const PGraph& local, const std::vector<NodeId>& changed_dests,
      const std::vector<DirectedLink>& touched_links);

  /// Builds the successor snapshot from the whole graph, sharing nothing
  /// with the predecessor: a restarted protocol instance's graph has no
  /// delta relation to what its crashed predecessor published.  Versions
  /// keep counting.
  std::shared_ptr<const PGraphSnapshot> rebuild(const PGraph& local);

  /// Snapshots built from scratch: the first publish plus every rebuild.
  std::uint64_t full_builds() const { return full_builds_; }

 private:
  std::shared_ptr<PGraphSnapshot> prev_;
  std::uint64_t next_version_ = 1;
  std::uint64_t full_builds_ = 0;
  std::vector<NodeId> dirty_scratch_;
};

}  // namespace centaur::serve
