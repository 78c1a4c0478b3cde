// P-graph (policy graph) — Centaur's network data model (paper S3.2.2).
//
// A P-graph is a directed graph of downstream links rooted at its creator.
// Each node stores one P-graph per neighbor (assembled from that neighbor's
// downstream-link announcements) plus its own local P-graph built from its
// selected path set.  Links whose head is multi-homed carry Permission
// Lists; destination nodes are explicitly marked (prefixes in practice).
//
// The two operations the paper defines are provided in query.hpp and
// build_graph.hpp:
//   * DerivePath (Table 1) — backtrack from a destination to the root under
//     Permission-List restrictions; yields the unique policy-compliant path
//     (core::query_path).
//   * BuildGraph (Table 2) — construct a local P-graph (links and
//     Permission Lists) from a selected path set.
//
// Storage (DESIGN.md §5.1): the parents index — each NodeId mapped to its
// parents in a small-vector — is the only record of which links the graph
// holds.  Permission Lists live in a flat table keyed by the packed 64-bit
// DirectedLink that holds exactly the links whose list is non-empty; a link
// without an entry is unlisted.  Only PGraph writes that table, so no
// stored list is empty and every stored list belongs to a link.
//
// Note on pseudocode fidelity: Table 1 writes Permit(D, currentNode); the
// Permission-List definition in S4.1 keys entries by the *next hop of the
// multi-homed node on the permitted path*, which during backtracking is the
// node we arrived from (kNoNextHop when the multi-homed node is the
// destination itself).  query_path implements that definition.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "centaur/permission_list.hpp"
#include "topology/types.hpp"
#include "util/flat_map.hpp"
#include "util/node_map.hpp"
#include "util/small_vec.hpp"

namespace centaur::core {

/// Directed link identifier within a P-graph.
struct DirectedLink {
  NodeId from = topo::kInvalidNode;
  NodeId to = topo::kInvalidNode;

  auto operator<=>(const DirectedLink&) const = default;
};

/// Packs a directed link into the 64-bit key the flat link table uses.
/// kInvalidNode->kInvalidNode packs to the reserved empty sentinel, which is
/// fine: self-loops are rejected at insertion.
constexpr std::uint64_t pack_link(NodeId from, NodeId to) {
  return (std::uint64_t{from} << 32) | std::uint64_t{to};
}

constexpr DirectedLink unpack_link(std::uint64_t key) {
  return DirectedLink{static_cast<NodeId>(key >> 32),
                      static_cast<NodeId>(key & 0xFFFFFFFFULL)};
}

class PGraph {
 public:
  /// Adjacency list: sorted ascending, inline up to 2 entries — the two
  /// NodeIds fill the heap pointer's 8 bytes, and almost every P-graph node
  /// has one or two parents.
  using AdjList = util::SmallVec<NodeId, 2>;
  /// Parents storage: content-sized NodeMap.  Each node keeps one P-graph
  /// per neighbor, so the table must grow with the graph's links, not with
  /// the largest AS id.  Its home slot is the id's low bits: when the
  /// content covers its id range the table lays out like a direct-indexed
  /// array, so DerivePath's one parents() lookup per hop stays a single
  /// probe in ascending-id memory order.  An absent or empty value means
  /// "no parents".
  using AdjVec = util::NodeMap<AdjList>;

  /// Permission Lists of the listed links, keyed by packed link: exactly
  /// the links whose list is non-empty.
  using PlistMap = util::FlatMap<std::uint64_t, PermissionList>;

  /// Read-only iteration over every link with its Permission List (empty
  /// when the link is unlisted), so `for (const auto& [link, plist] :
  /// g.links())` walks the parents index.
  class LinkView {
   public:
    struct Item {
      DirectedLink first;
      const PermissionList& second;
    };
    class const_iterator {
     public:
      const_iterator(const PGraph* g, AdjVec::const_iterator slot)
          : g_(g), slot_(slot) {
        skip();
      }
      Item operator*() const;
      const_iterator& operator++() {
        ++index_;
        skip();
        return *this;
      }
      bool operator==(const const_iterator& o) const {
        return slot_ == o.slot_ && index_ == o.index_;
      }
      bool operator!=(const const_iterator& o) const { return !(*this == o); }

     private:
      /// Moves past emptied parents slots and finished parent lists.
      void skip() {
        const AdjVec::const_iterator end = g_->parents_.end();
        while (slot_ != end && index_ >= (*slot_).second.size()) {
          ++slot_;
          index_ = 0;
        }
      }
      const PGraph* g_;
      AdjVec::const_iterator slot_;
      std::size_t index_ = 0;
    };
    explicit LinkView(const PGraph& g) : g_(&g) {}
    const_iterator begin() const {
      return const_iterator(g_, g_->parents_.begin());
    }
    const_iterator end() const { return const_iterator(g_, g_->parents_.end()); }
    std::size_t size() const { return g_->num_links(); }

   private:
    const PGraph* g_;
  };

  PGraph() = default;
  explicit PGraph(NodeId root) : root_(root) {}

  NodeId root() const { return root_; }
  void reset(NodeId root);

  /// Pre-sizes the tables for `links` links, `listed` of them with a
  /// non-empty Permission List, so assembling a graph of known size (a
  /// reset delta) does not pay a rehash cascade.  Each link adds at most
  /// one parents key.
  void reserve(std::size_t links, std::size_t listed) {
    parents_.reserve(links);
    if (listed > 0) plists_.reserve(listed);
  }

  // --- structure ---------------------------------------------------------

  /// Inserts from->to, unlisted.  Returns true if the link was new.
  bool add_link(NodeId from, NodeId to);

  /// Removes from->to and its Permission List.  Returns true if present.
  bool remove_link(NodeId from, NodeId to);

  bool has_link(NodeId from, NodeId to) const {
    const AdjList* p = parents_.find(to);
    return p != nullptr && util::sorted_contains(*p, from);
  }

  std::size_t num_links() const { return num_links_; }

  std::size_t in_degree(NodeId n) const {
    const AdjList* p = parents_.find(n);
    return p != nullptr ? p->size() : 0;
  }

  /// "Multi-homed": more than one parent in this P-graph (S3.2.4).
  bool multi_homed(NodeId n) const { return in_degree(n) > 1; }

  /// Parents of `n` in ascending order (empty if none).
  const AdjList& parents(NodeId n) const;

  /// True if `n` is the root or the head of some link.  Only a received
  /// graph can hold a node with out-links alone — its importer once loop
  /// elimination dropped the links into it, or a node whose in-links the
  /// import filter refused — and no walk toward such a node succeeds.
  bool contains(NodeId n) const { return n == root_ || in_degree(n) > 0; }

  // --- destinations -------------------------------------------------------

  /// Destination marks, sorted ascending (iteration order matches the former
  /// std::set storage).
  using DestList = util::SmallVec<NodeId, 8>;

  void mark_destination(NodeId d) { util::sorted_insert(destinations_, d); }
  bool unmark_destination(NodeId d) {
    return util::sorted_erase(destinations_, d);
  }
  bool is_destination(NodeId d) const {
    return util::sorted_contains(destinations_, d);
  }
  const DestList& destinations() const { return destinations_; }

  // --- Permission Lists ---------------------------------------------------

  /// from->to's Permission List, or nullptr when the link is unlisted or
  /// absent.  On a local graph every link is listed: BuildGraph records a
  /// (destination, next hop) pair per selected path through it.
  const PermissionList* plist(NodeId from, NodeId to) const {
    return plists_.find(pack_link(from, to));
  }

  /// Replaces from->to's list; an empty `list` leaves the link unlisted.
  /// The link must exist (std::out_of_range otherwise).
  void set_plist(NodeId from, NodeId to, const PermissionList& list);

  /// BuildGraph's per-link step: permits (dest, next_hop) on from->to,
  /// inserting the link if absent.  Returns true if the link was new.
  bool add_permission(NodeId from, NodeId to, NodeId dest, NodeId next_hop);

  /// Inverse of add_permission: drops (dest, next_hop) from from->to's
  /// list and, once the list is empty, the link itself — on a local graph
  /// a link's pair count is the number of selected paths through it, so
  /// this is the paper's counter rule (S4.3.2).  Returns false, changing
  /// nothing, when the link does not carry the pair.
  bool withdraw_permission(NodeId from, NodeId to, NodeId dest,
                           NodeId next_hop);

  /// A link's Permission List is active iff its head is multi-homed.
  bool plist_active(NodeId from, NodeId to) const {
    return multi_homed(to) && plist(from, to) != nullptr;
  }

  /// Number of links with an active Permission List (Table 4 metric).
  std::size_t active_plist_count() const;

  // --- iteration -----------------------------------------------------------

  /// All links with their Permission Lists, in no specified order (sort
  /// the links if a canonical order is needed).
  LinkView links() const { return LinkView(*this); }

  /// Whole parents index, keyed by NodeId, values sorted ascending;
  /// absent/empty values are nodes without parents (iterate with
  /// AdjVec::for_each — ascending id order whatever the layout).  It is the
  /// graph's only record of its links: the invariant checker (src/check)
  /// derives children from it and checks the list table against it;
  /// protocol code should use parents().
  const AdjVec& parent_map() const { return parents_; }

  /// The stored Permission Lists, for the invariant checker; protocol code
  /// should use plist().
  const PlistMap& plist_map() const { return plists_; }

  /// Equality of structure (an emptied parents slot counts as absent),
  /// destination marks, and Permission Lists.
  bool operator==(const PGraph& other) const;

 private:
  // Test-only backdoor (tests/invariants_test.cpp) that seeds the structural
  // corruption the public API refuses to produce, so the invariant checker
  // can be exercised against broken graphs.
  friend struct PGraphCorruptor;

  /// Drops from->to from the parents index alone.
  bool unlink(NodeId from, NodeId to);

  NodeId root_ = topo::kInvalidNode;
  AdjVec parents_;  // sorted values, keyed by NodeId; the link set
  PlistMap plists_;  // non-empty lists only, each on a link in parents_
  std::size_t num_links_ = 0;
  DestList destinations_;  // sorted ascending
};

namespace pgraph_detail {
/// Shared empty adjacency list for absent nodes.  A namespace-scope inline
/// variable avoids the per-call thread-safe-init guard a function-local
/// static would re-check on every parents() miss.
inline const PGraph::AdjList kEmptyAdjList{};
/// What links() yields for an unlisted link.
inline const PermissionList kEmptyPlist{};
[[noreturn]] void throw_missing_link(NodeId from, NodeId to);
}  // namespace pgraph_detail

// Hot-path accessors are defined here (not in pgraph.cpp) so the builds
// without LTO can still inline them into DerivePath/BuildGraph loops.
inline const PGraph::AdjList& PGraph::parents(NodeId n) const {
  const AdjList* p = parents_.find(n);
  return p != nullptr ? *p : pgraph_detail::kEmptyAdjList;
}

inline bool PGraph::add_link(NodeId from, NodeId to) {
  if (from == to) throw std::invalid_argument("PGraph::add_link: self-loop");
  if (!util::sorted_insert(parents_.ensure(to), from)) return false;
  ++num_links_;
  return true;
}

inline bool PGraph::add_permission(NodeId from, NodeId to, NodeId dest,
                                   NodeId next_hop) {
  const bool added = add_link(from, to);
  plists_[pack_link(from, to)].add(dest, next_hop);
  return added;
}

inline PGraph::LinkView::Item PGraph::LinkView::const_iterator::operator*()
    const {
  const auto [to, ps] = *slot_;
  const NodeId from = ps[index_];
  const PermissionList* list = g_->plist(from, to);
  return Item{DirectedLink{from, to},
              list != nullptr ? *list : pgraph_detail::kEmptyPlist};
}

}  // namespace centaur::core
