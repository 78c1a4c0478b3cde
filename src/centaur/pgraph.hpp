// P-graph (policy graph) — Centaur's network data model (paper S3.2.2).
//
// A P-graph is a directed graph of downstream links rooted at its creator.
// Each node stores one P-graph per neighbor (assembled from that neighbor's
// downstream-link announcements) plus its own local P-graph built from its
// selected path set.  Links whose head is multi-homed carry Permission
// Lists; destination nodes are explicitly marked (prefixes in practice).
//
// The two operations the paper defines are provided here and in
// build_graph.hpp:
//   * DerivePath (Table 1) — backtrack from a destination to the root under
//     Permission-List restrictions; yields the unique policy-compliant path.
//   * BuildGraph (Table 2) — construct a local P-graph (links, counters,
//     Permission Lists) from a selected path set.
//
// Storage (DESIGN.md §5): links live in a flat open-addressing table keyed
// by the packed 64-bit DirectedLink; the one adjacency index maps each
// NodeId to its parents in a small-vector.  Hot call sites should prefer the
// combined accessors (find_link_data, ensure_link) over has_link +
// link_data pairs — one probe instead of two.
//
// Note on pseudocode fidelity: Table 1 writes Permit(D, currentNode); the
// Permission-List definition in S4.1 keys entries by the *next hop of the
// multi-homed node on the permitted path*, which during backtracking is the
// node we arrived from (kNoNextHop when the multi-homed node is the
// destination itself).  derive_path implements that definition.
#pragma once

#include <cstdint>
#include <optional>
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

struct DirectedLinkHash {
  std::size_t operator()(const DirectedLink& l) const {
    std::uint64_t x = pack_link(l.from, l.to);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 29;
    return static_cast<std::size_t>(x);
  }
};

/// Per-link P-graph payload.
struct LinkData {
  /// Permission entries for paths through this link.  Kept for every link
  /// (BuildGraph records them as paths are inserted); they are *active* —
  /// i.e. consulted by DerivePath and included in announcements — only
  /// while the link head is multi-homed, per S4.1/S4.3.2.
  PermissionList plist;
  /// Number of selected paths traversing this link (paper S4.3.2: the link
  /// is withdrawn when this drops to zero).
  std::uint32_t counter = 0;
};

class PGraph {
 public:
  /// Adjacency list: sorted ascending, inline up to 4 entries (the common
  /// case — most P-graph nodes have a single parent).
  using AdjList = util::SmallVec<NodeId, 4>;
  /// Parents storage: content-sized NodeMap.  Each node keeps one P-graph
  /// per neighbor, so the table must grow with the graph's links, not with
  /// the largest AS id.  Its home slot is the id's low bits: when the
  /// content covers its id range the table lays out like a direct-indexed
  /// array, so DerivePath's one parents() lookup per hop stays a single
  /// probe in ascending-id memory order.  An absent or empty value means
  /// "no parents".
  using AdjVec = util::NodeMap<AdjList>;

  /// Flat link storage; iteration yields { DirectedLink-packed key, data }
  /// items via LinkView below.
  using LinkMap = util::FlatMap<std::uint64_t, LinkData>;

  /// Read-only iteration adapter over the link table that presents packed
  /// keys as DirectedLink, so `for (const auto& [link, data] : g.links())`
  /// keeps working.
  class LinkView {
   public:
    struct Item {
      DirectedLink first;
      const LinkData& second;
    };
    class const_iterator {
     public:
      explicit const_iterator(LinkMap::const_iterator it) : it_(it) {}
      Item operator*() const {
        const auto item = *it_;
        return Item{unpack_link(item.first), item.second};
      }
      const_iterator& operator++() {
        ++it_;
        return *this;
      }
      bool operator==(const const_iterator& o) const { return it_ == o.it_; }
      bool operator!=(const const_iterator& o) const { return it_ != o.it_; }

     private:
      LinkMap::const_iterator it_;
    };
    explicit LinkView(const LinkMap& map) : map_(&map) {}
    const_iterator begin() const { return const_iterator(map_->begin()); }
    const_iterator end() const { return const_iterator(map_->end()); }
    std::size_t size() const { return map_->size(); }

   private:
    const LinkMap* map_;
  };

  PGraph() = default;
  explicit PGraph(NodeId root) : root_(root) {}

  NodeId root() const { return root_; }
  void reset(NodeId root);

  /// Pre-sizes the link and parents tables for `links` links, so
  /// assembling a graph of known size (a reset delta) does not pay a rehash
  /// cascade.  Each link adds at most one parents key.
  void reserve(std::size_t links) {
    links_.reserve(links);
    parents_.reserve(links);
  }

  // --- structure ---------------------------------------------------------

  /// Inserts from->to.  Returns true if the link was new.
  bool add_link(NodeId from, NodeId to) {
    bool added = false;
    ensure_link(from, to, added);
    return added;
  }

  /// Inserts from->to if absent and returns its payload in either case —
  /// the single-probe fusion of add_link + link_data.  `added` reports
  /// whether the link was new.
  LinkData& ensure_link(NodeId from, NodeId to, bool& added);

  /// Removes from->to and its payload.  Returns true if present.
  bool remove_link(NodeId from, NodeId to);

  bool has_link(NodeId from, NodeId to) const {
    return links_.count(pack_link(from, to)) > 0;
  }

  std::size_t num_links() const { return links_.size(); }

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

  // --- per-link payload ----------------------------------------------------

  /// Payload pointer, or nullptr when the link is absent — the single-probe
  /// replacement for has_link + link_data call pairs.
  LinkData* find_link_data(NodeId from, NodeId to) {
    return links_.find(pack_link(from, to));
  }
  const LinkData* find_link_data(NodeId from, NodeId to) const {
    return links_.find(pack_link(from, to));
  }

  /// Payload accessors; the link must exist (throws std::out_of_range).
  LinkData& link_data(NodeId from, NodeId to);
  const LinkData& link_data(NodeId from, NodeId to) const;

  /// A link's Permission List is active iff its head is multi-homed.
  bool plist_active(NodeId from, NodeId to) const {
    if (!multi_homed(to)) return false;
    const LinkData* data = find_link_data(from, to);
    return data != nullptr && !data->plist.empty();
  }

  /// Number of links with an active Permission List (Table 4 metric).
  std::size_t active_plist_count() const;

  // --- DerivePath (Table 1) -------------------------------------------------

  /// DEPRECATED (kept as a thin wrapper so existing callers and the seed
  /// tests compile unchanged): prefer `core::query_path` in
  /// centaur/query.hpp — the consolidated PathQuery/PathResult surface.
  /// See DESIGN.md §14.3 for the migration guide.
  ///
  /// Derives the unique policy-compliant path root..dest, or nullopt if no
  /// permitted parent chain reaches the root.  For dest == root returns
  /// {root} (the unified self-destination contract shared by every query
  /// entry point).  Throws std::logic_error if the backtrace cycles
  /// (corrupt graph).
  ///
  /// If `visited` is non-null it receives every node the backtracking walk
  /// examined (including `dest` and, on failure, the blocking node).  The
  /// walk's outcome is a pure function of the in-links of these nodes, so
  /// callers can use the set for precise invalidation: a graph change that
  /// touches none of them cannot change this derivation.
  std::optional<Path> derive_path(NodeId dest,
                                  std::vector<NodeId>* visited = nullptr) const;

  /// DEPRECATED (thin wrapper, same contract as derive_path): prefer
  /// `core::query_path_into` in centaur/query.hpp.
  ///
  /// Allocation-free derive_path: writes the path into `out` (reusing its
  /// capacity) and returns true, or returns false leaving `out` empty.
  /// Refresh loops call this once per dirty destination, so the fresh-Path
  /// allocation of the optional-returning form is the dominant cost there.
  bool derive_path_into(NodeId dest, Path& out,
                        std::vector<NodeId>* visited = nullptr) const;

  // --- iteration -----------------------------------------------------------

  /// All links with their payloads (unordered; sort keys if a canonical
  /// order is needed).
  LinkView links() const { return LinkView(links_); }

  /// Whole parents index, keyed by NodeId, values sorted ascending;
  /// absent/empty values are nodes without parents (iterate with
  /// AdjVec::for_each — ascending id order whatever the layout).  It is the
  /// graph's only adjacency index: the invariant checker (src/check)
  /// cross-validates it against links() and derives children from links()
  /// itself; protocol code should use parents().
  const AdjVec& parent_map() const { return parents_; }

  /// Equality of structure, destination marks, and Permission Lists
  /// (counters are local bookkeeping and excluded).
  bool operator==(const PGraph& other) const;

 private:
  // Test-only backdoor (tests/invariants_test.cpp) that seeds the structural
  // corruption the public API refuses to produce, so the invariant checker
  // can be exercised against broken graphs.
  friend struct PGraphCorruptor;

  NodeId root_ = topo::kInvalidNode;
  LinkMap links_;
  AdjVec parents_;  // sorted values, keyed by NodeId
  DestList destinations_;  // sorted ascending
};

namespace pgraph_detail {
/// Shared empty adjacency list for absent nodes.  A namespace-scope inline
/// variable avoids the per-call thread-safe-init guard a function-local
/// static would re-check on every parents() miss.
inline const PGraph::AdjList kEmptyAdjList{};
[[noreturn]] void throw_missing_link(NodeId from, NodeId to);
}  // namespace pgraph_detail

// Hot-path accessors are defined here (not in pgraph.cpp) so the builds
// without LTO can still inline them into DerivePath/BuildGraph loops.
inline const PGraph::AdjList& PGraph::parents(NodeId n) const {
  const AdjList* p = parents_.find(n);
  return p != nullptr ? *p : pgraph_detail::kEmptyAdjList;
}

inline LinkData& PGraph::ensure_link(NodeId from, NodeId to, bool& added) {
  if (from == to) throw std::invalid_argument("PGraph::add_link: self-loop");
  LinkData& data = links_.ensure(pack_link(from, to), added);
  if (added) util::sorted_insert(parents_.ensure(to), from);
  return data;
}

inline LinkData& PGraph::link_data(NodeId from, NodeId to) {
  LinkData* data = find_link_data(from, to);
  if (data == nullptr) pgraph_detail::throw_missing_link(from, to);
  return *data;
}

inline const LinkData& PGraph::link_data(NodeId from, NodeId to) const {
  const LinkData* data = find_link_data(from, to);
  if (data == nullptr) pgraph_detail::throw_missing_link(from, to);
  return *data;
}

}  // namespace centaur::core
