// Permission Lists (paper S4.1) — the key Centaur data structure.
//
// A Permission List is attached to a link A->B when B is multi-homed (has
// more than one parent) in a P-graph.  It enumerates exactly the
// policy-compliant paths that may traverse A->B, in the compact
// "per-dest-next" encoding: each entry is a (destination set, next hop of B)
// pair; destinations sharing B's next hop are grouped into one entry.  The
// destination where B itself is the target uses the kNoNextHop sentinel
// (B has no next hop on that path).
//
// The theoretically-equivalent "exhaustive per-path" encoding (used in the
// paper's expressiveness proof, Claim 1) is also provided for the ablation
// benches, together with an optional Bloom-compressed destination-set view
// for size accounting (S4.1 suggests Bloom filters; Table 5 sizes assume
// them).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "topology/types.hpp"
#include "util/bloom.hpp"
#include "util/small_vec.hpp"

namespace centaur::core {

using topo::NodeId;
using topo::Path;

/// Sentinel "next hop" used when the multi-homed node is itself the
/// destination of the permitted path.
inline constexpr NodeId kNoNextHop = topo::kInvalidNode;

/// Per-dest-next Permission List.
///
/// Storage (DESIGN.md §5.1): one sorted small-vector of packed
/// (next_hop << 32 | dest) entries.  The hot node path copies Permission
/// Lists constantly — into exported views, pending deltas, and per-neighbor
/// graphs — so the former std::map<NodeId, std::set<NodeId>> representation
/// paid an allocation per destination per copy; the packed vector copies
/// with one memcpy and keeps the identical deterministic order (next hop
/// ascending with kNoNextHop last, destinations ascending within a next
/// hop), so announcements and wire bytes are unchanged.
class PermissionList {
 public:
  /// Permits destination `dest` via `next_hop` (the next hop of the
  /// multi-homed link head on the permitted path; kNoNextHop when the head
  /// is the destination).  Idempotent.
  void add(NodeId dest, NodeId next_hop) {
    util::sorted_insert(pairs_, pack_pair(next_hop, dest));
  }

  /// Revokes a permission.  Returns true if the pair was present.
  bool remove(NodeId dest, NodeId next_hop) {
    return util::sorted_erase(pairs_, pack_pair(next_hop, dest));
  }

  /// Drops every permission for `dest` regardless of next hop.
  /// Returns the number of pairs removed.
  std::size_t remove_dest(NodeId dest);

  /// The Permit(D, next) predicate of the DerivePath algorithm (Table 1).
  /// Inline: called ~10x per multi-homed hop of every derivation.
  bool permits(NodeId dest, NodeId next_hop) const {
    return util::sorted_contains(pairs_, pack_pair(next_hop, dest));
  }

  /// Number of (destination-list, next-hop) pair entries — the quantity
  /// whose distribution the paper reports in Table 5.
  std::size_t entry_count() const;

  /// Total destinations across all entries: the number of (destination,
  /// next hop) pairs.
  std::size_t dest_count() const { return pairs_.size(); }

  bool empty() const { return pairs_.empty(); }

  /// One encoded entry: a next hop and its grouped destination list.
  struct Entry {
    NodeId next_hop;
    std::vector<NodeId> dests;  // ascending
  };

  /// Entries in ascending next-hop order (deterministic wire order).
  std::vector<Entry> entries() const;

  /// One entry's destinations, ascending: a view over its run of packed
  /// pairs, valid until the list changes.
  class DestRun {
   public:
    class iterator {
     public:
      explicit iterator(const std::uint64_t* pair) : pair_(pair) {}
      NodeId operator*() const { return pair_dest(*pair_); }
      iterator& operator++() {
        ++pair_;
        return *this;
      }
      bool operator!=(const iterator& o) const { return pair_ != o.pair_; }

     private:
      const std::uint64_t* pair_;
    };
    DestRun(const std::uint64_t* first, const std::uint64_t* last)
        : first_(first), last_(last) {}
    iterator begin() const { return iterator(first_); }
    iterator end() const { return iterator(last_); }
    std::size_t size() const {
      return static_cast<std::size_t>(last_ - first_);
    }

   private:
    const std::uint64_t* first_;
    const std::uint64_t* last_;
  };

  /// Calls `fn(next_hop, dests)` once per entry, in entries() order,
  /// without allocating — the wire encoder's walk.
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    const std::uint64_t* first = pairs_.begin();
    while (first != pairs_.end()) {
      const NodeId next = pair_next(*first);
      const std::uint64_t* last = first + 1;
      while (last != pairs_.end() && pair_next(*last) == next) ++last;
      fn(next, DestRun(first, last));
      first = last;
    }
  }

  /// Copy retaining only destinations accepted by `keep_dest` (export
  /// filtering prunes permissions for destinations not announced).
  PermissionList filtered(
      const std::function<bool(NodeId dest)>& keep_dest) const;

  /// True if any recorded destination satisfies `pred` — an allocation-free
  /// "would filtered() be non-empty" test for export decisions.
  template <typename Pred>
  bool any_dest(Pred&& pred) const {
    for (const std::uint64_t pair : pairs_) {
      if (pred(pair_dest(pair))) return true;
    }
    return false;
  }

  /// Calls `fn(dest)` for every pair held by exactly one of `*this` and
  /// `other` — the destinations whose Permit(dest, next) answer differs for
  /// some next hop.  A destination is reported once per differing pair.
  template <typename Fn>
  void for_each_changed_dest(const PermissionList& other, Fn&& fn) const {
    const std::uint64_t* a = pairs_.begin();
    const std::uint64_t* b = other.pairs_.begin();
    while (a != pairs_.end() || b != other.pairs_.end()) {
      if (b == other.pairs_.end() || (a != pairs_.end() && *a < *b)) {
        fn(pair_dest(*a++));
      } else if (a == pairs_.end() || *b < *a) {
        fn(pair_dest(*b++));
      } else {
        ++a;
        ++b;
      }
    }
  }

  /// Approximate wire size in bytes.  Uncompressed: 4 bytes per next hop +
  /// 4 per destination.  Bloom-compressed (paper S4.1): 4 bytes per next
  /// hop + one fixed-size filter per entry sized for its destination count
  /// at 1% false positives.
  std::size_t byte_size(bool bloom_compressed) const;

  /// Builds the Bloom-compressed representation of one entry's destination
  /// list (used by the ablation bench to measure real FP behaviour).
  static util::BloomFilter compress_dests(const std::vector<NodeId>& dests,
                                          double fp_rate = 0.01);

  bool operator==(const PermissionList& other) const {
    return pairs_ == other.pairs_;
  }

 private:
  static constexpr std::uint64_t pack_pair(NodeId next_hop, NodeId dest) {
    return (std::uint64_t{next_hop} << 32) | std::uint64_t{dest};
  }
  static constexpr NodeId pair_next(std::uint64_t pair) {
    return static_cast<NodeId>(pair >> 32);
  }
  static constexpr NodeId pair_dest(std::uint64_t pair) {
    return static_cast<NodeId>(pair & 0xFFFFFFFFULL);
  }

  // Packed (next_hop, dest) permissions, sorted ascending; most lists hold
  // a handful of pairs, so they stay inline in the P-graph's list-table
  // slot.
  util::SmallVec<std::uint64_t, 3> pairs_;
};

/// Exhaustive per-path encoding (paper S4.1, S6.1): one full path per
/// permitted traversal.  Used only for the expressiveness/ablation
/// comparison — per-dest-next is what the protocol ships.
class ExhaustivePermissionList {
 public:
  void add(const Path& path);
  bool permits(const Path& path) const;
  std::size_t path_count() const { return paths_.size(); }
  std::size_t byte_size() const;

 private:
  std::set<Path> paths_;
};

}  // namespace centaur::core
