// Downstream link announcements (paper S3.2.1, S4.3).
//
// Centaur nodes exchange *directed downstream links* — never full paths.
// This module defines:
//   * ExportedView — the subgraph of a local P-graph that one neighbor is
//     allowed to see after export filtering (Exp in the protocol flow);
//   * GraphDelta — the incremental per-link update message body (Step 5):
//     link upserts (with Permission Lists), link removes (root-cause
//     withdrawals), and destination-mark changes;
//   * diff_views — computes the delta between two exported views (the
//     paper's counter mechanism produces exactly this set: a link leaves
//     the view when no selected exported path contains it any longer);
//   * apply_delta — the import side (Imp): drops links pointing at the
//     importer, applies the import filter, and merges into the stored
//     per-neighbor P-graph (the G'_{B->A} equation of S4.3.2), reporting
//     per link head which derivation walks the change can redirect
//     (DeltaReport);
//   * PendingDelta — the outbound coalescing slot: merges every change
//     recorded within one simulated instant into one net delta, with
//     counter-style cancellation (an added link that is removed again in
//     the same burst vanishes from the wire entirely).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "centaur/pgraph.hpp"
#include "util/flat_map.hpp"
#include "util/small_vec.hpp"

namespace centaur::core {

/// Filter deciding whether a directed link may cross a boundary.
using LinkFilter = std::function<bool(NodeId from, NodeId to)>;

/// Filter deciding whether a destination may be announced.
using DestFilter = std::function<bool(NodeId dest)>;

/// What one neighbor sees of a local P-graph: announced links with their
/// (active, destination-filtered) Permission Lists, plus destination marks.
/// Links live in a flat hash table keyed by the packed (from,to) u64;
/// destination marks in a sorted small-vector (DESIGN.md §5.1).
struct ExportedView {
  util::FlatMap<std::uint64_t, PermissionList> links;
  util::SmallVec<NodeId, 8> destinations;  // sorted ascending

  bool empty() const { return links.empty() && destinations.empty(); }
  const PermissionList* find_link(NodeId from, NodeId to) const {
    return links.find(pack_link(from, to));
  }
  bool has_link(NodeId from, NodeId to) const {
    return links.count(pack_link(from, to)) > 0;
  }
  bool has_dest(NodeId dest) const {
    return util::sorted_contains(destinations, dest);
  }

  /// Content equality; link iteration order is irrelevant.
  bool operator==(const ExportedView& other) const;
};

/// Incremental update message body.  `upserts` carries new links and links
/// whose Permission List changed (the new list is authoritative);
/// `removes` carries root-cause link withdrawals.
struct GraphDelta {
  bool reset = false;  ///< session (re)start: clear the stored graph first
  std::vector<std::pair<DirectedLink, PermissionList>> upserts;
  std::vector<DirectedLink> removes;
  std::vector<NodeId> dest_adds;
  std::vector<NodeId> dest_removes;

  bool empty() const {
    return !reset && upserts.empty() && removes.empty() &&
           dest_adds.empty() && dest_removes.empty();
  }

  /// Exact wire size: the length wire::encode() produces for this delta;
  /// `bloom_compressed` selects the Permission-List encoding (S4.1).
  std::size_t byte_size(bool bloom_compressed) const;
};

/// Export side: the view of `local` a neighbor may see.
///
/// A link is announced iff (a) at least one destination permitted by
/// `dest_allowed` routes through it (the destination sets recorded by
/// BuildGraph tell us which), and (b) `link_allowed` accepts it.  Announced
/// links whose head is multi-homed in `local` carry their Permission List
/// filtered to the allowed destinations.  Destination marks are the local
/// marks that pass `dest_allowed`.
ExportedView make_export_view(const PGraph& local,
                              const DestFilter& dest_allowed,
                              const LinkFilter& link_allowed = nullptr);

/// The incremental update turning `before` into `after`.  Sections come out
/// sorted ascending (by packed link key / node id) — the codec's canonical
/// order.
GraphDelta diff_views(const ExportedView& before, const ExportedView& after);

class DeltaReport;

/// Import side: merges `delta` (received from the owner of `g`) into the
/// stored per-neighbor P-graph.  Links pointing at `self` are removed for
/// loop elimination (Step 2), then `import_allowed` (if set) filters the
/// rest.  Returns true if anything changed.  When `report` is set it is
/// refilled with the per-head changes — except for a reset delta, which
/// rebuilds the graph (every walk may change) and leaves it empty.
bool apply_delta(PGraph& g, const GraphDelta& delta, NodeId self,
                 const LinkFilter& import_allowed = nullptr,
                 DeltaReport* report = nullptr);

/// What apply_delta changed at each link head (the node whose in-links a
/// change touched), for walk invalidation (DESIGN.md §12.1).
///
/// At a multi-homed head DerivePath takes the lowest parent whose list
/// permits (dest, came-from), else the unique unlisted parent.  So a head
/// is *fine* when it has at least two parents before and after the delta,
/// lost no in-link, gained no unlisted one, and no in-link flipped between
/// listed and unlisted: a walk through it can then change there only if a
/// changed pair names the walk's destination.  Every other changed head is
/// *coarse*: any walk through it may change.  Upserts apply_delta skipped
/// (self-targeted, import-filtered, list unchanged) and removes of absent
/// links change nothing and are not reported.
class DeltaReport {
 public:
  std::vector<NodeId> coarse;  ///< ascending, unique
  /// (fine head, named destination), ascending, unique: the destinations
  /// of every pair in the symmetric difference between an in-link's old
  /// and new list (all pairs of an added link).
  std::vector<std::pair<NodeId, NodeId>> named;

 private:
  friend bool apply_delta(PGraph& g, const GraphDelta& delta, NodeId self,
                          const LinkFilter& import_allowed,
                          DeltaReport* report);

  void clear() {
    coarse.clear();
    named.clear();
    fine_heads_.clear();
  }
  void note_removed(NodeId head) { coarse.push_back(head); }
  void note_upsert(NodeId head, const PermissionList& before,
                   const PermissionList& after, bool added);
  /// Classifies every head once `g` holds the delta's final in-degrees,
  /// and canonicalizes both lists.
  void resolve(const PGraph& g);

  /// (head, 1 if the upsert added a listed link) per upsert that leaves
  /// its head a fine candidate.
  std::vector<std::pair<NodeId, std::uint8_t>> fine_heads_;
};

class PendingDelta;

/// Incremental export maintenance: applies one link transition to `view`
/// and records it in `pending`.  `now` points at the link's exported
/// Permission List after the change; nullptr means the link leaves the
/// view.  A key has no pending slot iff receivers already match the view,
/// so `receiver_has_link` on a fresh slot is exactly "the view had the
/// link".  Pointer semantics keep the common no-change probe copy-free —
/// the Permission List is only copied when the view actually edits.
void apply_link_transition(ExportedView& view, PendingDelta& pending,
                           const DirectedLink& link,
                           const PermissionList* now);

/// Destination-mark counterpart: `now` says whether `dest` belongs to the
/// view after the change; no-ops (and records nothing) when the view
/// already agrees.
void apply_dest_transition(ExportedView& view, PendingDelta& pending,
                           NodeId dest, bool now);

/// Outbound coalescing slot: accumulates the view changes recorded since the
/// last flush and yields their *net* effect as one canonical delta.
///
/// The recording node guarantees stream consistency (each record describes a
/// real transition of its exported view), which makes merging a per-key
/// state machine:
///   * a link added and removed in the same burst cancels to nothing;
///   * a plist change followed by a remove collapses to the remove;
///   * a remove followed by a re-add becomes a plist change (the receiver
///     still holds the link, so it must not be double-counted as new);
///   * destination add+remove (either order) cancels.
/// Invariant: a key has no slot here iff the receiver's copy already matches
/// the sender's current view for that key.
class PendingDelta {
 public:
  /// Records a link upsert; `receiver_has_link` says whether the receivers
  /// already hold the link (i.e. this is a Permission-List change, not a new
  /// link) — only consulted when the link has no pending slot yet.
  void record_upsert(const DirectedLink& link, const PermissionList& plist,
                     bool receiver_has_link);
  void record_remove(const DirectedLink& link);
  void record_dest_add(NodeId dest);
  void record_dest_remove(NodeId dest);

  bool empty() const { return links_.empty() && dests_.empty(); }
  void clear() {
    links_.clear();
    dests_.clear();
  }

  /// The net delta, sections sorted ascending; leaves the slot empty.
  GraphDelta take();

 private:
  enum class LinkOp : std::uint8_t { kAdd, kChange, kRemove };
  struct LinkSlot {
    LinkOp op = LinkOp::kAdd;
    PermissionList plist;
  };
  enum : std::uint8_t { kDestAdd = 0, kDestRemove = 1 };

  util::FlatMap<std::uint64_t, LinkSlot> links_;
  util::FlatMap<NodeId, std::uint8_t> dests_;
};

}  // namespace centaur::core
