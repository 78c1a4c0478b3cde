// The Centaur protocol node (paper S4.3): one instance per AS, running on
// the discrete-event simulator.
//
// Protocol flow implemented here:
//   Initialization (Steps 1-4): on start() each node originates itself as a
//   destination and announces export-filtered views of its local P-graph to
//   every neighbor; on receiving announcements it assembles per-neighbor
//   P-graphs in its RIB, runs the local solver (derive candidate paths via
//   DerivePath, rank them under Gao-Rexford preferences plus any local
//   ranking override), rebuilds its local P-graph with BuildGraph, and
//   re-announces.
//   Steady phase (Step 5): every state change is flooded as an incremental
//   per-link GraphDelta; a failed adjacent link leaves the selected path
//   set, so its withdrawal (the root cause) propagates as a single link
//   remove per neighbor instead of per-destination withdrawals.
//
// The paper computes deltas with per-link counters that hit zero when no
// selected path uses a link; here a local link's counter is its Permission
// List's pair count (one pair per selected path through it, build_graph.hpp),
// and the exported views follow the links a selection change touched, which
// yields exactly the same delta with less mutable state.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "centaur/announce.hpp"
#include "centaur/build_graph.hpp"
#include "centaur/query.hpp"
#include "policy/policy.hpp"
#include "policy/route_view.hpp"
#include "policy/valley_free.hpp"
#include "sim/network.hpp"
#include "util/dense_map.hpp"
#include "util/flat_map.hpp"
#include "util/node_map.hpp"
#include "util/small_vec.hpp"
#include "util/vec_map.hpp"

namespace centaur::core {

/// Wire message: one incremental update (Step 5) or initial announcement
/// (Steps 1/4, a delta against the empty view with reset set).
///
/// Immutable once constructed, so one instance is shared (by shared_ptr)
/// across every neighbor of an export class; the exact encoded length
/// (explicit Permission-List encoding) is computed once here instead of per
/// byte_size() query per receiver.
class CentaurUpdate : public sim::Message {
 public:
  explicit CentaurUpdate(GraphDelta delta)
      : delta_(std::move(delta)), byte_size_(delta_.byte_size(false)) {}

  const GraphDelta& delta() const { return delta_; }
  std::size_t byte_size() const override { return byte_size_; }
  std::string describe() const override;

 private:
  GraphDelta delta_;
  std::size_t byte_size_;
};

class CentaurNode : public sim::Node, public policy::RouteView {
 public:
  struct Config {
    /// Announce the node's own prefix (true for all experiment nodes).
    bool originate_prefix = true;
    /// When non-zero, only nodes with id < originate_limit originate
    /// (destination-limited workloads for 100k+-node scale runs; routing
    /// for the originated set is unchanged).  Low ids are the topology
    /// generators' core tiers, so limited destinations stay well-connected
    /// — and per-node destination caches stay small.
    topo::NodeId originate_limit = 0;
    /// Extra export-side link filter: may link from->to be announced to
    /// `neighbor`?  Applied on top of the Gao-Rexford destination-based
    /// export rule: the neighbor gets its category's shared update minus the
    /// links the filter hides from it.  Null means allow.
    std::function<bool(topo::NodeId neighbor, NodeId from, NodeId to)>
        export_link_filter;
    /// Import-side link filter (Imp in S4.3); null means allow.
    std::function<bool(topo::NodeId neighbor, NodeId from, NodeId to)>
        import_link_filter;
    /// Optional local ranking override (e.g. the paper's Fig 4 scenario
    /// where C prefers <C,A,B,D> over <C,D>).  Falls back to the standard
    /// Gao-Rexford ranking when null or when it reports no preference both
    /// ways.
    policy::RankingOverride ranking;
    /// Serving-plane snapshot export hook (DESIGN.md §14.2): invoked before
    /// every flood or re-baseline whose selection commit changed the local
    /// P-graph, with the flood-scratch dirty sets (possibly duplicated
    /// entries) before they are consumed — a publisher copies only the
    /// dirty adjacency.  Null means off; see core::SnapshotSink for the
    /// handler-context rules the callee must follow.
    SnapshotSink snapshot_sink;
  };

  explicit CentaurNode(const topo::AsGraph& graph);
  CentaurNode(const topo::AsGraph& graph, Config config);

  void start() override;
  void on_message(topo::NodeId from, const sim::MessagePtr& msg) override;
  void on_link_change(topo::NodeId neighbor, bool up) override;

  /// Re-runs selection and floods any resulting deltas — used to inject
  /// policy changes (S4.3.2 treats those like link-state changes).
  void policy_changed();

  // --- adversarial fault hooks (DESIGN.md §15) ----------------------------
  // Driver/commit context only (the campaign engine applies them between
  // batches); they must never run from a message handler.

  /// Route leak: while enabled, peers and providers are served the full
  /// exported view instead of the customer-cone view, violating the
  /// Gao-Rexford export rule.  Toggling re-baselines the affected sessions
  /// (they get a reset snapshot of their new category view).
  void set_route_leak(bool enabled);
  /// Interception: while enabled, this node claims `victim` as a directly
  /// attached customer destination — selection pins the fabricated path
  /// {self, victim} and floods it like any other route (a blackhole; the
  /// fabricated hop is not a real adjacency).
  void set_intercept(topo::NodeId victim, bool enabled);
  /// Installs (or clears, when null) a runtime ranking override and re-runs
  /// selection — the local-pref flip of the policy-churn scenarios.
  void set_ranking_override(policy::RankingOverride ranking);
  /// Recomputes every relationship-derived cache after the driver rewired a
  /// link's business relationship (AsGraph::set_rel): candidate classes,
  /// selection, cone bookkeeping, export views.  Every session is
  /// re-baselined, because neighbor export categories may have flipped.
  void relationships_changed();

  // policy::RouteView (route audit / blast-radius sweeps, driver context).
  void for_each_selected_route(
      const std::function<void(topo::NodeId dest, const Path& path)>& fn)
      const override;

  /// Ranking-relevant summary of one neighbor's derived path for one
  /// destination, refreshed whenever the derived path changes.  Lets
  /// reselect() rank candidates without materializing or re-classifying
  /// full paths: classification depends only on the static AS relationships
  /// along the path, so it is computed once per derived-path change instead
  /// of once per (dirty destination x neighbor) scan.
  struct CandEntry {
    policy::RouteSource source = policy::RouteSource::kProvider;
    std::uint32_t length = 0;  ///< full-path hop count (== derived size)
    bool usable = false;       ///< false: derived path loops through self
  };

  /// Everything the node caches about one (neighbor graph, destination)
  /// pair, fused into a single slot so the refresh loop pays one lookup per
  /// dirty destination instead of one per cache.
  ///
  /// The walk-chain invalidation set (every node the derivation walk
  /// examined — the outcome can only change when an in-link of a walked
  /// node changes) is not stored here: for a successful derivation it is
  /// exactly `path` reversed, and the rare failed walk records it in the
  /// neighbor's FailChains side table.
  struct DestState {
    Path path;  ///< derived path B..dest; empty = marked but underivable
    CandEntry cand;  ///< summary of `path`; valid iff path is non-empty

    /// Resets to the fresh-entry state, keeping buffer capacity
    /// (DenseMap slot-recycling hook).
    void clear() {
      path.clear();
      cand = CandEntry{};
    }
  };

  /// Derived-path cache: direct-indexed dest -> DestState (DESIGN.md §5).
  using DestCache = util::DenseMap<DestState>;
  /// Failed derivation walks: dest -> every node the walk examined (dest
  /// first, ending at the blocking node).  A destination has an entry
  /// exactly while its DestCache entry has an empty path.
  using FailChains = util::FlatMap<NodeId, std::vector<NodeId>>;

  // --- inspection (tests, experiments, invariant checker) -----------------
  const PGraph& local_pgraph() const { return local_; }
  /// The assembled P-graph received from `neighbor`, if any.
  const PGraph* neighbor_pgraph(topo::NodeId neighbor) const;
  std::optional<Path> selected_path(NodeId dest) const;
  /// Selected path per destination, ascending (sorted flat storage; the
  /// iteration order matches the former std::map exactly).
  const util::VecMap<NodeId, Path>& selected_paths() const {
    return selected_;
  }
  /// Neighbors with assembled RIB state, ascending.
  std::vector<topo::NodeId> rib_neighbors() const;
  /// The per-destination cache kept for `neighbor`'s P-graph (derived
  /// paths, candidate summaries), or nullptr if there is no RIB state for
  /// it.  Entries with an empty `path` are marked-but-underivable
  /// destinations whose failed walk is indexed for re-checks.
  const DestCache* neighbor_derived(topo::NodeId neighbor) const;
  /// The chains of `neighbor`'s failed walks, or nullptr if there is no RIB
  /// state for it.
  const FailChains* neighbor_fail_chains(topo::NodeId neighbor) const;
  /// The node's configuration (its filters; the ranking override as last
  /// installed).
  const Config& config() const { return config_; }

  // --- from-scratch references (invariant checker, src/check) -------------
  /// Do both stored category views equal make_export_view of the local
  /// P-graph (unfiltered for the full view, cone-class destinations for the
  /// cone view)?
  bool category_views_current() const;
  /// What `neighbor` should hold from this node, rebuilt from the local
  /// P-graph: its category view (cone for peers and providers unless the
  /// node leaks) minus the links export_link_filter hides from it.
  ExportedView reference_view(topo::NodeId neighbor) const;
  /// Destinations whose selection differs from a from-scratch ranking of
  /// every usable neighbor's derived path (best_candidate_scratch), the
  /// origin and intercepted victims excepted; ascending.
  std::vector<NodeId> stale_selections() const;

  /// Size of one family of per-node tables (DESIGN.md §5.5).  `slot_bytes`
  /// is slots x slot size: spilled small-vector heap and allocator headers
  /// are not counted.  `probes` is the total probe length of finding every
  /// live key once (one per key in a direct-indexed table).
  struct TableFootprint {
    std::size_t entries = 0;
    std::size_t slots = 0;
    std::size_t slot_bytes = 0;
    std::size_t probes = 0;

    TableFootprint& operator+=(const TableFootprint& o);
  };
  /// The footprint of every per-node table, by container family.
  struct Footprint {
    TableFootprint dest_caches;       ///< NeighborState::dests
    TableFootprint fail_chains;       ///< NeighborState::fail_chains
    TableFootprint chain_indexes;     ///< NeighborState::chain_index
    TableFootprint local_parents;     ///< the local graph's parents index
    TableFootprint local_lists;       ///< its Permission-List table
    TableFootprint received_parents;  ///< the received graphs' parents
    TableFootprint received_lists;    ///< their Permission-List tables
    TableFootprint full_view;         ///< the full export view's links
    TableFootprint cone_view;         ///< the cone view's + cone_entries_

    Footprint& operator+=(const Footprint& o);
    /// Calls fn(name, family) for every family, in the order above.
    template <typename Fn>
    void for_each(Fn&& fn) const {
      fn("dest_caches", dest_caches);
      fn("fail_chains", fail_chains);
      fn("chain_indexes", chain_indexes);
      fn("local_parents", local_parents);
      fn("local_lists", local_lists);
      fn("received_parents", received_parents);
      fn("received_lists", received_lists);
      fn("full_view", full_view);
      fn("cone_view", cone_view);
    }
  };
  Footprint footprint() const;

 private:
  /// Per-neighbor RIB state: the assembled P-graph plus caches that make
  /// steady-phase processing incremental — one DestState per marked
  /// destination, the chains of the failed walks among them, and an index
  /// from chain nodes to the destinations whose derived walk visits them.
  /// A delta changing the in-links of node X can only change walks through
  /// X: all of them when X is a coarse head, only those of the destinations
  /// the changed Permission-List pairs name when X is a fine one
  /// (DeltaReport, DESIGN.md §12.1).
  /// The caches grow with content (the seed used node-based std::map):
  /// `dests` is direct-indexed by destination id — destinations are the
  /// originated set — `fail_chains` holds only the few underivable ones,
  /// and `chain_index` is a content-sized NodeMap whose destination sets
  /// are sorted small-vectors.
  struct NeighborState {
    NeighborState() = default;
    explicit NeighborState(topo::NodeId root) : graph(root) {}
    PGraph graph;            // G_{B->self}
    DestCache dests;         // dest -> derived path + summary
    FailChains fail_chains;  // dest -> failed walk (underivable dests only)
    /// node -> dests whose walk visits it (sorted ascending).  Content-
    /// sized NodeMap (one slot per walked node); absent/empty value = no
    /// walks.
    util::NodeMap<util::SmallVec<NodeId, 4>> chain_index;
  };

  bool neighbor_usable(topo::NodeId neighbor) const;
  /// Is `rel` served the cone view?  Peers and providers are, unless the
  /// node leaks (set_route_leak).
  bool serves_cone(topo::Relationship rel) const {
    return !leak_all_ && (rel == topo::Relationship::kPeer ||
                          rel == topo::Relationship::kProvider);
  }
  /// The cone view's destination filter: destinations whose selected route
  /// is cone-class (self, customer or sibling), read from the class cache.
  DestFilter cone_filter() const;
  /// True when this node announces its own prefix (originate_prefix gated
  /// by the optional low-id originate_limit).
  bool originates() const {
    return config_.originate_prefix &&
           (config_.originate_limit == 0 || self() < config_.originate_limit);
  }
  /// Re-derives `dests` (sorted ascending, duplicate-free) in `state`,
  /// returning those whose result changed, ascending.  Also refreshes the
  /// per-destination candidate summaries.
  std::vector<NodeId> refresh_derived(NeighborState& state,
                                      const std::vector<NodeId>& dests);
  /// Re-selects routes for `dests` (sorted ascending, duplicate-free);
  /// updates selected_/local_, the class cache, the cone-entry side map,
  /// and the flood scratch (touched links + changed destinations).
  /// Returns true if any selection changed.
  bool reselect(const std::vector<NodeId>& dests);
  /// Best candidate for `dest` by rank-merging the cached summaries; the
  /// winning path is materialized lazily at the end (incremental plane).
  std::optional<Path> best_candidate_cached(NodeId dest,
                                            policy::Candidate& best) const;
  /// Re-classifies every usable neighbor's derived path from scratch: the
  /// selection path of nodes with a ranking override (overrides rank full
  /// paths, which the cache does not store), and the reference of
  /// stale_selections().
  std::optional<Path> best_candidate_scratch(NodeId dest,
                                             policy::Candidate& best) const;
  /// Hands the flood scratch to the snapshot sink, if one is set and the
  /// scratch is non-empty.  Leaves the scratch in place.
  void publish_snapshot();
  /// Applies the flood scratch to the two category views, records the
  /// resulting changes in the pending per-category deltas, and dispatches.
  /// Always call after reselect() so the category views never go stale.
  void flood();
  /// Schedules one zero-delay flush event per node per instant, so every
  /// delta emitted within the instant merges into one update per neighbor.
  void dispatch_updates();
  /// Materializes at most two shared payloads (full/cone) from the pending
  /// deltas and fans them out; uninitialized usable neighbors get a shared
  /// baseline snapshot of their category view instead.  A neighbor with
  /// hidden links gets its payload through hide_links().
  void flush_pending();
  /// `update` minus the links export_link_filter hides from `neighbor`:
  /// `update` itself when it carries no hidden link, null when nothing but
  /// hidden links is left of a non-reset update.
  std::shared_ptr<const CentaurUpdate> hide_links(
      topo::NodeId neighbor,
      const std::shared_ptr<const CentaurUpdate>& update) const;
  /// Records a changed selection for dest (old path out, new path in) in
  /// the flood scratch and cone-entry map.
  void note_path_removed(NodeId dest, const Path& path, bool cone_class);
  void note_path_added(NodeId dest, const Path& path, bool cone_class);
  /// All destinations any neighbor currently derives or marks, ascending.
  std::vector<NodeId> known_dests() const;
  /// Is `dest` currently claimed by an interception (set_intercept)?
  bool intercepting(NodeId dest) const {
    return intercepted_.find(dest) != nullptr;
  }

  const topo::AsGraph& graph_;
  Config config_;
  // Hot node state lives on sorted flat containers (util::VecMap): the
  // former std::map storage paid a node allocation per entry and a pointer
  // chase per iteration step on every reselect/flood.  Iteration stays
  // ascending by key, bit-identical to std::map.
  util::VecMap<topo::NodeId, NeighborState> rib_;
  util::FlatMap<topo::NodeId, bool> session_up_;  // adjacency/session state
  PGraph local_;                                  // G_self
  util::VecMap<NodeId, Path> selected_;
  util::VecMap<NodeId, policy::RouteSource> selected_class_;  // classify cache

  // Export machinery.  Under Gao-Rexford there are exactly two distinct
  // exported views: customers/siblings see every selected route ("full"),
  // peers/providers see only self/customer/sibling-class routes ("cone").
  // Both views are maintained incrementally from the flood scratch, so a
  // steady-phase update costs O(touched links), not O(P-graph).
  // cone_entries_ mirrors local_'s permission entries restricted to
  // cone-class destinations (it tells both which links the cone view
  // carries and with which filtered Permission List); all side state is on
  // flat containers (DESIGN.md §5.1), keyed by packed links / node ids.
  ExportedView exported_full_;
  ExportedView exported_cone_;
  util::FlatMap<std::uint64_t, PermissionList> cone_entries_;
  util::FlatMap<NodeId, std::uint8_t> cone_dests_;          // used as a set
  util::FlatMap<topo::NodeId, std::uint8_t> initialized_nbrs_;  // got snapshot
  // Flood scratch, filled by reselect(); duplicates fine, flood() dedups.
  std::vector<DirectedLink> touched_links_;
  std::vector<NodeId> changed_dests_;
  bool published_ = false;  // this instance has called the snapshot sink
  // Outbound coalescing (Step 5 batching): per-category net deltas pending
  // since the last flush, plus whether a flush event is already queued for
  // the current instant.
  PendingDelta pending_full_;
  PendingDelta pending_cone_;
  bool flush_scheduled_ = false;
  // Adversarial state (driver-toggled; see the fault hooks above).
  bool leak_all_ = false;
  util::FlatMap<NodeId, std::uint8_t> intercepted_;  // victim set
  // Reusable hot-path scratch (nodes process one message at a time): the
  // per-message delta report and dirty set, and the derivation walk/path
  // buffers.  Keeping them as members removes their allocation/free pairs
  // per delivery.
  DeltaReport report_scratch_;
  std::vector<NodeId> dirty_scratch_;
  std::vector<NodeId> visited_scratch_;
  Path path_scratch_;
};

}  // namespace centaur::core
