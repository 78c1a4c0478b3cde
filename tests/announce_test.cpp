#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "centaur/announce.hpp"
#include "centaur/build_graph.hpp"
#include "centaur/query.hpp"
#include "wire/wire_format.hpp"

namespace centaur::core {
namespace {

constexpr NodeId A = 0, B = 1, C = 2, D = 3, Dp = 4;

std::map<NodeId, Path> fig4_selection() {
  return {
      {C, {C}},
      {A, {C, A}},
      {B, {C, A, B}},
      {D, {C, A, B, D}},
      {Dp, {C, D, Dp}},
  };
}

PGraph fig4_local() { return build_local_pgraph(C, fig4_selection()); }

DestFilter allow_all_dests() {
  return [](NodeId) { return true; };
}

std::vector<NodeId> dest_list(const ExportedView& v) {
  return std::vector<NodeId>(v.destinations.begin(), v.destinations.end());
}

TEST(ExportView, AllDestsExportsEverything) {
  const PGraph local = fig4_local();
  const ExportedView v = make_export_view(local, allow_all_dests());
  EXPECT_EQ(v.links.size(), local.num_links());
  EXPECT_EQ(dest_list(v), (std::vector<NodeId>{A, B, C, D, Dp}));
  // Multi-homed head links carry their permission lists on the wire.
  ASSERT_NE(v.find_link(B, D), nullptr);
  EXPECT_TRUE(v.find_link(B, D)->permits(D, kNoNextHop));
  ASSERT_NE(v.find_link(C, D), nullptr);
  EXPECT_TRUE(v.find_link(C, D)->permits(Dp, Dp));
  // Single-homed heads ship empty lists.
  ASSERT_NE(v.find_link(C, A), nullptr);
  EXPECT_TRUE(v.find_link(C, A)->empty());
}

TEST(ExportView, DestFilterPrunesLinksAndPermissions) {
  const PGraph local = fig4_local();
  // Only D' may be exported: the only links carrying D' traffic are C->D
  // and D->D'.
  const ExportedView v = make_export_view(
      local, [](NodeId dest) { return dest == Dp; });
  EXPECT_EQ(dest_list(v), (std::vector<NodeId>{Dp}));
  EXPECT_EQ(v.links.size(), 2u);
  EXPECT_TRUE(v.has_link(C, D));
  EXPECT_TRUE(v.has_link(D, Dp));
  // The C->D permission list keeps only the D' entry.
  EXPECT_TRUE(v.find_link(C, D)->permits(Dp, Dp));
  EXPECT_EQ(v.find_link(C, D)->dest_count(), 1u);
}

TEST(ExportView, LinkFilterHidesSpecificLinks) {
  const PGraph local = fig4_local();
  const ExportedView v = make_export_view(
      local, allow_all_dests(),
      [](NodeId from, NodeId to) { return !(from == C && to == D); });
  EXPECT_FALSE(v.has_link(C, D));
  EXPECT_TRUE(v.has_link(B, D));
}

TEST(Diff, EmptyToFullIsAllUpserts) {
  const ExportedView after = make_export_view(fig4_local(), allow_all_dests());
  const GraphDelta d = diff_views(ExportedView{}, after);
  EXPECT_EQ(d.upserts.size(), after.links.size());
  EXPECT_TRUE(d.removes.empty());
  EXPECT_EQ(d.dest_adds.size(), after.destinations.size());
  EXPECT_FALSE(d.empty());
  // Sections come out in canonical (sorted-ascending) wire order.
  for (std::size_t i = 1; i < d.upserts.size(); ++i) {
    EXPECT_LT(d.upserts[i - 1].first, d.upserts[i].first);
  }
  for (std::size_t i = 1; i < d.dest_adds.size(); ++i) {
    EXPECT_LT(d.dest_adds[i - 1], d.dest_adds[i]);
  }
}

TEST(Diff, IdenticalViewsYieldEmptyDelta) {
  const ExportedView v = make_export_view(fig4_local(), allow_all_dests());
  EXPECT_TRUE(diff_views(v, v).empty());
}

TEST(Diff, DetectsRemovalsAndPlistChanges) {
  const ExportedView before = make_export_view(fig4_local(), allow_all_dests());
  ExportedView after = before;
  after.links.erase(pack_link(D, Dp));
  util::sorted_erase(after.destinations, Dp);
  after.links[pack_link(C, D)].add(99, 98);  // plist change
  const GraphDelta d = diff_views(before, after);
  ASSERT_EQ(d.removes.size(), 1u);
  EXPECT_EQ(d.removes[0], (DirectedLink{D, Dp}));
  ASSERT_EQ(d.upserts.size(), 1u);
  EXPECT_EQ(d.upserts[0].first, (DirectedLink{C, D}));
  ASSERT_EQ(d.dest_removes.size(), 1u);
  EXPECT_EQ(d.dest_removes[0], Dp);
  EXPECT_TRUE(d.dest_adds.empty());
}

TEST(Diff, PlistOnlyChangeYieldsSingleUpsert) {
  const ExportedView before = make_export_view(fig4_local(), allow_all_dests());
  ExportedView after = before;
  // Same link set, same destinations — only one Permission List differs.
  after.links[pack_link(B, D)].add(77, kNoNextHop);
  const GraphDelta d = diff_views(before, after);
  EXPECT_TRUE(d.removes.empty());
  EXPECT_TRUE(d.dest_adds.empty());
  EXPECT_TRUE(d.dest_removes.empty());
  ASSERT_EQ(d.upserts.size(), 1u);
  EXPECT_EQ(d.upserts[0].first, (DirectedLink{B, D}));
  EXPECT_TRUE(d.upserts[0].second.permits(77, kNoNextHop));
}

TEST(ApplyDelta, ReconstructsTheExportedView) {
  const ExportedView v = make_export_view(fig4_local(), allow_all_dests());
  const GraphDelta d = diff_views(ExportedView{}, v);
  PGraph g(C);
  EXPECT_TRUE(apply_delta(g, d, /*self=*/7));  // 7 not in the graph
  EXPECT_EQ(g.num_links(), v.links.size());
  for (const auto& [key, plist] : v.links) {
    const DirectedLink link = unpack_link(key);
    ASSERT_TRUE(g.has_link(link.from, link.to));
    // Only the non-empty lists are stored.
    const PermissionList* stored = g.plist(link.from, link.to);
    EXPECT_EQ(stored != nullptr, !plist.empty());
    if (stored != nullptr) {
      EXPECT_EQ(*stored, plist);
    }
  }
  EXPECT_EQ(g.plist_map().size(), 2u);  // the in-links of multi-homed D
  EXPECT_EQ(std::vector<NodeId>(g.destinations().begin(),
                                g.destinations().end()),
            dest_list(v));
  // The assembled graph must reproduce the creator's paths.
  EXPECT_EQ(query_path(g, {D}).path, (Path{C, A, B, D}));
  EXPECT_EQ(query_path(g, {Dp}).path, (Path{C, D, Dp}));
}

TEST(ApplyDelta, DropsLinksPointingAtSelf) {
  const ExportedView v = make_export_view(fig4_local(), allow_all_dests());
  const GraphDelta d = diff_views(ExportedView{}, v);
  PGraph g(C);
  apply_delta(g, d, /*self=*/A);
  // C->A points at the importer and must be gone (Step 2).
  EXPECT_FALSE(g.has_link(C, A));
  EXPECT_TRUE(g.has_link(A, B));  // links *from* self survive
}

TEST(ApplyDelta, ImporterWithOnlyOutLinksAnswersLikeTheWalk) {
  // Loop elimination leaves the importer A its out-link A->B but no in-link,
  // so contains(A) is false and query_path_into's fast reject answers for A
  // without walking.  Every answer must equal the plain walk's.
  const ExportedView v = make_export_view(fig4_local(), allow_all_dests());
  PGraph g(C);
  apply_delta(g, diff_views(ExportedView{}, v), /*self=*/A);
  ASSERT_TRUE(g.has_link(A, B));
  ASSERT_EQ(g.in_degree(A), 0u);
  EXPECT_FALSE(g.contains(A));
  EXPECT_TRUE(g.contains(B));
  for (const NodeId dest : {A, B, C, D, Dp}) {
    std::vector<NodeId> fast_visited, walk_visited;
    Path fast_path, walk_path;
    const PathStatus fast =
        query_path_into(g, PathQuery{dest, &fast_visited}, fast_path);
    const PathStatus walk = query_path_over(
        PGraphView{&g}, PathQuery{dest, &walk_visited}, walk_path);
    EXPECT_EQ(fast, walk) << "dest " << dest;
    EXPECT_EQ(fast_path, walk_path) << "dest " << dest;
    EXPECT_EQ(fast_visited, walk_visited) << "dest " << dest;
  }
  std::vector<NodeId> visited;
  Path path;
  EXPECT_EQ(query_path_into(g, PathQuery{A, &visited}, path),
            PathStatus::kUnreachable);
  EXPECT_EQ(visited, std::vector<NodeId>{A});
  // B hangs only off the importer: its walk stops at A.
  EXPECT_EQ(query_path_into(g, PathQuery{B, &visited}, path),
            PathStatus::kUnreachable);
  EXPECT_EQ(visited, (std::vector<NodeId>{B, A}));
}

TEST(ApplyDelta, ImportFilterApplies) {
  const ExportedView v = make_export_view(fig4_local(), allow_all_dests());
  const GraphDelta d = diff_views(ExportedView{}, v);
  PGraph g(C);
  apply_delta(g, d, 7,
              [](NodeId from, NodeId to) { return !(from == C && to == D); });
  EXPECT_FALSE(g.has_link(C, D));
  EXPECT_TRUE(g.has_link(B, D));
}

TEST(ApplyDelta, IncrementalRemoveAndReset) {
  const ExportedView v = make_export_view(fig4_local(), allow_all_dests());
  PGraph g(C);
  apply_delta(g, diff_views(ExportedView{}, v), 7);

  GraphDelta removal;
  removal.removes.push_back(DirectedLink{C, D});
  removal.dest_removes.push_back(Dp);
  EXPECT_TRUE(apply_delta(g, removal, 7));
  EXPECT_FALSE(g.has_link(C, D));
  EXPECT_FALSE(g.is_destination(Dp));

  GraphDelta reset;
  reset.reset = true;
  EXPECT_TRUE(apply_delta(g, reset, 7));
  EXPECT_EQ(g.num_links(), 0u);
  EXPECT_FALSE(apply_delta(g, reset, 7));  // already empty: no change
}

TEST(ApplyDelta, ResetWithContentReplacesTheGraph) {
  const ExportedView v = make_export_view(fig4_local(), allow_all_dests());
  PGraph g(C);
  apply_delta(g, diff_views(ExportedView{}, v), 7);
  ASSERT_GT(g.num_links(), 1u);

  // A reset delta carrying content (the session-restart snapshot) must
  // leave exactly its own content, nothing of the prior state.
  GraphDelta snapshot;
  snapshot.reset = true;
  snapshot.upserts.emplace_back(DirectedLink{A, B}, PermissionList{});
  snapshot.dest_adds.push_back(B);
  EXPECT_TRUE(apply_delta(g, snapshot, 7));
  EXPECT_EQ(g.num_links(), 1u);
  EXPECT_TRUE(g.has_link(A, B));
  EXPECT_FALSE(g.has_link(C, D));
  EXPECT_EQ(std::vector<NodeId>(g.destinations().begin(),
                                g.destinations().end()),
            (std::vector<NodeId>{B}));
}

TEST(ApplyDelta, UpsertReplacesPlist) {
  PGraph g(C);
  GraphDelta d1;
  PermissionList p1;
  p1.add(1, 2);
  d1.upserts.emplace_back(DirectedLink{A, B}, p1);
  apply_delta(g, d1, 7);
  GraphDelta d2;
  PermissionList p2;
  p2.add(3, 4);
  d2.upserts.emplace_back(DirectedLink{A, B}, p2);
  EXPECT_TRUE(apply_delta(g, d2, 7));
  EXPECT_FALSE(g.plist(A, B)->permits(1, 2));
  EXPECT_TRUE(g.plist(A, B)->permits(3, 4));
  // Same upsert again: no change.
  EXPECT_FALSE(apply_delta(g, d2, 7));
  // An empty list unlists the link, which stays.
  GraphDelta d3;
  d3.upserts.emplace_back(DirectedLink{A, B}, PermissionList{});
  EXPECT_TRUE(apply_delta(g, d3, 7));
  EXPECT_TRUE(g.has_link(A, B));
  EXPECT_EQ(g.plist(A, B), nullptr);
  EXPECT_TRUE(g.plist_map().empty());
  EXPECT_FALSE(apply_delta(g, d3, 7));
}

TEST(ApplyDelta, SameLinkUpsertedAndRemovedInOneDelta) {
  // A malformed-but-possible delta naming one link in both sections:
  // removes apply before upserts, so the upsert is authoritative — the
  // link ends up present with the upsert's Permission List.
  PGraph g(C);
  GraphDelta d0;
  PermissionList old_plist;
  old_plist.add(1, 2);
  d0.upserts.emplace_back(DirectedLink{A, B}, old_plist);
  apply_delta(g, d0, 7);

  GraphDelta d;
  PermissionList new_plist;
  new_plist.add(3, 4);
  d.removes.push_back(DirectedLink{A, B});
  d.upserts.emplace_back(DirectedLink{A, B}, new_plist);
  EXPECT_TRUE(apply_delta(g, d, 7));
  ASSERT_TRUE(g.has_link(A, B));
  EXPECT_TRUE(g.plist(A, B)->permits(3, 4));
  EXPECT_FALSE(g.plist(A, B)->permits(1, 2));
}

// ------------------------------------ delta report (DESIGN.md §12.1) ---

/// A Permission List from (destination, next hop) pairs.
PermissionList plist_of(
    std::initializer_list<std::pair<NodeId, NodeId>> pairs) {
  PermissionList pl;
  for (const auto& [dest, next] : pairs) pl.add(dest, next);
  return pl;
}

using Named = std::vector<std::pair<NodeId, NodeId>>;

// Head 4 is multi-homed with two listed in-links; head 5 is single-homed.
PGraph report_base() {
  PGraph g(0);
  for (NodeId n = 1; n <= 3; ++n) g.add_link(0, n);
  g.add_permission(1, 4, 4, kNoNextHop);
  g.add_permission(2, 4, 6, 6);
  g.add_link(1, 5);
  g.add_link(4, 6);
  for (NodeId d = 4; d <= 6; ++d) g.mark_destination(d);
  return g;
}

TEST(DeltaReport, PlistChangesAtAMultiHomedHeadNameTheirDestinations) {
  PGraph g = report_base();
  DeltaReport r;
  GraphDelta change;
  change.upserts.emplace_back(DirectedLink{2, 4},
                              plist_of({{6, 6}, {7, 6}, {8, 6}}));
  ASSERT_TRUE(apply_delta(g, change, 9, nullptr, &r));
  EXPECT_TRUE(r.coarse.empty());
  EXPECT_EQ(r.named, (Named{{4, 7}, {4, 8}}));

  // A listed link added at a head that was already multi-homed names all
  // of its pairs; dropping a pair names it too.
  GraphDelta add;
  add.upserts.emplace_back(DirectedLink{3, 4}, plist_of({{5, 2}, {4, 1}}));
  add.upserts.emplace_back(DirectedLink{2, 4}, plist_of({{6, 6}, {7, 6}}));
  ASSERT_TRUE(apply_delta(g, add, 9, nullptr, &r));
  EXPECT_TRUE(r.coarse.empty());
  EXPECT_EQ(r.named, (Named{{4, 4}, {4, 5}, {4, 8}}));
}

TEST(DeltaReport, StructuralChangesAreCoarse) {
  const auto report_for = [](const GraphDelta& delta) {
    PGraph g = report_base();
    DeltaReport r;
    EXPECT_TRUE(apply_delta(g, delta, 9, nullptr, &r));
    EXPECT_TRUE(r.named.empty());
    return r.coarse;
  };
  GraphDelta unlisted_add;  // a second default parent
  unlisted_add.upserts.emplace_back(DirectedLink{3, 4}, PermissionList{});
  EXPECT_EQ(report_for(unlisted_add), std::vector<NodeId>{4});

  GraphDelta flip;  // listed -> unlisted
  flip.upserts.emplace_back(DirectedLink{1, 4}, PermissionList{});
  EXPECT_EQ(report_for(flip), std::vector<NodeId>{4});

  GraphDelta removal;
  removal.removes.push_back(DirectedLink{2, 4});
  EXPECT_EQ(report_for(removal), std::vector<NodeId>{4});

  GraphDelta single_to_multi;  // head 5 starts consulting its lists
  single_to_multi.upserts.emplace_back(DirectedLink{2, 5},
                                       plist_of({{5, kNoNextHop}}));
  EXPECT_EQ(report_for(single_to_multi), std::vector<NodeId>{5});

  GraphDelta single_homed_change;  // 6 has one parent before and after
  single_homed_change.upserts.emplace_back(DirectedLink{4, 6},
                                           plist_of({{6, kNoNextHop}}));
  EXPECT_EQ(report_for(single_homed_change), std::vector<NodeId>{6});

  // A coarse event at a head drops the names a fine change there carried.
  GraphDelta mixed;
  mixed.removes.push_back(DirectedLink{1, 4});
  mixed.upserts.emplace_back(DirectedLink{2, 4}, plist_of({{7, 6}}));
  mixed.upserts.emplace_back(DirectedLink{3, 4}, plist_of({{8, 6}}));
  EXPECT_EQ(report_for(mixed), std::vector<NodeId>{4});
}

TEST(DeltaReport, SkippedUpsertsAndResetsReportNothing) {
  PGraph g = report_base();
  DeltaReport r;
  r.coarse.push_back(1);  // stale content must be cleared
  GraphDelta noop;
  noop.upserts.emplace_back(DirectedLink{1, 4}, plist_of({{4, kNoNextHop}}));
  noop.upserts.emplace_back(DirectedLink{1, 9}, plist_of({{9, kNoNextHop}}));
  noop.upserts.emplace_back(DirectedLink{3, 4}, PermissionList{});
  noop.removes.push_back(DirectedLink{3, 5});  // absent
  const LinkFilter no_3_to_4 = [](NodeId from, NodeId to) {
    return !(from == 3 && to == 4);
  };
  EXPECT_FALSE(apply_delta(g, noop, /*self=*/9, no_3_to_4, &r));
  EXPECT_TRUE(r.coarse.empty());
  EXPECT_TRUE(r.named.empty());

  GraphDelta reset;
  reset.reset = true;
  reset.upserts.emplace_back(DirectedLink{0, 1}, PermissionList{});
  EXPECT_TRUE(apply_delta(g, reset, 9, nullptr, &r));
  EXPECT_TRUE(r.coarse.empty());
  EXPECT_TRUE(r.named.empty());
}

/// Random P-graphs and random deltas against them, drawn from one seeded
/// stream that the two properties below share.  Ids 0..kNodes-1 with root
/// 0; links only run from a lower to a higher id, so walks never cycle.
/// kSelf is the importer (links into it are dropped); the import filter
/// rejects every link leaving kFiltered.
class RandomDeltas {
 public:
  static constexpr NodeId kNodes = 10;
  static constexpr NodeId kSelf = kNodes;
  static constexpr NodeId kFiltered = 6;
  static constexpr int kTrials = 1000;
  static constexpr int kSteps = 4;

  const LinkFilter import_filter = [](NodeId from, NodeId) {
    return from != kFiltered;
  };

  /// A random starting graph, as a reset delta (apply it unfiltered).
  GraphDelta initial() {
    GraphDelta delta;
    delta.reset = true;
    std::set<DirectedLink> seen;
    for (NodeId head = 1; head < kNodes; ++head) {
      const NodeId in_degree = std::min<NodeId>(pick(0, 3), head);
      for (NodeId i = 0; i < in_degree; ++i) {
        const DirectedLink link{pick(0, head - 1), head};
        if (seen.insert(link).second) {
          delta.upserts.emplace_back(link, random_link_plist(head));
        }
      }
    }
    for (NodeId d = 1; d < kNodes; ++d) {
      if (chance(0.7)) delta.dest_adds.push_back(d);
    }
    return delta;
  }

  /// A random delta against `g`.
  GraphDelta next(const PGraph& g) {
    // Existing links, sorted (links() iterates in no fixed order).
    std::vector<std::pair<DirectedLink, PermissionList>> links;
    for (const auto& [link, plist] : g.links()) links.emplace_back(link, plist);
    std::sort(links.begin(), links.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    const auto some_link = [&]() {
      return links[pick(0, static_cast<NodeId>(links.size() - 1))];
    };
    const auto absent_link = [&]() {
      const NodeId to = pick(1, kNodes - 1);
      return DirectedLink{pick(0, to - 1), to};
    };

    GraphDelta delta;
    std::set<DirectedLink> used;
    const auto upsert = [&](const DirectedLink& link,
                            const PermissionList& pl) {
      if (used.insert(link).second) delta.upserts.emplace_back(link, pl);
    };
    const NodeId ops = pick(1, 6);
    for (NodeId op = 0; op < ops; ++op) {
      switch (pick(0, 11)) {
        case 0:  // remove an existing link
          if (!links.empty()) {
            const DirectedLink link = some_link().first;
            if (used.insert(link).second) delta.removes.push_back(link);
          }
          break;
        case 1:  // remove a link that may be absent
          delta.removes.push_back(absent_link());
          break;
        case 2: {  // add (or re-list) a link
          const DirectedLink link = absent_link();
          upsert(link, random_link_plist(link.to));
          break;
        }
        case 3:  // change a listed list to another listed list
          if (!links.empty()) {
            auto [link, pl] = some_link();
            if (pl.empty()) break;
            if (chance(0.5) && pl.dest_count() > 1) {
              const PermissionList::Entry first = pl.entries().front();
              pl.remove(first.dests.front(), first.next_hop);
            } else {
              const NodeId dest = pick(link.to, kNodes - 1);
              pl.add(dest,
                     dest == link.to ? kNoNextHop : pick(link.to + 1, dest));
            }
            upsert(link, pl);
          }
          break;
        case 4:  // flip listed <-> unlisted
          if (!links.empty()) {
            const auto& [link, pl] = some_link();
            upsert(link,
                   pl.empty() ? random_plist(link.to) : PermissionList{});
          }
          break;
        case 5:  // no-op upsert
          if (!links.empty()) {
            const auto& [link, pl] = some_link();
            upsert(link, pl);
          }
          break;
        case 6:  // self-targeted
          upsert(DirectedLink{pick(0, kNodes - 1), kSelf},
                 plist_of({{kSelf, kNoNextHop}}));
          break;
        case 7: {  // import-filtered
          const NodeId to = pick(kFiltered + 1, kNodes - 1);
          upsert(DirectedLink{kFiltered, to}, random_link_plist(to));
          break;
        }
        case 8: {  // single-homed head gains a listed in-link
          for (NodeId head = 2; head < kNodes; ++head) {
            if (g.in_degree(head) != 1) continue;
            const NodeId from = pick(0, head - 1);
            if (!g.has_link(from, head)) {
              upsert(DirectedLink{from, head}, random_plist(head));
              break;
            }
          }
          break;
        }
        case 9:  // remove and re-add one link
          if (!links.empty()) {
            const auto& [link, pl] = some_link();
            if (used.insert(link).second) {
              delta.removes.push_back(link);
              delta.upserts.emplace_back(link, random_link_plist(link.to));
            }
          }
          break;
        case 10:
          delta.dest_adds.push_back(pick(1, kNodes - 1));
          break;
        default:
          delta.dest_removes.push_back(pick(1, kNodes - 1));
          break;
      }
    }
    return delta;
  }

 private:
  NodeId pick(NodeId lo, NodeId hi) {  // uniform in [lo, hi]
    return std::uniform_int_distribution<NodeId>(lo, hi)(rng_);
  }
  bool chance(double p) { return std::bernoulli_distribution(p)(rng_); }
  // A listed Permission List for an in-link of `head`: pairs for
  // destinations at or below it, with next hops on the way down.
  PermissionList random_plist(NodeId head) {
    PermissionList pl;
    const NodeId pairs = pick(1, 3);
    for (NodeId i = 0; i < pairs; ++i) {
      const NodeId dest = pick(head, kNodes - 1);
      pl.add(dest, dest == head ? kNoNextHop : pick(head + 1, dest));
    }
    return pl;
  }
  PermissionList random_link_plist(NodeId head) {
    return chance(0.3) ? PermissionList{} : random_plist(head);
  }

  std::mt19937 rng_{0xDE17A};
};

// Property: on random P-graphs and random deltas, every destination whose
// DerivePath result or visited chain changes is covered by the report — a
// coarse head on its old chain, a fine head on its old chain that names it,
// or a destination-mark change.  This is the exactness claim the receiver's
// dirty set rests on; the end-to-end equivalence tests cannot see a missed
// walk that a later delta masks.
struct Walk {
  PathStatus status = PathStatus::kUnreachable;
  Path path;
  std::vector<NodeId> chain;
  bool operator==(const Walk&) const = default;
};

Walk walk_of(const PGraph& g, NodeId dest) {
  Walk w;
  w.status = query_path_into(g, PathQuery{dest, &w.chain}, w.path);
  return w;
}

TEST(DeltaReport, RandomDeltasNeverMissAChangedWalk) {
  RandomDeltas stream;
  std::size_t changed_walks = 0, fine_only_hits = 0, fine_skips = 0;
  for (int trial = 0; trial < RandomDeltas::kTrials; ++trial) {
    PGraph g(0);
    apply_delta(g, stream.initial(), RandomDeltas::kSelf);

    for (int step = 0; step < RandomDeltas::kSteps; ++step) {
      std::map<NodeId, Walk> before;
      for (const NodeId d : g.destinations()) before[d] = walk_of(g, d);

      const GraphDelta delta = stream.next(g);
      DeltaReport report;
      apply_delta(g, delta, RandomDeltas::kSelf, stream.import_filter,
                  &report);
      ASSERT_TRUE(std::is_sorted(report.coarse.begin(), report.coarse.end()));
      ASSERT_TRUE(std::adjacent_find(report.coarse.begin(),
                                     report.coarse.end()) ==
                  report.coarse.end());
      ASSERT_TRUE(std::is_sorted(report.named.begin(), report.named.end()));
      const auto is_coarse = [&](NodeId head) {
        return std::binary_search(report.coarse.begin(), report.coarse.end(),
                                  head);
      };
      const auto is_fine = [&](NodeId head) {
        return std::any_of(report.named.begin(), report.named.end(),
                           [head](const auto& hd) { return hd.first == head; });
      };
      const auto names = [&](NodeId head, NodeId dest) {
        return std::binary_search(report.named.begin(), report.named.end(),
                                  std::make_pair(head, dest));
      };
      for (const auto& [head, dest] : report.named) {
        ASSERT_FALSE(is_coarse(head)) << "head " << head;
      }

      std::set<NodeId> mark_changes(delta.dest_adds.begin(),
                                    delta.dest_adds.end());
      mark_changes.insert(delta.dest_removes.begin(),
                          delta.dest_removes.end());
      for (const auto& [dest, old] : before) {
        if (mark_changes.count(dest) != 0) continue;  // always dirty
        ASSERT_TRUE(g.is_destination(dest));
        const Walk now = walk_of(g, dest);
        bool coarse_hit = false, fine_hit = false, fine_seen = false;
        for (const NodeId node : old.chain) {
          coarse_hit |= is_coarse(node);
          fine_hit |= names(node, dest);
          fine_seen |= is_fine(node);
        }
        if (now == old) {
          if (fine_seen && !coarse_hit && !fine_hit) ++fine_skips;
          continue;
        }
        ++changed_walks;
        if (fine_hit && !coarse_hit) ++fine_only_hits;
        EXPECT_TRUE(coarse_hit || fine_hit)
            << "trial " << trial << " step " << step << ": walk of " << dest
            << " changed but no reported head covers it";
      }
    }
  }
  // The draw must exercise both sides of the rule: changes caught only by
  // a fine head's names, and unchanged walks a fine head let through.
  EXPECT_GT(changed_walks, 1000u);
  EXPECT_GT(fine_only_hits, 30u);
  EXPECT_GT(fine_skips, 100u);
}

// Property: a PGraph, which stores Permission Lists only where they are
// non-empty, answers every delta stream exactly like a reference that
// stores every link with its list (empty when unlisted) — same links,
// lists, marks, walks and DeltaReport.  The reference applies a delta by
// the rules announce.hpp states for apply_delta and DeltaReport.
class ReferenceGraph {
 public:
  /// Applies `delta` and returns its report (empty for a reset delta).
  std::pair<std::vector<NodeId>, std::set<std::pair<NodeId, NodeId>>> apply(
      const GraphDelta& delta, NodeId self, const LinkFilter& import_allowed) {
    std::set<NodeId> coarse;
    std::set<std::pair<NodeId, NodeId>> named;
    std::map<NodeId, std::size_t> fine;  // candidate head -> links added
    if (delta.reset) {
      links_.clear();
      dests_.clear();
    }
    for (const DirectedLink& link : delta.removes) {
      if (links_.erase(link) != 0) coarse.insert(link.to);
    }
    for (const NodeId d : delta.dest_removes) dests_.erase(d);
    for (const auto& [link, after] : delta.upserts) {
      if (link.to == self) continue;
      if (import_allowed && !import_allowed(link.from, link.to)) continue;
      const auto it = links_.find(link);
      const bool added = it == links_.end();
      const PermissionList before = added ? PermissionList{} : it->second;
      if (!added && before == after) continue;
      // An unlisted in-link is the default at a multi-homed head: adding
      // one, or flipping one between listed and unlisted, is coarse.
      if (after.empty() || (!added && before.empty())) {
        coarse.insert(link.to);
      } else {
        fine[link.to] += added ? 1 : 0;
        before.for_each_changed_dest(
            after, [&](NodeId dest) { named.emplace(link.to, dest); });
      }
      links_[link] = after;
    }
    dests_.insert(delta.dest_adds.begin(), delta.dest_adds.end());
    // Fine only while multi-homed before and after (the head lost no link).
    for (const auto& [head, added] : fine) {
      if (parents(head).size() < added + 2) coarse.insert(head);
    }
    std::erase_if(named, [&](const auto& hd) {
      return coarse.count(hd.first) != 0;
    });
    if (delta.reset) return {};
    return {std::vector<NodeId>(coarse.begin(), coarse.end()),
            std::move(named)};
  }

  // The query_path_over view.
  NodeId root() const { return 0; }
  std::vector<NodeId> parents(NodeId n) const {
    std::vector<NodeId> ps;
    for (const auto& [link, pl] : links_) {
      if (link.to == n) ps.push_back(link.from);
    }
    std::sort(ps.begin(), ps.end());
    return ps;
  }
  const PermissionList* plist(NodeId from, NodeId to) const {
    const auto it = links_.find(DirectedLink{from, to});
    return it != links_.end() ? &it->second : nullptr;
  }

  const std::map<DirectedLink, PermissionList>& links() const {
    return links_;
  }
  const std::set<NodeId>& dests() const { return dests_; }

 private:
  std::map<DirectedLink, PermissionList> links_;
  std::set<NodeId> dests_;
};

/// Asserts `g` holds exactly `ref`'s links, lists, marks and walks.
void expect_same_graph(const PGraph& g, const ReferenceGraph& ref) {
  std::map<DirectedLink, PermissionList> links;
  for (const auto& [link, plist] : g.links()) {
    ASSERT_TRUE(links.emplace(link, plist).second) << "link yielded twice";
  }
  ASSERT_EQ(links, ref.links());
  ASSERT_EQ(g.num_links(), ref.links().size());
  std::size_t listed = 0;
  for (const auto& [link, pl] : ref.links()) {
    ASSERT_TRUE(g.has_link(link.from, link.to));
    const PermissionList* stored = g.plist(link.from, link.to);
    ASSERT_EQ(stored != nullptr, !pl.empty());
    if (stored != nullptr) {
      ASSERT_EQ(*stored, pl);
      ++listed;
    }
  }
  ASSERT_EQ(g.plist_map().size(), listed);
  ASSERT_EQ(std::set<NodeId>(g.destinations().begin(), g.destinations().end()),
            ref.dests());
  for (NodeId dest = 0; dest <= RandomDeltas::kSelf; ++dest) {
    const Walk got = walk_of(g, dest);
    Walk want;
    want.status = query_path_over(ref, PathQuery{dest, &want.chain}, want.path);
    ASSERT_EQ(got, want) << "walk of " << dest;
  }
}

TEST(ApplyDelta, MatchesAReferenceThatStoresEveryLink) {
  RandomDeltas stream;
  for (int trial = 0; trial < RandomDeltas::kTrials; ++trial) {
    PGraph g(0);
    ReferenceGraph ref;
    const GraphDelta init = stream.initial();
    apply_delta(g, init, RandomDeltas::kSelf);
    ref.apply(init, RandomDeltas::kSelf, nullptr);
    ASSERT_NO_FATAL_FAILURE(expect_same_graph(g, ref)) << "trial " << trial;
    for (int step = 0; step < RandomDeltas::kSteps; ++step) {
      const GraphDelta delta = stream.next(g);
      DeltaReport report;
      apply_delta(g, delta, RandomDeltas::kSelf, stream.import_filter,
                  &report);
      const auto [coarse, named] =
          ref.apply(delta, RandomDeltas::kSelf, stream.import_filter);
      ASSERT_EQ(report.coarse, coarse) << "trial " << trial << " step " << step;
      const std::set<std::pair<NodeId, NodeId>> got_named(
          report.named.begin(), report.named.end());
      ASSERT_EQ(got_named, named) << "trial " << trial << " step " << step;
      ASSERT_EQ(report.named.size(), named.size());
      ASSERT_NO_FATAL_FAILURE(expect_same_graph(g, ref))
          << "trial " << trial << " step " << step;
    }
  }
}

TEST(GraphDelta, ByteSizeIsExactEncodedLength) {
  GraphDelta d;
  // Empty delta: version + flags + four zero section counts.
  EXPECT_EQ(d.byte_size(false), 6u);
  EXPECT_EQ(d.byte_size(true), 6u);

  PermissionList p;
  p.add(1, 2);
  d.upserts.emplace_back(DirectedLink{A, B}, p);
  d.removes.push_back(DirectedLink{B, C});
  d.dest_adds.push_back(D);
  d.reset = true;
  for (const bool bloom : {false, true}) {
    const auto buf = wire::encode(
        d, bloom ? wire::PlistEncoding::kBloom : wire::PlistEncoding::kExplicit);
    EXPECT_EQ(d.byte_size(bloom), buf.size()) << "bloom=" << bloom;
  }
  // Tiny destination lists: the Bloom encoding's fixed-size filters lose.
  EXPECT_GT(d.byte_size(true), d.byte_size(false));
}

// ---------------------------------------------------------- PendingDelta --

PermissionList plist_of(NodeId dest, NodeId next) {
  PermissionList p;
  p.add(dest, next);
  return p;
}

TEST(PendingDelta, AddThenRemoveCancels) {
  PendingDelta pending;
  pending.record_upsert(DirectedLink{A, B}, plist_of(1, 2),
                        /*receiver_has_link=*/false);
  pending.record_remove(DirectedLink{A, B});
  EXPECT_TRUE(pending.empty());
  EXPECT_TRUE(pending.take().empty());
}

TEST(PendingDelta, ChangeThenRemoveCollapsesToRemove) {
  PendingDelta pending;
  pending.record_upsert(DirectedLink{A, B}, plist_of(1, 2),
                        /*receiver_has_link=*/true);
  pending.record_remove(DirectedLink{A, B});
  const GraphDelta d = pending.take();
  EXPECT_TRUE(d.upserts.empty());
  ASSERT_EQ(d.removes.size(), 1u);
  EXPECT_EQ(d.removes[0], (DirectedLink{A, B}));
}

TEST(PendingDelta, RemoveThenReAddBecomesUpsert) {
  PendingDelta pending;
  pending.record_remove(DirectedLink{A, B});
  pending.record_upsert(DirectedLink{A, B}, plist_of(3, 4),
                        /*receiver_has_link=*/false);
  const GraphDelta d = pending.take();
  EXPECT_TRUE(d.removes.empty());
  ASSERT_EQ(d.upserts.size(), 1u);
  EXPECT_TRUE(d.upserts[0].second.permits(3, 4));
}

TEST(PendingDelta, LatestPlistWins) {
  PendingDelta pending;
  pending.record_upsert(DirectedLink{A, B}, plist_of(1, 2), false);
  pending.record_upsert(DirectedLink{A, B}, plist_of(3, 4), true);
  const GraphDelta d = pending.take();
  ASSERT_EQ(d.upserts.size(), 1u);
  EXPECT_TRUE(d.upserts[0].second.permits(3, 4));
  EXPECT_FALSE(d.upserts[0].second.permits(1, 2));
}

TEST(PendingDelta, DestAddRemoveCancelsBothOrders) {
  PendingDelta pending;
  pending.record_dest_add(D);
  pending.record_dest_remove(D);
  EXPECT_TRUE(pending.empty());
  pending.record_dest_remove(Dp);
  pending.record_dest_add(Dp);
  EXPECT_TRUE(pending.empty());
}

TEST(PendingDelta, TakeYieldsCanonicalSortedSectionsAndClears) {
  PendingDelta pending;
  pending.record_upsert(DirectedLink{C, D}, plist_of(1, 2), false);
  pending.record_upsert(DirectedLink{A, B}, plist_of(3, 4), false);
  pending.record_remove(DirectedLink{B, C});
  pending.record_dest_add(Dp);
  pending.record_dest_add(D);
  const GraphDelta d = pending.take();
  ASSERT_EQ(d.upserts.size(), 2u);
  EXPECT_EQ(d.upserts[0].first, (DirectedLink{A, B}));
  EXPECT_EQ(d.upserts[1].first, (DirectedLink{C, D}));
  ASSERT_EQ(d.removes.size(), 1u);
  EXPECT_EQ(d.dest_adds, (std::vector<NodeId>{D, Dp}));
  EXPECT_TRUE(pending.empty());
  EXPECT_TRUE(pending.take().empty());
}

}  // namespace
}  // namespace centaur::core

namespace centaur::core {
namespace {

// The paper's Claim 2 (S6.2): Centaur's P-graphs and Permission Lists carry
// exactly the same routing information as the equivalent selective
// path-vector set.  Constructively: derive the path set from an announced
// P-graph, run BuildGraph over it, and recover an equivalent announcement.
TEST(Privacy, PathVectorAndPGraphAreInterconvertible) {
  const PGraph local = build_local_pgraph(
      2, std::map<NodeId, Path>{{2, {2}}, {0, {2, 0}}, {1, {2, 0, 1}},
                                {3, {2, 0, 1, 3}}, {4, {2, 3, 4}}});
  const ExportedView announced =
      make_export_view(local, [](NodeId) { return true; });

  // Receiver side: assemble the P-graph, derive the full path set — this
  // is the "path vector" view of the same information.
  PGraph assembled(2);
  apply_delta(assembled, diff_views(ExportedView{}, announced), /*self=*/9);
  std::map<NodeId, Path> path_vectors;
  for (const NodeId dest : assembled.destinations()) {
    const PathResult p = query_path(assembled, {dest});
    ASSERT_TRUE(p.found()) << dest;
    path_vectors[dest] = p.path;
  }

  // Claim 2's construction: BuildGraph over the path-vector set recovers
  // the same links, destination marks, and Permission Lists.
  const PGraph rebuilt = build_local_pgraph(2, path_vectors);
  const ExportedView reannounced =
      make_export_view(rebuilt, [](NodeId) { return true; });
  EXPECT_EQ(announced, reannounced);
}

}  // namespace
}  // namespace centaur::core
