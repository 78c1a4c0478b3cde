// Serving-plane tests (DESIGN.md §14): snapshot correctness against a
// from-scratch oracle, snapshot lifetimes (the sanitize CI job runs this
// binary under ASan/UBSan), RCU swap linearizability (the tsan CI job runs
// it too), k-path enumeration properties, the unified self-destination
// contract across every query entry point, cross-thread-count bit-identity
// of query answers, and engine answers matching each node's live P-graph,
// across a crash/restart too.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "centaur/centaur_node.hpp"
#include "centaur/query.hpp"
#include "eval/experiments.hpp"
#include "eval/static_eval.hpp"
#include "faults/campaign.hpp"
#include "faults/fault_script.hpp"
#include "serve/engine.hpp"
#include "serve/query_bench.hpp"
#include "serve/query_file.hpp"
#include "serve/snapshot.hpp"
#include "topology/generator.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace centaur {
namespace {

using core::kNoNextHop;
using core::PGraph;
using serve::PGraphSnapshot;
using serve::QueryEngine;
using topo::NodeId;
using topo::Path;

/// Sets one environment variable for the duration of a scope, restoring the
/// prior value (ServeOptions samples the environment on each call).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    const std::optional<std::string> prev = util::env_string(name_);
    if (prev) saved_ = *prev;
    had_prev_ = prev.has_value();
    EXPECT_EQ(setenv(name_, value.c_str(), 1), 0);
  }
  ~ScopedEnv() {
    if (had_prev_) {
      setenv(name_, saved_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_prev_ = false;
  std::string saved_;
};

/// The paper's Figure 4 shape as a hand-built local P-graph: root 0 reaches
/// destination 3 through 1 or through 2; both links into the multi-homed
/// head 3 carry an explicit permission for 3.
PGraph diamond() {
  PGraph g(0);
  g.add_link(0, 1);
  g.add_link(0, 2);
  g.add_link(1, 3);
  g.add_link(2, 3);
  g.add_permission(1, 3, 3, kNoNextHop);
  g.add_permission(2, 3, 3, kNoNextHop);
  g.mark_destination(3);
  return g;
}

/// Diamond with a third branch 0->4->3 (three interior-disjoint paths).
PGraph triple_diamond() {
  PGraph g = diamond();
  g.add_link(0, 4);
  g.add_link(4, 3);
  g.add_permission(4, 3, 3, kNoNextHop);
  return g;
}

/// Diamond whose only permitted branch for destination 3 goes through
/// `via` (the other branch's entry does not permit 3).
PGraph diamond_via(NodeId via) {
  PGraph g(0);
  g.add_link(0, 1);
  g.add_link(0, 2);
  g.add_link(1, 3);
  g.add_link(2, 3);
  // Both links listed, exactly one permitting 3 — no unlisted fallback.
  g.add_permission(1, 3, via == 1 ? NodeId{3} : NodeId{99}, kNoNextHop);
  g.add_permission(2, 3, via == 2 ? NodeId{3} : NodeId{99}, kNoNextHop);
  g.mark_destination(3);
  return g;
}

/// A snapshot of `g` built from scratch: a fresh builder's first publish
/// reads the whole graph (the oracle the delta publishes are checked
/// against).
std::shared_ptr<const PGraphSnapshot> from_scratch(const PGraph& g) {
  return serve::SnapshotBuilder().publish(g, {}, {});
}

/// Policy-compliance predicate for an enumerated path root..dest: every hop
/// must be a real in-link, and at multi-homed heads the hop must be either
/// explicitly permitted for (dest, next-hop-of-head) or the unique unlisted
/// default (paper Table 1 / Figure 4(c)).
template <typename View>
bool policy_compliant(const View& g, const Path& path, NodeId dest) {
  if (path.empty() || path.front() != g.root() || path.back() != dest) {
    return false;
  }
  for (std::size_t j = 1; j < path.size(); ++j) {
    const NodeId from = path[j - 1];
    const NodeId to = path[j];
    const auto& ps = g.parents(to);
    if (std::find(ps.begin(), ps.end(), from) == ps.end()) return false;
    if (ps.size() <= 1) continue;
    const NodeId came_from = (j + 1 < path.size()) ? path[j + 1] : kNoNextHop;
    const core::PermissionList* pl = g.plist(from, to);
    if (pl != nullptr && !pl->empty()) {
      if (!pl->permits(dest, came_from)) return false;
      continue;
    }
    // Fallback hop: `from` must be the *unique* unlisted in-link of `to`.
    std::size_t unlisted = 0;
    for (const NodeId p : ps) {
      const core::PermissionList* q = g.plist(p, to);
      if (q == nullptr || q->empty()) ++unlisted;
    }
    if (unlisted != 1) return false;
  }
  return true;
}

// --------------------------------------------------------------- snapshots --

TEST(Snapshot, FullMatchesLiveGraph) {
  PGraph g = diamond();
  // BuildGraph records a list on every link; DerivePath reads it only at a
  // multi-homed head, and so does the snapshot.
  g.add_permission(0, 1, 3, 3);
  const auto snap = from_scratch(g);

  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->root(), 0u);
  EXPECT_EQ(snap->version(), 1u);
  EXPECT_TRUE(snap->is_destination(3));
  EXPECT_FALSE(snap->is_destination(1));

  for (NodeId n = 0; n <= 3; ++n) {
    const PGraph::AdjList& live = g.parents(n);
    const auto frozen = snap->parents(n);
    ASSERT_EQ(live.size(), frozen.size()) << n;
    EXPECT_TRUE(std::equal(live.begin(), live.end(), frozen.begin())) << n;
  }
  EXPECT_NE(snap->plist(1, 3), nullptr);
  EXPECT_TRUE(snap->plist(1, 3)->permits(3, kNoNextHop));
  EXPECT_EQ(snap->plist(0, 3), nullptr);
  EXPECT_EQ(snap->plist(0, 1), nullptr);  // single-homed head

  Path from_snap, from_live;
  EXPECT_EQ(core::query_path_over(*snap, core::PathQuery{3}, from_snap),
            core::PathStatus::kFound);
  EXPECT_EQ(core::query_path_over(core::PGraphView{&g}, core::PathQuery{3},
                                  from_live),
            core::PathStatus::kFound);
  EXPECT_EQ(from_snap, from_live);
}

TEST(Snapshot, DeltaOverlayTracksChangesAndShadowsEmptyNodes) {
  PGraph g = diamond();
  serve::SnapshotBuilder builder;
  const auto v1 = builder.publish(g, {}, {});

  // Retract 1->3: only node 3's in-links are dirty.
  g.remove_link(1, 3);
  const auto v2 = builder.publish(g, {3}, {{1, 3}});
  EXPECT_EQ(v2->version(), 2u);
  ASSERT_EQ(v2->parents(3).size(), 1u);
  EXPECT_EQ(v2->parents(3).front(), 2u);
  // The predecessor is untouched (immutability / structural sharing).
  EXPECT_EQ(v1->parents(3).size(), 2u);

  Path p;
  ASSERT_EQ(core::query_path_over(*v2, core::PathQuery{3}, p),
            core::PathStatus::kFound);
  EXPECT_EQ(p, (Path{0, 2, 3}));

  // Retract the last in-link: node 3 must read as link-less, not keep the
  // predecessor's slot.
  g.remove_link(2, 3);
  g.unmark_destination(3);
  const auto v3 = builder.publish(g, {3}, {{2, 3}});
  EXPECT_TRUE(v3->parents(3).empty());
  EXPECT_FALSE(v3->is_destination(3));
  EXPECT_EQ(core::query_path_over(*v3, core::PathQuery{3}, p),
            core::PathStatus::kUnreachable);
  // Untouched nodes still resolve through the shared tree.
  EXPECT_EQ(v3->parents(1).size(), 1u);
}

/// Ids on both sides of the radix tree's height boundaries (32, 1,024 and
/// 32,768 ids), ascending: a random graph over a growing prefix grows the
/// tree's height as it goes.
constexpr NodeId kBoundaryIds[] = {0,    1,    2,     3,     4,     5,
                                   30,   31,   32,    33,    1022,  1023,
                                   1024, 1025, 32766, 32767, 32768, 32769};

/// Expects `snap` to present exactly `g` over `ids`: parents, the
/// Permission Lists at multi-homed heads (nullptr at every other head) and
/// the destination marks.
void expect_frozen(const PGraphSnapshot& snap, const PGraph& g,
                   std::span<const NodeId> ids) {
  EXPECT_EQ(snap.root(), g.root());
  for (const NodeId n : ids) {
    const PGraph::AdjList& live = g.parents(n);
    const auto frozen = snap.parents(n);
    ASSERT_TRUE(std::equal(live.begin(), live.end(), frozen.begin(),
                           frozen.end()))
        << n;
    EXPECT_EQ(snap.is_destination(n), g.is_destination(n)) << n;
    for (const NodeId p : live) {
      const core::PermissionList* pl = snap.plist(p, n);
      if (live.size() < 2) {
        EXPECT_EQ(pl, nullptr) << p << "->" << n;
        continue;
      }
      ASSERT_NE(pl, nullptr) << p << "->" << n;
      const core::PermissionList* stored = g.plist(p, n);
      EXPECT_EQ(*pl, stored != nullptr ? *stored : core::PermissionList{})
          << p << "->" << n;
    }
  }
  // Ids past every leaf read as absent, whatever the tree's height.
  for (const NodeId n : {NodeId{40000}, NodeId{1} << 20, NodeId{0xFFFFFFF0}}) {
    EXPECT_TRUE(snap.parents(n).empty()) << n;
    EXPECT_FALSE(snap.is_destination(n)) << n;
  }
}

/// Expects the walks over two views to answer alike for every destination
/// in `ids`: DerivePath, k paths and the disjoint count.
template <typename ViewA, typename ViewB>
void expect_same_answers(const ViewA& a, const ViewB& b,
                         std::span<const NodeId> ids) {
  for (const NodeId d : ids) {
    Path pa, pb;
    EXPECT_EQ(core::query_path_over(a, core::PathQuery{d}, pa),
              core::query_path_over(b, core::PathQuery{d}, pb))
        << d;
    EXPECT_EQ(pa, pb) << d;
    const core::KPathResult ka = core::query_k_paths(a, d, 4);
    const core::KPathResult kb = core::query_k_paths(b, d, 4);
    EXPECT_EQ(ka.paths, kb.paths) << d;
    EXPECT_EQ(ka.truncated, kb.truncated) << d;
    EXPECT_EQ(core::disjoint_path_count(a, d),
              core::disjoint_path_count(b, d))
        << d;
  }
}

/// Random P-graph mutations over a prefix of kBoundaryIds, recording the
/// dirty sets the protocol would hand the publisher.  A link runs from a
/// lower to a higher position in the id list, so the graph stays acyclic
/// and rooted at id 0.
class Mutator {
 public:
  Mutator(PGraph& g, std::uint64_t seed) : g_(g), rng_(seed) {}

  std::vector<NodeId> changed_dests;
  std::vector<core::DirectedLink> touched;

  /// One to three mutations among the first `live` ids.
  void step(std::size_t live) {
    changed_dests.clear();
    touched.clear();
    const std::size_t mutations = 1 + rng_.index(3);
    for (std::size_t i = 0; i < mutations; ++i) mutate(live);
  }

 private:
  NodeId any(std::size_t live) { return kBoundaryIds[rng_.index(live)]; }

  static std::size_t position(NodeId n) {
    return static_cast<std::size_t>(
        std::find(std::begin(kBoundaryIds), std::end(kBoundaryIds), n) -
        std::begin(kBoundaryIds));
  }

  void add(NodeId from, NodeId to, std::size_t live) {
    g_.add_link(from, to);
    if (rng_.chance(0.6)) {
      g_.add_permission(from, to, any(live),
                        rng_.chance(0.5) ? kNoNextHop : any(live));
    }
    touched.push_back({from, to});
  }

  void remove(NodeId from, NodeId to) {
    g_.remove_link(from, to);
    touched.push_back({from, to});
  }

  void mutate(std::size_t live) {
    std::vector<core::DirectedLink> links;
    for (const auto& [link, plist] : g_.links()) links.push_back(link);
    std::sort(links.begin(), links.end(), [](const auto& a, const auto& b) {
      return a.from != b.from ? a.from < b.from : a.to < b.to;
    });
    const core::DirectedLink picked =
        links.empty() ? core::DirectedLink{0, 0}
                      : links[rng_.index(links.size())];
    switch (links.empty() ? 0 : rng_.index(6)) {
      case 0: {  // add a link, listed or not
        const std::size_t to = 1 + rng_.index(live - 1);
        add(kBoundaryIds[rng_.index(to)], kBoundaryIds[to], live);
        break;
      }
      case 1:  // remove a link
        remove(picked.from, picked.to);
        break;
      case 2: {  // change a Permission List
        const core::PermissionList* stored = g_.plist(picked.from, picked.to);
        core::PermissionList pl =
            stored != nullptr ? *stored : core::PermissionList{};
        const NodeId dest = any(live);
        if (!pl.remove(dest, kNoNextHop)) pl.add(dest, kNoNextHop);
        g_.set_plist(picked.from, picked.to, pl);
        touched.push_back(picked);
        break;
      }
      case 3: {  // single <-> multi-homed flip at one head
        const PGraph::AdjList ps = g_.parents(picked.to);
        if (ps.size() > 1) {
          for (std::size_t i = 1; i < ps.size(); ++i) remove(ps[i], picked.to);
          break;
        }
        const std::size_t below = position(picked.to);
        if (below < 2) break;  // only the root sits below
        NodeId from = kBoundaryIds[rng_.index(below)];
        if (from == ps.front()) from = kBoundaryIds[(position(from) + 1) % below];
        add(from, picked.to, live);
        break;
      }
      case 4: {  // a head loses every in-link
        const PGraph::AdjList ps = g_.parents(picked.to);
        for (const NodeId p : ps) remove(p, picked.to);
        break;
      }
      default: {  // flip a destination mark
        const NodeId d = any(live);
        if (!g_.unmark_destination(d)) g_.mark_destination(d);
        changed_dests.push_back(d);
        break;
      }
    }
  }

  PGraph& g_;
  util::Rng rng_;
};

TEST(Snapshot, DeltaPublishesMatchFromScratchOracle) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    PGraph g(0);
    Mutator mutator(g, seed);
    serve::SnapshotBuilder builder;
    std::vector<std::pair<std::shared_ptr<const PGraphSnapshot>, PGraph>>
        history;
    history.emplace_back(builder.publish(g, {}, {}), g);
    for (std::size_t step = 0; step < 300; ++step) {
      // Larger ids join gradually, so the tree grows from one level to four
      // while it is being path-copied.
      const std::size_t live =
          std::min(std::size(kBoundaryIds), 6 + step / 20);
      mutator.step(live);
      const auto delta =
          builder.publish(g, mutator.changed_dests, mutator.touched);
      const auto oracle = from_scratch(g);
      EXPECT_EQ(delta->version(), step + 2);
      // Both match the live graph, hence each other, id by id.
      expect_frozen(*delta, g, kBoundaryIds);
      expect_frozen(*oracle, g, kBoundaryIds);
      expect_same_answers(*delta, *oracle, kBoundaryIds);
      expect_same_answers(*delta, core::PGraphView{&g}, kBoundaryIds);
      if (HasFatalFailure()) return;
      history.emplace_back(delta, g);
    }
    EXPECT_EQ(builder.full_builds(), 1u);
    // Every earlier version still reads as the graph it was published from.
    for (const auto& [snap, graph] : history) {
      expect_frozen(*snap, graph, kBoundaryIds);
      expect_same_answers(*snap, core::PGraphView{&graph}, kBoundaryIds);
    }
  }
}

/// Heads spread over many leaves and three tree levels: single-homed heads
/// under the root and multi-homed, listed, destination heads on both sides
/// of id 1,024.
PGraph wide_graph() {
  PGraph g(0);
  for (NodeId n = 1; n < 64; ++n) g.add_link(0, n);
  for (NodeId n = 1; n < 16; ++n) {
    const NodeId head = 1000 + 7 * n;
    for (const NodeId p : {n, n + 16}) {
      g.add_link(p, head);
      g.add_permission(p, head, head, kNoNextHop);
    }
    g.mark_destination(head);
  }
  return g;
}

/// Ids covering wide_graph() and its neighbourhood.
std::vector<NodeId> wide_ids() {
  std::vector<NodeId> ids(1200);
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<NodeId>(i);
  return ids;
}

/// Changes every head of `g` (a Permission-List pair on every link, the
/// mark of every head) and records the dirty sets, so the next publish
/// replaces every tree node and every SnapNode.
void churn_every_head(PGraph& g, NodeId tag, std::vector<NodeId>& dests,
                      std::vector<core::DirectedLink>& touched) {
  dests.clear();
  touched.clear();
  for (const auto& [link, plist] : g.links()) touched.push_back(link);
  for (const core::DirectedLink& link : touched) {
    g.add_permission(link.from, link.to, tag, kNoNextHop);
    dests.push_back(link.to);
  }
  std::sort(dests.begin(), dests.end());
  dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
  for (const NodeId d : dests) {
    if (!g.unmark_destination(d)) g.mark_destination(d);
  }
}

TEST(Snapshot, HeldVersionOutlivesSuccessorsDroppedInAnyOrder) {
  PGraph g = wide_graph();
  const PGraph g1 = g;
  const std::vector<NodeId> ids = wide_ids();
  auto builder = std::make_unique<serve::SnapshotBuilder>();
  std::shared_ptr<const PGraphSnapshot> v1 = builder->publish(g, {}, {});

  // Intermediate versions each change one multi-homed head and one mark,
  // so they share most of their nodes with v1 and with each other.
  std::vector<std::shared_ptr<const PGraphSnapshot>> held;
  for (NodeId round = 0; round < 12; ++round) {
    const NodeId from = 1 + round;
    const NodeId head = 1000 + 7 * from;
    g.add_permission(from, head, 5000 + round, kNoNextHop);
    g.mark_destination(from);
    held.push_back(builder->publish(g, {from}, {{from, head}}));
  }
  util::Rng rng(7);
  std::shuffle(held.begin(), held.end(), rng);
  while (!held.empty()) {
    held.pop_back();
    expect_frozen(*v1, g1, ids);
  }

  // Publish until every tree node and SnapNode v1 reaches is replaced.
  std::vector<NodeId> dests;
  std::vector<core::DirectedLink> touched;
  for (NodeId round = 0; round < 3; ++round) {
    churn_every_head(g, 6000 + round, dests, touched);
    builder->publish(g, dests, touched);
  }
  expect_frozen(*v1, g1, ids);

  // A long chain behind v1 alone: once the builder is gone, dropping v1
  // releases every successor, iteratively.
  for (int i = 0; i < 20000; ++i) {
    builder->publish(g, {}, {{0, static_cast<NodeId>(1 + i % 63)}});
  }
  builder.reset();
  expect_frozen(*v1, g1, ids);
  expect_same_answers(*v1, core::PGraphView{&g1}, ids);
  v1.reset();
}

TEST(Snapshot, RebuildKeepsNothingOfItsPredecessors) {
  // A rebuild reads only the graph it is given (a restarted protocol
  // instance's), whatever the versions before it held, and those versions
  // stay readable until their own handles drop.
  PGraph g = wide_graph();
  const PGraph g1 = g;
  const std::vector<NodeId> ids = wide_ids();
  serve::SnapshotBuilder builder;
  std::shared_ptr<const PGraphSnapshot> v1 = builder.publish(g, {}, {});
  g.add_permission(1, 1007, 5000, kNoNextHop);
  g.mark_destination(1);
  std::shared_ptr<const PGraphSnapshot> v2 =
      builder.publish(g, {1}, {{1, 1007}});

  PGraph fresh(0);
  fresh.add_link(0, 2);
  fresh.mark_destination(2);
  const PGraph fresh1 = fresh;
  const auto v3 = builder.rebuild(fresh);
  EXPECT_EQ(v3->version(), 3u);
  EXPECT_EQ(builder.full_builds(), 2u);
  expect_frozen(*v3, fresh, ids);
  expect_same_answers(*v3, core::PGraphView{&fresh}, ids);

  // Deltas after a rebuild path-copy the rebuilt tree.
  fresh.add_link(2, 1030);
  fresh.add_link(0, 1030);
  fresh.add_permission(2, 1030, 1030, kNoNextHop);
  fresh.mark_destination(1030);
  const auto v4 = builder.publish(fresh, {1030}, {{2, 1030}, {0, 1030}});
  EXPECT_EQ(builder.full_builds(), 2u);
  expect_frozen(*v4, fresh, ids);
  expect_frozen(*v3, fresh1, ids);

  // v1 shares nodes that v2 owns: dropping v2's handle first must keep
  // them alive.
  v2.reset();
  expect_frozen(*v1, g1, ids);
  expect_same_answers(*v1, core::PGraphView{&g1}, ids);
}

// --------------------------------------------------------------------- RCU --

TEST(Rcu, PinnedReaderBlocksReclamationUnpinnedDrains) {
  serve::ReaderRegistry reg(4);
  serve::SnapshotCell cell;
  serve::SnapshotBuilder builder;
  const PGraph g = diamond();

  cell.publish(builder.publish(g, {}, {}), reg);
  EXPECT_EQ(cell.retired_count(), 0u);

  {
    serve::ReadPin pin(reg);
    const PGraphSnapshot* held = cell.current();
    ASSERT_NE(held, nullptr);
    EXPECT_EQ(held->version(), 1u);

    cell.publish(builder.publish(g, {}, {}), reg);
    cell.publish(builder.publish(g, {}, {}), reg);
    // Both predecessors were retired while we were pinned: neither may be
    // freed (ASan would flag the reads below if they were).
    EXPECT_EQ(cell.retired_count(), 2u);
    EXPECT_EQ(held->version(), 1u);
    EXPECT_EQ(held->parents(3).size(), 2u);
    EXPECT_EQ(cell.current()->version(), 3u);
  }

  // Reader quiescent: the next publish reclaims the whole retire list.
  cell.publish(builder.publish(g, {}, {}), reg);
  EXPECT_EQ(cell.retired_count(), 0u);
  EXPECT_EQ(reg.min_pinned(), UINT64_MAX);
}

TEST(Rcu, ReadersNeverObserveTornState) {
  // Writer alternates between two complete snapshots whose derived paths
  // differ; concurrent readers must always see exactly one of the two
  // answers — never a mix, never a freed snapshot (tsan/asan back this up).
  const PGraph ga = diamond_via(1);
  const PGraph gb = diamond_via(2);
  const Path path_a{0, 1, 3};
  const Path path_b{0, 2, 3};

  constexpr std::size_t kReaders = 3;
  serve::ReaderRegistry reg(kReaders + 1);
  serve::SnapshotCell cell;
  serve::SnapshotBuilder builder;
  // The two graphs differ only in the lists on node 3's in-links.
  const std::vector<core::DirectedLink> touched{{1, 3}, {2, 3}};
  cell.publish(builder.publish(ga, {}, touched), reg);

  std::atomic<bool> done{false};
  std::atomic<std::size_t> reads{0};
  std::atomic<bool> torn{false};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      Path p;
      while (!done.load(std::memory_order_relaxed)) {
        serve::ReadPin pin(reg);
        const PGraphSnapshot* snap = cell.current();
        if (snap == nullptr) continue;
        if (core::query_path_over(*snap, core::PathQuery{3}, p) !=
                core::PathStatus::kFound ||
            (p != path_a && p != path_b) || !snap->is_destination(3)) {
          torn.store(true);
          return;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Keep publishing until every reader has raced at least a few answers
  // (a fixed publish count can finish before the readers are scheduled).
  for (int i = 0; i < 800 || reads.load(std::memory_order_relaxed) <
                                 kReaders * 8;
       ++i) {
    if (torn.load()) break;
    cell.publish(builder.publish((i % 2 == 0) ? gb : ga, {}, touched), reg);
  }
  done.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_FALSE(torn.load());
  EXPECT_GT(reads.load(), 0u);
  // With every reader quiescent one more publish drains the retire list.
  cell.publish(builder.publish(ga, {}, touched), reg);
  EXPECT_EQ(cell.retired_count(), 0u);
}

TEST(Rcu, PinnedReaderKeepsItsVersionWhileEveryNodeIsReplaced) {
  serve::ReaderRegistry reg(2);
  serve::SnapshotCell cell;
  serve::SnapshotBuilder builder;
  PGraph g = wide_graph();
  const PGraph g1 = g;
  const std::vector<NodeId> ids = wide_ids();
  cell.publish(builder.publish(g, {}, {}), reg);

  std::vector<NodeId> dests;
  std::vector<core::DirectedLink> touched;
  {
    serve::ReadPin pin(reg);
    const PGraphSnapshot* held = cell.current();
    for (NodeId round = 0; round < 8; ++round) {
      churn_every_head(g, 5000 + round, dests, touched);
      cell.publish(builder.publish(g, dests, touched), reg);
    }
    // Every node `held` reaches has been replaced, and nothing retired since
    // the pin may be freed yet.
    EXPECT_EQ(cell.retired_count(), 8u);
    expect_frozen(*held, g1, ids);
  }

  // Unpinned: one publish drains the retire list.
  cell.publish(builder.publish(g, {}, {}), reg);
  EXPECT_EQ(cell.retired_count(), 0u);
  expect_frozen(*cell.current(), g, ids);
}

// ----------------------------------------------------------------- k paths --

TEST(KPaths, CanonicalFirstSortedDistinctAndCompliant) {
  const PGraph g = triple_diamond();
  const core::PGraphView view{&g};

  const core::KPathResult kp = core::query_k_paths(view, 3, 8);
  ASSERT_EQ(kp.paths.size(), 3u);
  EXPECT_FALSE(kp.truncated);

  // paths[0] is exactly DerivePath.
  const core::PathResult canonical = core::query_path(g, {3});
  ASSERT_TRUE(canonical.found());
  EXPECT_EQ(kp.paths[0], canonical.path);

  for (const Path& p : kp.paths) {
    EXPECT_TRUE(policy_compliant(view, p, 3)) << ::testing::PrintToString(p);
  }
  // Alternates sorted by (length, lex), no duplicates anywhere.
  for (std::size_t i = 2; i < kp.paths.size(); ++i) {
    const Path& a = kp.paths[i - 1];
    const Path& b = kp.paths[i];
    EXPECT_TRUE(a.size() < b.size() || (a.size() == b.size() && a < b));
  }
  for (std::size_t i = 0; i < kp.paths.size(); ++i) {
    for (std::size_t j = i + 1; j < kp.paths.size(); ++j) {
      EXPECT_NE(kp.paths[i], kp.paths[j]);
    }
  }

  // k truncates the alternates, keeps the canonical head.
  const core::KPathResult k1 = core::query_k_paths(view, 3, 1);
  ASSERT_EQ(k1.paths.size(), 1u);
  EXPECT_EQ(k1.paths[0], canonical.path);

  EXPECT_EQ(core::disjoint_path_count(view, 3), 3u);
}

TEST(KPaths, ExpansionBudgetSetsTruncated) {
  const PGraph g = triple_diamond();
  const core::PGraphView view{&g};
  const core::KPathResult kp =
      core::query_k_paths(view, 3, 8, /*max_expansions=*/2);
  EXPECT_TRUE(kp.truncated);
  EXPECT_LE(kp.paths.size(), 1u);
}

TEST(KPaths, UnreachableAndSinglePathShapes) {
  PGraph g = diamond_via(1);
  const core::PGraphView view{&g};
  // Exactly one permitted branch -> exactly one path; the impermissible
  // branch must not appear as an alternate.
  const core::KPathResult kp = core::query_k_paths(view, 3, 8);
  ASSERT_EQ(kp.paths.size(), 1u);
  EXPECT_EQ(kp.paths[0], (Path{0, 1, 3}));
  EXPECT_EQ(core::disjoint_path_count(view, 3), 1u);

  // Destination with no in-links: unreachable, count 0.
  g.mark_destination(9);
  EXPECT_TRUE(core::query_k_paths(view, 9, 4).paths.empty());
  EXPECT_EQ(core::disjoint_path_count(view, 9), 0u);
}

TEST(KPaths, MatchesDerivePathOnConvergedNodeGraphs) {
  // On every converged per-vantage P-graph, k=1 enumeration and the
  // canonical head of k=4 must agree with DerivePath (query_path) for
  // every destination.
  util::Rng rng(21);
  const topo::AsGraph g = topo::brite_like(18, 2, 4, rng);
  for (NodeId vantage = 0; vantage < g.num_nodes(); vantage += 5) {
    const PGraph pg = eval::build_node_pgraph(g, vantage);
    const core::PGraphView view{&pg};
    for (NodeId dest = 0; dest < g.num_nodes(); ++dest) {
      const core::PathResult derived = core::query_path(pg, {dest});
      const core::KPathResult kp = core::query_k_paths(view, dest, 4);
      if (derived.found()) {
        ASSERT_FALSE(kp.paths.empty()) << vantage << "->" << dest;
        EXPECT_EQ(kp.paths[0], derived.path) << vantage << "->" << dest;
        for (const Path& p : kp.paths) {
          EXPECT_TRUE(policy_compliant(view, p, dest))
              << vantage << "->" << dest;
        }
      } else {
        EXPECT_TRUE(kp.paths.empty()) << vantage << "->" << dest;
      }
    }
  }
}

// ------------------------------------------------- self-destination contract --

TEST(SelfDestination, UnifiedAcrossEveryEntryPoint) {
  const PGraph g = diamond();

  // Buffer-reuse form, with the walk capture.
  Path out{7, 7, 7};  // dirty buffer: must be replaced, not appended
  std::vector<NodeId> visited;
  EXPECT_EQ(core::query_path_into(g, core::PathQuery{0, &visited}, out),
            core::PathStatus::kFound);
  EXPECT_EQ(out, Path{0});
  EXPECT_EQ(visited, std::vector<NodeId>{0});

  // Allocating form.
  const core::PathResult r = core::query_path(g, core::PathQuery{0});
  EXPECT_TRUE(r.found());
  EXPECT_EQ(r.path, Path{0});

  // Snapshot view + k paths.
  const auto snap = from_scratch(g);
  Path p;
  EXPECT_EQ(core::query_path_over(*snap, core::PathQuery{0}, p),
            core::PathStatus::kFound);
  EXPECT_EQ(p, Path{0});
  const core::KPathResult kp = core::query_k_paths(*snap, 0, 4);
  ASSERT_EQ(kp.paths.size(), 1u);
  EXPECT_EQ(kp.paths[0], Path{0});
  EXPECT_EQ(core::disjoint_path_count(*snap, 0), 1u);

  // Engine: src == dst answers {src} even though src is no marked
  // destination.
  eval::ServeOptions opts;
  QueryEngine engine(4, opts);
  engine.publish(0, g, {3}, {{1, 3}, {2, 3}});
  const QueryEngine::QueryResult qr = engine.query(0, 0);
  EXPECT_EQ(qr.status, QueryEngine::QueryStatus::kOk);
  ASSERT_EQ(qr.paths.size(), 1u);
  EXPECT_EQ(qr.paths[0], Path{0});
  EXPECT_EQ(qr.disjoint, 1u);
}

// -------------------------------------------------------------- QueryEngine --

TEST(QueryEngine, StatusesCoverTheContract) {
  eval::ServeOptions opts;
  QueryEngine engine(4, opts);

  // Before the first publish: no snapshot, including out-of-range ids.
  EXPECT_EQ(engine.query(0, 3).status, QueryEngine::QueryStatus::kNoSnapshot);
  EXPECT_EQ(engine.query(99, 3).status,
            QueryEngine::QueryStatus::kNoSnapshot);

  PGraph g = diamond();
  g.mark_destination(9);  // marked but link-less -> unreachable
  engine.publish(0, g, {3, 9}, {{1, 3}, {2, 3}});

  const QueryEngine::QueryResult ok = engine.query(0, 3);
  EXPECT_EQ(ok.status, QueryEngine::QueryStatus::kOk);
  ASSERT_EQ(ok.paths.size(), 2u);
  EXPECT_EQ(ok.paths[0], core::query_path(g, {3}).path);
  EXPECT_EQ(ok.paths[1], (Path{0, 2, 3}));
  EXPECT_EQ(ok.disjoint, 2u);
  EXPECT_EQ(ok.version, 1u);
  EXPECT_FALSE(ok.truncated);

  EXPECT_EQ(engine.query(0, 2).status,
            QueryEngine::QueryStatus::kNotDestination);
  EXPECT_EQ(engine.query(0, 9).status,
            QueryEngine::QueryStatus::kUnreachable);
  // Other nodes have not published.
  EXPECT_EQ(engine.query(1, 3).status,
            QueryEngine::QueryStatus::kNoSnapshot);

  // k=1 narrows the answer; the engine default (query_k) applies at k=0.
  EXPECT_EQ(engine.query(0, 3, 1).paths.size(), 1u);
  EXPECT_EQ(engine.query(0, 3).paths.size(), 2u);

  const QueryEngine::PublishStats stats = engine.publish_stats();
  EXPECT_EQ(stats.publishes, 1u);
  EXPECT_EQ(stats.cells_live, 1u);
}

TEST(QueryEngine, EvaluateQueriesBitIdenticalAcrossThreadCounts) {
  util::Rng rng(5);
  const topo::AsGraph g = topo::brite_like(16, 2, 4, rng);
  eval::ServeOptions opts;
  QueryEngine engine(g.num_nodes(), opts);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    engine.publish(v, eval::build_node_pgraph(g, v), {}, {});
  }

  const std::vector<serve::QuerySpec> specs =
      serve::canonical_queries(g.num_nodes(), 0xBEEF, 48);
  serve::EvalTotals t1, t4;
  const std::vector<std::string> serial =
      serve::evaluate_queries(engine, specs, 1, &t1);
  const std::vector<std::string> threaded =
      serve::evaluate_queries(engine, specs, 4, &t4);
  ASSERT_EQ(serial.size(), specs.size());
  EXPECT_EQ(serial, threaded);
  EXPECT_EQ(t1.found, t4.found);
  EXPECT_EQ(t1.total_hops, t4.total_hops);
  EXPECT_EQ(t1.found + t1.unreachable + t1.not_destination + t1.no_snapshot,
            specs.size());
  EXPECT_GT(t1.found, 0u);
}

/// Expects every answer the engine serves at `src` to match `live`, the
/// P-graph of src's current protocol instance: the marks, DerivePath as the
/// first path, and for k in {1, 2, 4} the k paths, `truncated` and the
/// disjoint count enumerated over the live graph.
void expect_engine_serves(const QueryEngine& engine, NodeId src,
                          const PGraph& live, std::size_t num_nodes) {
  const core::PGraphView view{&live};
  for (NodeId dst = 0; dst < num_nodes; ++dst) {
    for (const std::size_t k : {1u, 2u, 4u}) {
      const QueryEngine::QueryResult qr = engine.query(src, dst, k);
      if (dst == src) {
        EXPECT_EQ(qr.status, QueryEngine::QueryStatus::kOk);
        EXPECT_EQ(qr.paths, std::vector<Path>{Path{src}});
        continue;
      }
      if (!live.is_destination(dst)) {
        EXPECT_EQ(qr.status, QueryEngine::QueryStatus::kNotDestination)
            << src << "->" << dst;
        continue;
      }
      const core::PathResult derived =
          core::query_path(live, core::PathQuery{dst});
      const core::KPathResult kp = core::query_k_paths(view, dst, k);
      EXPECT_EQ(qr.truncated, kp.truncated) << src << "->" << dst;
      if (!derived.found()) {
        EXPECT_EQ(qr.status, QueryEngine::QueryStatus::kUnreachable)
            << src << "->" << dst;
        EXPECT_TRUE(kp.paths.empty()) << src << "->" << dst;
        continue;
      }
      EXPECT_EQ(qr.status, QueryEngine::QueryStatus::kOk)
          << src << "->" << dst;
      ASSERT_FALSE(qr.paths.empty()) << src << "->" << dst;
      EXPECT_EQ(qr.paths.front(), derived.path) << src << "->" << dst;
      EXPECT_EQ(qr.paths, kp.paths) << src << "->" << dst << " k=" << k;
      EXPECT_EQ(qr.disjoint, core::disjoint_path_count(view, dst))
          << src << "->" << dst;
    }
  }
}

TEST(QueryEngine, ServesProtocolStateThroughTheSink) {
  // End-to-end: a Centaur run publishes through the sink; after convergence
  // every engine answer must match the owning node's live P-graph.
  util::Rng rng(11);
  const topo::AsGraph g = topo::brite_like(20, 2, 4, rng);
  eval::ServeOptions opts;
  QueryEngine engine(g.num_nodes(), opts);
  eval::RunOptions run_opts;
  run_opts.centaur_snapshot_sink = engine.make_sink();
  util::Rng run_rng(12);
  eval::ProtocolRun run(g, eval::Protocol::kCentaur, run_rng, run_opts);
  run.flip(0, false);
  run.flip(0, true);

  const QueryEngine::PublishStats stats = engine.publish_stats();
  EXPECT_EQ(stats.cells_live, g.num_nodes());
  EXPECT_GT(stats.publishes, g.num_nodes());
  EXPECT_EQ(stats.full_builds, g.num_nodes());

  for (NodeId src = 0; src < g.num_nodes(); ++src) {
    const auto& node =
        dynamic_cast<const core::CentaurNode&>(run.network().node(src));
    expect_engine_serves(engine, src, node.local_pgraph(), g.num_nodes());
  }
}

TEST(QueryEngine, RestartedNodeRepublishesFromScratch) {
  // A crash/restart attaches a fresh protocol instance to the same engine
  // cell, and its first publish must replace the whole snapshot.  Here a
  // destination the crashed instance marked loses every link while the
  // node is down; the restarted node must stop serving it.
  util::Rng rng(11);
  const topo::AsGraph g = topo::brite_like(20, 2, 4, rng);
  QueryEngine engine(g.num_nodes(), eval::ServeOptions{});
  eval::RunOptions run_opts;
  run_opts.centaur_snapshot_sink = engine.make_sink();
  util::Rng run_rng(12);
  eval::ProtocolRun run(g, eval::Protocol::kCentaur, run_rng, run_opts);
  const auto centaur = [&run](NodeId v) {
    return dynamic_cast<const core::CentaurNode*>(&run.network().node(v));
  };

  // The crashing node x and a destination d it serves, not adjacent to x,
  // so cutting d's links leaves the links x's crash takes down alone.
  const NodeId x = 0;
  NodeId d = 1;
  while (d < g.num_nodes() &&
         (g.has_link(x, d) ||
          !centaur(x)->local_pgraph().is_destination(d))) {
    ++d;
  }
  ASSERT_LT(d, g.num_nodes());
  ASSERT_EQ(engine.query(x, d).status, QueryEngine::QueryStatus::kOk);

  faults::FaultScript script;
  script.phases.push_back({"crash", {faults::FaultAction::node_crash(x)}});
  faults::FaultPhase cut{"cut", {}};
  for (const topo::Neighbor& nb : g.neighbors(d)) {
    cut.actions.push_back(faults::FaultAction::link_down(nb.link));
  }
  script.phases.push_back(cut);
  script.phases.push_back({"restart", {faults::FaultAction::node_restart(x)}});
  script.validate(run.graph());

  faults::CampaignEngine campaign(run);
  for (const faults::FaultPhase& phase : script.phases) {
    SCOPED_TRACE(phase.name);
    campaign.run_phase(script, phase);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const core::CentaurNode* node = centaur(v);
      if (node == nullptr) continue;  // crashed: no live graph to match
      expect_engine_serves(engine, v, node->local_pgraph(), g.num_nodes());
    }
  }
  EXPECT_EQ(engine.query(x, d).status,
            QueryEngine::QueryStatus::kNotDestination);
  // One build from scratch per protocol instance that published.
  EXPECT_EQ(engine.publish_stats().full_builds, g.num_nodes() + 1);
}

// ------------------------------------------------------------- ServeOptions --

TEST(ServeOptions, EnvParsingIsStrict) {
  util::reset_warn_once_for_testing();
  {
    ScopedEnv k("CENTAUR_QUERY_K", "7");
    ScopedEnv t("CENTAUR_SERVE_THREADS", "2");
    const eval::ServeOptions opts = eval::serve_options_from_env();
    EXPECT_EQ(opts.query_k, 7u);
    EXPECT_EQ(opts.query_threads, 2u);
  }
  {
    // Garbage falls back to the defaults (and warns once, not asserted
    // here).
    ScopedEnv k("CENTAUR_QUERY_K", "4x");
    ScopedEnv t("CENTAUR_SERVE_THREADS", "0");
    const eval::ServeOptions opts = eval::serve_options_from_env();
    EXPECT_EQ(opts.query_k, 4u);
    EXPECT_EQ(opts.query_threads, 1u);  // numeric but < 1 clamps to 1
  }
  util::reset_warn_once_for_testing();
}

// --------------------------------------------------------------- query file --

TEST(QueryFile, ParsesTheDocumentedFormat) {
  const std::vector<serve::QuerySpec> specs = serve::parse_queries_json(
      R"({"queries": [{"src": 0, "dst": 5}, {"src": 3, "dst": 5, "k": 8}]})");
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].src, 0u);
  EXPECT_EQ(specs[0].dst, 5u);
  EXPECT_EQ(specs[0].k, 0u);  // absent -> engine default
  EXPECT_EQ(specs[1].src, 3u);
  EXPECT_EQ(specs[1].k, 8u);
}

TEST(QueryFile, RejectsMalformedDocuments) {
  EXPECT_THROW(serve::parse_queries_json("[]"), std::runtime_error);
  EXPECT_THROW(serve::parse_queries_json(R"({"queries": 3})"),
               std::runtime_error);
  EXPECT_THROW(  // unknown top-level key
      serve::parse_queries_json(R"({"queries": [], "extra": 1})"),
      std::runtime_error);
  EXPECT_THROW(  // unknown entry key
      serve::parse_queries_json(
          R"({"queries": [{"src": 0, "dst": 1, "hops": 2}]})"),
      std::runtime_error);
  EXPECT_THROW(  // missing src
      serve::parse_queries_json(R"({"queries": [{"dst": 1}]})"),
      std::runtime_error);
  EXPECT_THROW(  // non-integer id
      serve::parse_queries_json(R"({"queries": [{"src": 1.5, "dst": 1}]})"),
      std::runtime_error);
  EXPECT_THROW(  // negative id
      serve::parse_queries_json(R"({"queries": [{"src": -1, "dst": 1}]})"),
      std::runtime_error);
}

// -------------------------------------------------------------- querybench --

TEST(QueryBench, TwoPhaseRunIsDeterministicWhereGated) {
  serve::QueryBenchConfig config;
  config.nodes = 24;
  config.seed = 99;
  config.live_iters = 8;
  config.flip_sample = 2;
  config.query_sample = 24;
  config.serve.query_threads = 4;

  const serve::QueryBenchResult a = serve::run_query_bench(config);
  const serve::QueryBenchResult b = serve::run_query_bench(config);

  // The live trial's protocol totals and the whole steady trial are the
  // gated-at-0 surface; they must be bit-stable run to run.
  EXPECT_EQ(a.live.events, b.live.events);
  EXPECT_EQ(a.live.messages, b.live.messages);
  EXPECT_EQ(a.live.bytes, b.live.bytes);
  ASSERT_EQ(a.steady.metrics.size(), b.steady.metrics.size());
  for (std::size_t i = 0; i < a.steady.metrics.size(); ++i) {
    EXPECT_EQ(a.steady.metrics[i].first, b.steady.metrics[i].first);
    EXPECT_DOUBLE_EQ(a.steady.metrics[i].second, b.steady.metrics[i].second)
        << a.steady.metrics[i].first;
  }
}

}  // namespace
}  // namespace centaur
