#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "centaur/centaur_node.hpp"
#include "centaur/permission_list.hpp"
#include "centaur/pgraph.hpp"
#include "util/flat_map.hpp"
#include "util/load_rule.hpp"
#include "util/rng.hpp"
#include "util/small_vec.hpp"
#include "util/unique_function.hpp"
#include "util/vec_map.hpp"

namespace centaur::util {
namespace {

// ------------------------------------------------------------ FlatMap -----

TEST(FlatMap, InsertFindErase) {
  FlatMap<std::uint32_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(7), nullptr);

  m[7] = 70;
  m[9] = 90;
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_EQ(*m.find(7), 70);
  EXPECT_EQ(m.count(9), 1u);
  EXPECT_EQ(m.count(8), 0u);

  EXPECT_TRUE(m.erase(7));
  EXPECT_FALSE(m.erase(7));
  EXPECT_EQ(m.find(7), nullptr);
  ASSERT_NE(m.find(9), nullptr);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, EnsureReportsInsertion) {
  FlatMap<std::uint64_t, int> m;
  bool inserted = false;
  int& v = m.ensure(42, inserted);
  EXPECT_TRUE(inserted);
  v = 5;
  int& again = m.ensure(42, inserted);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(again, 5);
}

TEST(FlatMap, GrowsPastMinimumCapacity) {
  FlatMap<std::uint64_t, std::uint64_t> m;
  for (std::uint64_t k = 0; k < 5000; ++k) m[k * 977] = k;
  EXPECT_EQ(m.size(), 5000u);
  for (std::uint64_t k = 0; k < 5000; ++k) {
    ASSERT_NE(m.find(k * 977), nullptr) << k;
    EXPECT_EQ(*m.find(k * 977), k);
  }
  EXPECT_EQ(m.find(1), nullptr);
}

TEST(FlatMap, EraseKeepsProbeChainsIntact) {
  // Backward-shift deletion must leave every surviving key reachable no
  // matter which keys leave; churn through a randomized insert/erase
  // sequence and mirror it in a std::set oracle.
  FlatMap<std::uint64_t, std::uint64_t> m;
  std::set<std::uint64_t> oracle;
  Rng rng(1234);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t k = rng.next() % 512;
    if (rng.next() % 3 == 0) {
      EXPECT_EQ(m.erase(k), oracle.erase(k) > 0);
    } else {
      m[k] = k;
      oracle.insert(k);
    }
  }
  EXPECT_EQ(m.size(), oracle.size());
  for (const std::uint64_t k : oracle) {
    ASSERT_NE(m.find(k), nullptr) << k;
    EXPECT_EQ(*m.find(k), k);
  }
  for (std::uint64_t k = 0; k < 512; ++k) {
    EXPECT_EQ(m.count(k), oracle.count(k)) << k;
  }
}

TEST(FlatMap, IterationVisitsEveryEntryOnce) {
  FlatMap<std::uint32_t, int> m;
  for (std::uint32_t k = 0; k < 100; ++k) m[k] = static_cast<int>(k);
  std::set<std::uint32_t> seen;
  for (const auto& [key, value] : m) {
    EXPECT_EQ(value, static_cast<int>(key));
    EXPECT_TRUE(seen.insert(key).second) << "duplicate " << key;
  }
  EXPECT_EQ(seen.size(), 100u);
}

TEST(FlatMap, IterationOrderIsDeterministic) {
  // Same insert/erase sequence => same slot order; the simulator's
  // reproducibility guarantee depends on this.
  auto build = [] {
    FlatMap<std::uint64_t, int> m;
    for (std::uint64_t k = 0; k < 200; ++k) m[k * 31] = 1;
    for (std::uint64_t k = 0; k < 200; k += 3) m.erase(k * 31);
    return m;
  };
  const auto a = build();
  const auto b = build();
  std::vector<std::uint64_t> ka, kb;
  for (const auto& [key, value] : a) ka.push_back(key);
  for (const auto& [key, value] : b) kb.push_back(key);
  EXPECT_EQ(ka, kb);
}

TEST(FlatMap, ClearEmptiesButStaysUsable) {
  FlatMap<std::uint32_t, int> m;
  for (std::uint32_t k = 0; k < 50; ++k) m[k] = 1;
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.begin(), m.end());
  m[3] = 9;
  ASSERT_NE(m.find(3), nullptr);
  EXPECT_EQ(*m.find(3), 9);
}

TEST(FlatMap, PackedLinkKeys) {
  FlatMap<std::uint64_t, int> m;
  const auto pack = [](std::uint32_t from, std::uint32_t to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  };
  m[pack(1, 2)] = 12;
  m[pack(2, 1)] = 21;
  EXPECT_EQ(*m.find(pack(1, 2)), 12);
  EXPECT_EQ(*m.find(pack(2, 1)), 21);
  EXPECT_EQ(m.find(pack(1, 1)), nullptr);
}

TEST(FlatMap, DoublesAtTheFirstEntryPastSevenEighths) {
  // The 7/8 rule (util/load_rule.hpp): a table of `cap` slots holds
  // floor(7/8 * cap) entries and doubles on the next insert.
  FlatMap<std::uint64_t, int> m;
  EXPECT_EQ(m.capacity(), 0u);
  std::size_t cap = 16;
  for (std::uint64_t k = 0; k < 4000; ++k) {
    m[k * 7919] = 1;
    if (m.size() > cap * 7 / 8) cap *= 2;
    ASSERT_EQ(m.capacity(), cap) << m.size() << " entries";
    ASSERT_EQ(m.capacity(), capacity_for(m.size()));
    // Updating a present key never grows the table, even when full.
    m[0] = 2;
    m[k * 7919] = 3;
    ASSERT_EQ(m.capacity(), cap) << m.size() << " entries, present key";
  }
  // The first thresholds, spelled out: 14 of 16, 28 of 32, 56 of 64.
  EXPECT_EQ(capacity_for(14), 16u);
  EXPECT_EQ(capacity_for(15), 32u);
  EXPECT_EQ(capacity_for(28), 32u);
  EXPECT_EQ(capacity_for(29), 64u);
  EXPECT_EQ(capacity_for(56), 64u);
  EXPECT_EQ(capacity_for(57), 128u);
  EXPECT_EQ(capacity_for(0), 0u);
}

TEST(FlatMap, ReserveThenInsertNeverRehashes) {
  for (const std::size_t n :
       std::vector<std::size_t>{0, 1, 14, 15, 28, 29, 200, 1792, 1793}) {
    SCOPED_TRACE(n);
    FlatMap<std::uint64_t, int> reserved;
    reserved.reserve(n);
    const std::size_t cap = reserved.capacity();
    FlatMap<std::uint64_t, int> grown;
    for (std::uint64_t k = 0; k < n; ++k) {
      reserved[k * 977] = 1;
      grown[k * 977] = 1;
      ASSERT_EQ(reserved.capacity(), cap) << "rehash at entry " << k + 1;
    }
    EXPECT_EQ(cap, grown.capacity());
  }
}

TEST(FlatMap, MatchesAMapModelAtNearFullLoad) {
  // Random inserts, erases and finds on a 64-slot table held at 48-56
  // entries (56 = 7/8 of 64: the fullest load before doubling), checked
  // against a std::map.  Probe chains there run long and wrap from the last
  // slot to the first, which is where backward-shift erase must still move
  // every displaced entry back.
  constexpr std::size_t kCap = 64;
  constexpr std::size_t kMax = kCap * 7 / 8;
  using Map = FlatMap<std::uint32_t, std::uint32_t>;
  Map m;
  m.reserve(kMax);
  ASSERT_EQ(m.capacity(), kCap);
  std::map<std::uint32_t, std::uint32_t> model;
  std::vector<std::uint32_t> pool;
  Rng rng(77);
  for (int i = 0; i < 96; ++i) {
    pool.push_back(static_cast<std::uint32_t>(rng.next() % (1u << 20)));
  }
  // Slot index of a live value: its offset from the first live slot's value,
  // which is slot 0 whenever the live slots span the whole table.
  const auto slot_span = [&m](const std::uint32_t* v) {
    const auto* first = reinterpret_cast<const char*>(&(*m.begin()).second);
    return static_cast<std::size_t>(reinterpret_cast<const char*>(v) - first) /
           Map::kSlotBytes;
  };
  std::size_t wrapped_seen = 0;
  for (std::uint32_t step = 0; step < 40000; ++step) {
    const std::uint32_t k = pool[rng.index(pool.size())];
    const std::size_t op = rng.index(4);
    if (op < 2 && (m.size() < kMax || model.count(k) > 0)) {
      m[k] = step;
      model[k] = step;
    } else if (op == 2 && m.size() > kMax - 8) {
      ASSERT_EQ(m.erase(k), model.erase(k) > 0) << "step " << step;
    } else {
      const auto it = model.find(k);
      const std::uint32_t* v = m.find(k);
      ASSERT_EQ(v != nullptr, it != model.end()) << "step " << step;
      if (v != nullptr) {
        ASSERT_EQ(*v, it->second);
      }
    }
    ASSERT_EQ(m.size(), model.size());
    ASSERT_EQ(m.capacity(), kCap) << "step " << step;
    if (step % 16 != 0) continue;
    for (const auto& [key, value] : model) {
      const std::uint32_t* v = m.find(key);
      ASSERT_NE(v, nullptr) << "step " << step << " key " << key;
      ASSERT_EQ(*v, value);
    }
    // A live key whose probe length exceeds its slot index + 1 was homed
    // near the end of the table and found past the wrap.
    std::size_t last = 0;
    for (const auto& [key, value] : m) last = slot_span(&value);
    if (last != kCap - 1) continue;
    for (const auto& [key, value] : m) {
      if (m.probe_length(key) > slot_span(&value) + 1) ++wrapped_seen;
    }
  }
  EXPECT_GT(wrapped_seen, 0u);
}

// ------------------------------------------------------------- VecMap -----

TEST(VecMap, InsertFindEraseSorted) {
  VecMap<std::uint32_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(7), nullptr);

  m[9] = 90;
  m[7] = 70;
  m[8] = 80;
  EXPECT_EQ(m.size(), 3u);
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_EQ(*m.find(7), 70);
  EXPECT_EQ(m.count(9), 1u);
  EXPECT_EQ(m.count(6), 0u);

  EXPECT_TRUE(m.erase(8));
  EXPECT_FALSE(m.erase(8));
  EXPECT_EQ(m.find(8), nullptr);
  EXPECT_EQ(m.size(), 2u);
}

TEST(VecMap, IterationIsAscendingRegardlessOfInsertOrder) {
  VecMap<std::uint32_t, int> m;
  for (std::uint32_t k : {41u, 5u, 99u, 12u, 7u}) m[k] = static_cast<int>(k);
  std::vector<std::uint32_t> keys;
  for (const auto& [k, v] : m) {
    keys.push_back(k);
    EXPECT_EQ(v, static_cast<int>(k));
  }
  EXPECT_EQ(keys, (std::vector<std::uint32_t>{5, 7, 12, 41, 99}));
}

TEST(VecMap, EnsureReportsInsertion) {
  VecMap<std::uint32_t, int> m;
  bool inserted = false;
  int& a = m.ensure(3, inserted);
  EXPECT_TRUE(inserted);
  a = 30;
  int& b = m.ensure(3, inserted);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(b, 30);
}

TEST(VecMap, HoldsMoveHeavyValues) {
  VecMap<std::uint32_t, std::vector<int>> m;
  m[2] = {2, 2};
  m[1] = {1};
  m[3] = {3, 3, 3};
  ASSERT_NE(m.find(1), nullptr);
  EXPECT_EQ(m.find(3)->size(), 3u);
  // Inserting before existing entries must shift them intact.
  m[0] = {0};
  EXPECT_EQ(*m.find(2), (std::vector<int>{2, 2}));
  EXPECT_EQ(m.begin()->first, 0u);
}

TEST(VecMap, EqualityComparesContents) {
  VecMap<std::uint32_t, int> a, b;
  a[1] = 10;
  b[1] = 10;
  EXPECT_TRUE(a == b);
  b[2] = 20;
  EXPECT_FALSE(a == b);
}

// ----------------------------------------------------------- SmallVec -----

/// Trivially copyable element whose array allocations are counted, so a
/// test can see whether SmallVec reached the heap.
struct Counted {
  std::uint32_t v;
  static inline std::size_t allocations = 0;
  static void* operator new[](std::size_t bytes) {
    ++allocations;
    return ::operator new[](bytes);
  }
  static void operator delete[](void* p) noexcept { ::operator delete[](p); }
};

TEST(SmallVec, InlineThenSpill) {
  SmallVec<Counted, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), 4u);
  const std::size_t before = Counted::allocations;
  for (std::uint32_t i = 0; i < 4; ++i) v.push_back(Counted{i});
  EXPECT_EQ(v.capacity(), 4u);  // still inline
  EXPECT_EQ(Counted::allocations, before);
  v.push_back(Counted{4});  // N + 1 spills, once
  EXPECT_EQ(Counted::allocations, before + 1);
  EXPECT_EQ(v.capacity(), 8u);
  for (std::uint32_t i = 5; i < 100; ++i) v.push_back(Counted{i});
  EXPECT_EQ(v.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(v[i].v, i);
  EXPECT_EQ(v.front().v, 0u);
  EXPECT_EQ(v.back().v, 99u);
}

TEST(SmallVec, InsertAndEraseInMiddle) {
  SmallVec<int, 4> v{1, 2, 4, 5};
  v.insert(v.begin() + 2, 3);  // a full inline array spills
  EXPECT_EQ(v, (SmallVec<int, 4>{1, 2, 3, 4, 5}));
  EXPECT_EQ(v.capacity(), 8u);
  v.erase(v.begin());
  v.erase(v.end() - 1);
  EXPECT_EQ(v, (SmallVec<int, 4>{2, 3, 4}));
}

TEST(SmallVec, CopyAndMoveBothStorageModes) {
  using V = SmallVec<std::uint32_t, 4>;
  const auto filled = [](std::uint32_t n, std::uint32_t base) {
    V v;
    for (std::uint32_t i = 0; i < n; ++i) v.push_back(base + i);
    return v;
  };
  const V small = filled(3, 1);  // inline
  const V big = filled(20, 100);  // heap
  const V small_target = filled(1, 7);
  const V big_target = filled(9, 0);

  // Construction and assignment for every source/target storage pair.
  for (const V* source : {&small, &big}) {
    const V copy(*source);
    EXPECT_EQ(copy, *source);
    V donor(*source);
    const V moved(std::move(donor));
    EXPECT_EQ(moved, *source);
    EXPECT_TRUE(donor.empty());  // NOLINT(bugprone-use-after-move)

    for (const V* target_init : {&small_target, &big_target}) {
      V copied = *target_init;
      copied = *source;
      EXPECT_EQ(copied, *source);

      V assigned = *target_init;
      V giver = *source;
      assigned = std::move(giver);
      EXPECT_EQ(assigned, *source);
      EXPECT_TRUE(giver.empty());  // NOLINT(bugprone-use-after-move)
    }
  }

  // Self-assignment, through an alias so no warning fires, keeps contents.
  for (const V* source : {&small, &big}) {
    V v = *source;
    V& alias = v;
    v = alias;
    EXPECT_EQ(v, *source);
    v = std::move(alias);
    EXPECT_EQ(v, *source);
  }
}

TEST(SmallVec, MovedFromIsEmptyAndReusable) {
  using V = SmallVec<std::uint32_t, 4>;
  for (const std::uint32_t n : {3u, 40u}) {  // inline source, heap source
    V source;
    for (std::uint32_t i = 0; i < n; ++i) source.push_back(i);
    V taken(std::move(source));
    EXPECT_EQ(taken.size(), n);
    EXPECT_TRUE(source.empty());       // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(source.capacity(), 4u);  // back to inline storage
    for (std::uint32_t i = 0; i < 6; ++i) source.push_back(i * 10);
    EXPECT_EQ(source, (V{0, 10, 20, 30, 40, 50}));

    V assigned_from;
    for (std::uint32_t i = 0; i < n; ++i) assigned_from.push_back(i);
    taken = std::move(assigned_from);
    EXPECT_TRUE(assigned_from.empty());  // NOLINT(bugprone-use-after-move)
    assigned_from.push_back(9);
    EXPECT_EQ(assigned_from, (V{9}));
  }
}

TEST(SmallVec, ClearKeepsHeapCapacity) {
  SmallVec<Counted, 4> v;
  for (std::uint32_t i = 0; i < 10; ++i) v.push_back(Counted{i});
  const std::size_t cap = v.capacity();
  ASSERT_GT(cap, 4u);
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), cap);
  const std::size_t before = Counted::allocations;
  for (std::uint32_t i = 0; i < cap; ++i) v.push_back(Counted{i});
  EXPECT_EQ(Counted::allocations, before);  // refilled without allocating
  EXPECT_EQ(v.back().v, cap - 1);
}

TEST(SmallVec, ReservePastUint32MaxThrowsWithoutAllocating) {
  using V = SmallVec<Counted, 4>;
  EXPECT_EQ(V::kMaxSize, std::size_t{0xFFFFFFFFu});
  V v;
  v.push_back(Counted{1});
  const std::size_t before = Counted::allocations;
  EXPECT_THROW(v.reserve(V::kMaxSize + 1), std::length_error);
  EXPECT_EQ(Counted::allocations, before);
  ASSERT_EQ(v.size(), 1u);  // unchanged
  EXPECT_EQ(v.capacity(), 4u);
  EXPECT_EQ(v[0].v, 1u);
}

TEST(SmallVec, LayoutSizesOnLp64) {
  if (sizeof(void*) != 8 || sizeof(std::size_t) != 8) {
    GTEST_SKIP() << "sizes are pinned for LP64 only";
  }
  // 32-bit size and capacity, then the inline array sharing its storage
  // with the heap pointer (DESIGN.md §5.1).
  EXPECT_EQ(sizeof(SmallVec<topo::NodeId, 4>), 24u);
  // Two parents fill the pointer's 8 bytes.
  EXPECT_EQ(sizeof(core::PGraph::AdjList), 16u);
  EXPECT_EQ(core::PGraph::AdjVec::kSlotBytes, 24u);
  EXPECT_EQ(sizeof(core::PermissionList), 32u);
  EXPECT_EQ(sizeof(core::CentaurNode::DestState), 40u);
  EXPECT_EQ(core::PGraph::PlistMap::kSlotBytes, 40u);
  EXPECT_EQ(core::CentaurNode::DestCache::kSlotBytes, 41u);
}

TEST(SmallVec, SortedHelpers) {
  SmallVec<std::uint32_t, 4> v;
  EXPECT_TRUE(sorted_insert(v, 5u));
  EXPECT_TRUE(sorted_insert(v, 1u));
  EXPECT_TRUE(sorted_insert(v, 3u));
  EXPECT_FALSE(sorted_insert(v, 3u));  // duplicate
  EXPECT_EQ(v, (SmallVec<std::uint32_t, 4>{1, 3, 5}));
  EXPECT_TRUE(sorted_contains(v, 3u));
  EXPECT_FALSE(sorted_contains(v, 4u));
  EXPECT_TRUE(sorted_erase(v, 3u));
  EXPECT_FALSE(sorted_erase(v, 3u));
  EXPECT_EQ(v, (SmallVec<std::uint32_t, 4>{1, 5}));
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

// ----------------------------------------------------- UniqueFunction -----

TEST(UniqueFunction, InvokesAndMoves) {
  int hits = 0;
  UniqueFunction f([&hits] { ++hits; });
  EXPECT_TRUE(static_cast<bool>(f));
  f();
  UniqueFunction g(std::move(f));
  g();
  EXPECT_EQ(hits, 2);
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
}

TEST(UniqueFunction, OwnsMoveOnlyCaptures) {
  // The whole point: std::function cannot hold this lambda at all.
  auto p = std::make_unique<int>(99);
  int seen = 0;
  UniqueFunction f([p = std::move(p), &seen] { seen = *p; });
  f();
  EXPECT_EQ(seen, 99);
}

TEST(UniqueFunction, DestroysCaptureExactlyOnce) {
  auto tracker = std::make_shared<int>(1);
  EXPECT_EQ(tracker.use_count(), 1);
  {
    UniqueFunction f([tracker] { (void)tracker; });
    EXPECT_EQ(tracker.use_count(), 2);
    UniqueFunction g(std::move(f));
    EXPECT_EQ(tracker.use_count(), 2);  // moved, not copied
    g.reset();
    EXPECT_EQ(tracker.use_count(), 1);
  }
  EXPECT_EQ(tracker.use_count(), 1);
}

TEST(UniqueFunction, SpillsLargeCallablesToHeap) {
  struct Big {
    unsigned char pad[96];  // > kInlineSize, forces the spill path
    std::shared_ptr<int> alive;
  };
  static_assert(sizeof(Big) > UniqueFunction::kInlineSize);
  auto tracker = std::make_shared<int>(7);
  int seen = 0;
  {
    Big big{};
    big.alive = tracker;
    UniqueFunction f([big, &seen] { seen = *big.alive; });
    EXPECT_EQ(tracker.use_count(), 3);  // big + the copy in f
    UniqueFunction g(std::move(f));
    g();
    EXPECT_EQ(seen, 7);
  }
  EXPECT_EQ(tracker.use_count(), 1);
}

TEST(UniqueFunction, MoveAssignReplacesTarget) {
  int a = 0, b = 0;
  UniqueFunction f([&a] { ++a; });
  UniqueFunction g([&b] { ++b; });
  g = std::move(f);
  g();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 0);
}

// --------------------------------------------------------- derive_seed ----

TEST(DeriveSeed, DeterministicAndWellSpread) {
  EXPECT_EQ(derive_seed(1, 0), derive_seed(1, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(derive_seed(42, i));
  EXPECT_EQ(seen.size(), 1000u);  // no collisions across trial indices
  EXPECT_NE(derive_seed(1, 5), derive_seed(2, 5));  // base matters
}

}  // namespace
}  // namespace centaur::util
