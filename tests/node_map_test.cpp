// util::NodeMap — one content-sized open-addressing table keyed by node id.
// The home slot is the id's low bits with the high bits folded in, so the
// table takes one of two layouts depending on its content: ids covering the
// id range below the capacity sit at their own index (the array layout),
// scattered ids fold and probe.  Every observable (find / ensure /
// clear_values / ascending for_each) must be the same in both.
#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "util/load_rule.hpp"
#include "util/node_map.hpp"
#include "util/small_vec.hpp"

namespace centaur::util {
namespace {

using List = SmallVec<std::uint32_t, 4>;

// Ids covering [0, 40): every id below the capacity, the array layout.
std::vector<std::uint32_t> covering_ids() {
  std::vector<std::uint32_t> ids;
  for (std::uint32_t id = 40; id-- > 0;) ids.push_back(id);
  return ids;
}

// Ids spread far beyond the capacity they need, inserted out of order: the
// high ones fold onto low slots and share probe chains with the low ones.
std::vector<std::uint32_t> scattered_ids() {
  return {917'504, 7, 65'536, 1'000'003, 19, 131'072, 3, 4'000'000'000u, 40};
}

std::vector<std::uint32_t> non_empty_ids(const NodeMap<List>& m) {
  std::vector<std::uint32_t> out;
  m.for_each([&](std::uint32_t id, const List& v) {
    if (!v.empty()) out.push_back(id);
  });
  return out;
}

TEST(NodeMap, FindAndEnsureOverScatteredIds) {
  NodeMap<List> m;
  EXPECT_EQ(m.find(0), nullptr);
  EXPECT_EQ(m.size(), 0u);
  for (const std::uint32_t id : scattered_ids()) m.ensure(id).push_back(id);
  EXPECT_EQ(m.size(), scattered_ids().size());
  for (const std::uint32_t id : scattered_ids()) {
    const List* v = m.find(id);
    ASSERT_NE(v, nullptr) << id;
    ASSERT_EQ(v->size(), 1u);
    EXPECT_EQ((*v)[0], id);
  }
  // Content-sized: ids never ensured have no slot, even below the largest.
  EXPECT_EQ(m.find(5), nullptr);
  EXPECT_EQ(m.find(65'537), nullptr);

  // ensure() on a present id returns the same value; a value emptied in
  // place keeps its slot and reads as absent.
  m.ensure(7).push_back(70);
  EXPECT_EQ(m.find(7)->size(), 2u);
  m.ensure(19).clear();
  ASSERT_NE(m.find(19), nullptr);
  EXPECT_TRUE(m.find(19)->empty());
  EXPECT_EQ(m.size(), scattered_ids().size());
}

TEST(NodeMap, LowIdsLayOutLikeAnArray) {
  NodeMap<List> m;
  for (const std::uint32_t id : covering_ids()) m.ensure(id).push_back(id);
  // Every id below the capacity is its own home slot: one probe per hit, as
  // with the direct-indexed array, whatever the insertion order.
  for (std::uint32_t id = 0; id < 40; ++id) {
    EXPECT_EQ(m.probe_length(id), 1u) << id;
    EXPECT_EQ((*m.find(id))[0], id);
  }
}

TEST(NodeMap, ForEachVisitsAscendingInBothModes) {
  // Array layout: ids covering their range, inserted descending.
  NodeMap<List> covering;
  for (const std::uint32_t id : covering_ids()) {
    covering.ensure(id).push_back(id);
  }
  std::vector<std::uint32_t> want = covering_ids();
  std::sort(want.begin(), want.end());
  EXPECT_EQ(non_empty_ids(covering), want);

  // Folded layout: scattered ids, whose slot order is not id order.
  NodeMap<List> scattered;
  for (const std::uint32_t id : scattered_ids()) {
    scattered.ensure(id).push_back(id);
  }
  want = scattered_ids();
  std::sort(want.begin(), want.end());
  EXPECT_EQ(non_empty_ids(scattered), want);
}

TEST(NodeMap, ClearValuesEmptiesBothModes) {
  for (const bool scattered : {false, true}) {
    SCOPED_TRACE(scattered ? "scattered ids" : "covering ids");
    const std::vector<std::uint32_t> ids =
        scattered ? scattered_ids() : covering_ids();
    NodeMap<List> m;
    for (const std::uint32_t id : ids) m.ensure(id).push_back(1);
    m.clear_values();
    EXPECT_EQ(m.size(), 0u);
    for (const std::uint32_t id : ids) EXPECT_EQ(m.find(id), nullptr) << id;
    std::size_t visited = 0;
    m.for_each([&](std::uint32_t, const List&) { ++visited; });
    EXPECT_EQ(visited, 0u);

    // The table refills after a clear like a fresh one.
    m.ensure(ids.front()).push_back(2);
    ASSERT_NE(m.find(ids.front()), nullptr);
    EXPECT_EQ((*m.find(ids.front()))[0], 2u);
    EXPECT_EQ(m.find(ids.back()), nullptr);
  }
}

TEST(NodeMap, ReserveKeepsContent) {
  NodeMap<List> m;
  m.ensure(7).push_back(70);
  m.ensure(100'000).push_back(1);
  m.reserve(10'000);
  // Content survives the rehash; reserving creates no entries.
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_EQ((*m.find(7))[0], 70u);
  ASSERT_NE(m.find(100'000), nullptr);
  EXPECT_EQ((*m.find(100'000))[0], 1u);
  EXPECT_EQ(m.find(3), nullptr);
  // After a large reserve every id below the capacity is its own home.
  m.ensure(9'999).push_back(9);
  EXPECT_EQ(m.probe_length(9'999), 1u);
}

TEST(NodeMap, DoublesAtTheFirstEntryPastSevenEighths) {
  // The 7/8 rule (util/load_rule.hpp), shared with FlatMap: a table of
  // `cap` slots holds floor(7/8 * cap) ids and doubles on the next one;
  // ensure() of an id already present never grows it, even when full.  A
  // graph of 200 ids ends at 256 slots (it took 512 under a 70 % rule).
  NodeMap<List> m;
  EXPECT_EQ(m.capacity(), 0u);
  std::size_t cap = 16;
  for (std::uint32_t id = 0; id < 4000; ++id) {
    m.ensure(id * 3);
    if (m.size() > cap * 7 / 8) cap *= 2;
    ASSERT_EQ(m.capacity(), cap) << m.size() << " ids";
    m.ensure(0);
    m.ensure(id * 3);
    ASSERT_EQ(m.capacity(), cap) << m.size() << " ids, present id";
  }
  EXPECT_EQ(capacity_for(200), 256u);
}

TEST(NodeMap, ReserveThenEnsureNeverRehashes) {
  for (const bool scattered : {false, true}) {
    for (const std::size_t n :
         std::vector<std::size_t>{0, 1, 14, 15, 28, 29, 200, 1792, 1793}) {
      SCOPED_TRACE(::testing::Message() << n << (scattered ? " scattered" : ""));
      const auto id = [scattered](std::size_t i) {
        return static_cast<std::uint32_t>(scattered ? i * 65'537 + 11 : i);
      };
      NodeMap<List> reserved;
      reserved.reserve(n);
      const std::size_t cap = reserved.capacity();
      NodeMap<List> grown;
      for (std::size_t i = 0; i < n; ++i) {
        reserved.ensure(id(i)).push_back(1);
        grown.ensure(id(i)).push_back(1);
        ASSERT_EQ(reserved.capacity(), cap) << "rehash at id " << i + 1;
      }
      EXPECT_EQ(cap, grown.capacity());
    }
  }
}

TEST(NodeMap, IdsNearTheEmptySentinel) {
  using Map = NodeMap<List>;
  const std::vector<std::uint32_t> ids{Map::kEmptyKey - 1, Map::kEmptyKey - 2,
                                       0x8000'0000u, 0x7FFF'FFFFu, 0};
  Map m;
  for (const std::uint32_t id : ids) m.ensure(id).push_back(id);
  for (const std::uint32_t id : ids) {
    ASSERT_NE(m.find(id), nullptr) << id;
    EXPECT_EQ((*m.find(id))[0], id);
  }
  EXPECT_EQ(non_empty_ids(m),
            (std::vector<std::uint32_t>{0, 0x7FFF'FFFFu, 0x8000'0000u,
                                        Map::kEmptyKey - 2,
                                        Map::kEmptyKey - 1}));
  // The sentinel itself is never found and cannot be inserted.
  EXPECT_EQ(m.find(Map::kEmptyKey), nullptr);
  EXPECT_THROW(m.ensure(Map::kEmptyKey), std::invalid_argument);
  EXPECT_EQ(m.size(), ids.size());
}

TEST(NodeMap, SharedLowBitsStayBounded) {
  // Multiples of 1024 share their low ten bits.  Homed on the low bits
  // alone, N of them would pile into one probe chain of length N; folding
  // the bits above the capacity in spreads them.  Measured with the fold:
  //   N =   64 -> capacity  128, longest probe 4, mean 2.5
  //   N =  256 -> capacity  512, longest probe 1
  //   N = 1000 -> capacity 2048, longest probe 1
  struct Case {
    std::uint32_t count;
    std::size_t max_probe;
  };
  for (const Case c : {Case{64, 4}, Case{256, 1}, Case{1000, 1}}) {
    SCOPED_TRACE(c.count);
    NodeMap<List> m;
    for (std::uint32_t k = 0; k < c.count; ++k) m.ensure(k * 1024).push_back(k);
    std::size_t longest = 0;
    for (std::uint32_t k = 0; k < c.count; ++k) {
      const List* v = m.find(k * 1024);
      ASSERT_NE(v, nullptr);
      EXPECT_EQ((*v)[0], k);
      longest = std::max(longest, m.probe_length(k * 1024));
    }
    EXPECT_LE(longest, c.max_probe);
    EXPECT_EQ(m.find(1024 * c.count + 1), nullptr);
  }
}

}  // namespace
}  // namespace centaur::util
