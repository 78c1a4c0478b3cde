// The one growth rule of the open-addressing tables (NodeMap, FlatMap and
// so FlatSet): power-of-two capacity, at least kMinTableCapacity slots, at
// most 7/8 of them live.  A table doubles on the first insert past
// floor(7/8 * capacity) entries, and reserve(n) picks the capacity n inserts
// reach, so reserving and growing end at the same size.
//
// Why 7/8: every node keeps one graph per neighbor, so the empty slots of
// these tables are much of the protocol's memory (DESIGN.md §5.5).  At 7/8,
// linear probing costs about 4 probes per hit and 25-30 per miss on hashed
// keys, and one per hit where NodeMap's ids cover their range
// (BM_FlatMapFind, BM_NodeMapFind).  At least one slot in eight stays
// empty, so every probe chain ends.
#pragma once

#include <cstddef>

namespace centaur::util {

/// Capacity of a table's first allocation.
inline constexpr std::size_t kMinTableCapacity = 16;

/// True when `entries` live entries are within the maximum load of a table
/// of `capacity` slots.
constexpr bool within_load(std::size_t entries, std::size_t capacity) {
  return entries * 8 <= capacity * 7;
}

/// Capacity a table reaches while `entries` are inserted one by one: 0 for
/// none, else the smallest power of two, at least kMinTableCapacity, whose
/// maximum load holds them.
constexpr std::size_t capacity_for(std::size_t entries) {
  if (entries == 0) return 0;
  std::size_t cap = kMinTableCapacity;
  while (!within_load(entries, cap)) cap *= 2;
  return cap;
}

}  // namespace centaur::util
