// Content-sized node-indexed map for per-node protocol state.
//
// Every Centaur node keeps one P-graph per neighbor (adjacency, walk-chain
// index), each holding only the nodes on paths toward the originated
// destinations.  Storage indexed by global AS id made every (node,
// neighbor) pair cost O(n) — quadratic in aggregate.  NodeMap is one
// open-addressing table (linear probing, the 7/8 load rule of
// load_rule.hpp) whose size follows the content instead.
//
// The home slot of `id` is its low bits with the bits above the capacity
// folded in: `(id ^ (id >> log2(capacity))) & (capacity - 1)`.  Below the
// capacity that is the identity, so a graph whose content covers its id
// range lays out exactly like a direct-indexed array — ascending ids in
// ascending slots, one probe per hit — while ids sharing their low bits
// (e.g. multiples of 1024) still spread over the table.
//
// Entries are never erased one by one (callers empty a value in place and
// must treat an empty value like an absent one), so there are no
// tombstones.  `Key(-1)` (topo::kInvalidNode) marks empty slots: find()
// never reports it and ensure() rejects it.  for_each visits ids ascending,
// so the layout never leaks into results; begin()/end() walk the layout
// itself, for callers whose result does not depend on the order.  V must be
// default-constructible and movable.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/load_rule.hpp"

namespace centaur::util {

template <typename V>
class NodeMap {
 public:
  using Key = std::uint32_t;
  static constexpr Key kEmptyKey = static_cast<Key>(-1);

 private:
  struct Slot {
    Key key = kEmptyKey;
    V value{};
  };

 public:
  /// Bytes per slot (capacity x kSlotBytes is the table's footprint).
  static constexpr std::size_t kSlotBytes = sizeof(Slot);

  /// Ids with a slot (values emptied in place included).
  std::size_t size() const { return size_; }
  /// Slots allocated (0 until the first insert or reserve).
  std::size_t capacity() const { return slots_.size(); }

  /// Value for `id`, or nullptr when it has no slot.  A non-null result may
  /// be a value emptied in place — treat empty as absent.
  const V* find(Key id) const {
    if (size_ == 0) return nullptr;
    const Slot& s = slots_[locate(id)];
    return s.key != kEmptyKey ? &s.value : nullptr;
  }
  V* find(Key id) {
    return const_cast<V*>(std::as_const(*this).find(id));
  }

  /// Value for `id`, default-constructed if absent.  Inserting may rehash,
  /// which invalidates pointers and references into the map.
  V& ensure(Key id) {
    if (id == kEmptyKey) {
      throw std::invalid_argument("NodeMap::ensure: reserved id");
    }
    if (slots_.empty()) rehash(kMinTableCapacity);
    std::size_t i = locate(id);
    if (slots_[i].key == kEmptyKey) {
      if (!within_load(size_ + 1, slots_.size())) {
        rehash(slots_.size() * 2);
        i = locate(id);
      }
      slots_[i].key = id;
      ++size_;
    }
    return slots_[i].value;
  }

  /// Pre-sizes the table for `count` ids (no rehash cascade while a graph
  /// of known size is assembled): the capacity `count` inserts reach.
  void reserve(std::size_t count) {
    const std::size_t cap = capacity_for(count);
    if (cap > slots_.size()) rehash(cap);
  }

  /// Drops every entry but keeps the capacity: resets happen on session
  /// restarts, where the graph refills to a similar size.
  void clear_values() {
    for (Slot& s : slots_) s = Slot{};
    size_ = 0;
  }

  /// Layout-order iteration over (id, value) pairs, emptied values too.
  /// The order is a deterministic function of the insert history but not
  /// ascending: use for_each wherever the order can reach a result.
  struct Item {
    Key first;
    const V& second;
  };
  class const_iterator {
   public:
    const_iterator(const Slot* slot, const Slot* end) : slot_(slot), end_(end) {
      skip();
    }
    Item operator*() const { return Item{slot_->key, slot_->value}; }
    const_iterator& operator++() {
      ++slot_;
      skip();
      return *this;
    }
    bool operator==(const const_iterator& o) const { return slot_ == o.slot_; }
    bool operator!=(const const_iterator& o) const { return slot_ != o.slot_; }

   private:
    void skip() {
      while (slot_ != end_ && slot_->key == kEmptyKey) ++slot_;
    }
    const Slot* slot_;
    const Slot* end_;
  };
  const_iterator begin() const {
    return const_iterator(slots_.data(), slots_.data() + slots_.size());
  }
  const_iterator end() const {
    const Slot* e = slots_.data() + slots_.size();
    return const_iterator(e, e);
  }

  /// Visits (id, value) pairs in ascending id order, emptied values too.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::vector<const Slot*> live;
    live.reserve(size_);
    for (const Slot& s : slots_) {
      if (s.key != kEmptyKey) live.push_back(&s);
    }
    std::sort(live.begin(), live.end(),
              [](const Slot* a, const Slot* b) { return a->key < b->key; });
    for (const Slot* s : live) fn(s->key, s->value);
  }

  /// Slots a find() of `id` examines (1: found or rejected at its home
  /// slot); layout introspection for tests.
  std::size_t probe_length(Key id) const {
    return size_ == 0 ? 0 : ((locate(id) - home(id)) & mask_) + 1;
  }

 private:
  std::size_t home(Key id) const { return (id ^ (id >> shift_)) & mask_; }

  /// Slot holding `id`, or the empty slot that ends its probe chain.
  std::size_t locate(Key id) const {
    std::size_t i = home(id);
    while (slots_[i].key != id && slots_[i].key != kEmptyKey) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  void rehash(std::size_t cap) {
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(cap));
    mask_ = cap - 1;
    shift_ = static_cast<unsigned>(std::countr_zero(cap));
    for (Slot& s : old) {
      if (s.key != kEmptyKey) slots_[locate(s.key)] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 0;  // log2(capacity)
  std::size_t size_ = 0;
};

}  // namespace centaur::util
