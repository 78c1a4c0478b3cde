// Open-addressing hash map for the protocol hot paths.
//
// The seed kept P-graph links and adjacency in node-based std::map /
// std::unordered_map containers: every entry was its own heap allocation and
// every lookup a pointer chase.  FlatMap stores slots contiguously with
// linear probing (the 7/8 load rule of load_rule.hpp), deletes with
// Knuth's backward-shift compaction (Algorithm R) so no tombstones
// accumulate, and reserves one key value (all bits set) as the empty
// sentinel — which no caller can hit: packed DirectedLink keys would need a
// self-loop of kInvalidNode, and NodeId keys are always real node ids.
//
// Iteration yields entries in slot order.  That order is a deterministic
// function of the insert/erase sequence (no randomized seeds, no pointer
// values), which the simulator's reproducibility guarantee relies on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/load_rule.hpp"

namespace centaur::util {

template <typename Key, typename V>
class FlatMap {
  static_assert(std::is_unsigned_v<Key>, "FlatMap keys are unsigned integers");

 public:
  /// Reserved sentinel; never usable as a real key.
  static constexpr Key kEmptyKey = static_cast<Key>(-1);

  /// Iteration proxy (mirrors std::map's value_type shape so structured
  /// bindings `[key, value]` keep working at call sites).
  struct Item {
    Key first;
    const V& second;
  };

 private:
  struct Slot {
    Key key = kEmptyKey;
    V value{};
  };

 public:
  /// Bytes per slot (capacity x kSlotBytes is the table's footprint).
  static constexpr std::size_t kSlotBytes = sizeof(Slot);

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

  FlatMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slots allocated (0 until the first insert or reserve).
  std::size_t capacity() const { return slots_.size(); }

  const_iterator begin() const {
    return const_iterator(slots_.data(), slots_.data() + slots_.size());
  }
  const_iterator end() const {
    const Slot* e = slots_.data() + slots_.size();
    return const_iterator(e, e);
  }

  void clear() {
    for (Slot& s : slots_) {
      s.key = kEmptyKey;
      s.value = V{};
    }
    size_ = 0;
  }

  /// Pre-sizes the table for `n` entries without rehashing on the way
  /// there: the capacity `n` inserts reach.
  void reserve(std::size_t n) {
    const std::size_t cap = capacity_for(n);
    if (cap > slots_.size()) rehash(cap);
  }

  V* find(Key k) {
    return const_cast<V*>(std::as_const(*this).find(k));
  }

  const V* find(Key k) const {
    if (size_ == 0) return nullptr;
    const Slot& s = slots_[locate(k)];
    return s.key == k ? &s.value : nullptr;
  }

  /// Slots a find() of `k` examines (1: found or rejected at its home
  /// slot); layout introspection for tests and footprints.
  std::size_t probe_length(Key k) const {
    return size_ == 0 ? 0 : ((locate(k) - (mix(k) & mask_)) & mask_) + 1;
  }

  std::size_t count(Key k) const { return find(k) == nullptr ? 0 : 1; }

  /// Returns the value for `k`, inserting a default-constructed one if
  /// absent; `inserted` reports which happened.  Inserting may rehash,
  /// which invalidates pointers and references into the map.
  V& ensure(Key k, bool& inserted) {
    if (slots_.empty()) rehash(kMinTableCapacity);
    std::size_t i = locate(k);
    inserted = slots_[i].key != k;
    if (inserted) {
      if (!within_load(size_ + 1, slots_.size())) {
        rehash(slots_.size() * 2);
        i = locate(k);
      }
      slots_[i].key = k;
      ++size_;
    }
    return slots_[i].value;
  }

  V& operator[](Key k) {
    bool inserted = false;
    return ensure(k, inserted);
  }

  /// Removes `k`; backward-shift compaction keeps probe chains intact
  /// without tombstones.  Returns false if absent.
  bool erase(Key k) {
    if (size_ == 0) return false;
    std::size_t hole = locate(k);
    if (slots_[hole].key != k) return false;
    std::size_t j = hole;
    while (true) {
      j = (j + 1) & mask_;
      if (slots_[j].key == kEmptyKey) break;
      const std::size_t ideal = mix(slots_[j].key) & mask_;
      // Slot j may keep its place only if its ideal slot lies cyclically in
      // (hole, j]; otherwise its probe chain crosses the hole — move it back.
      if (((j - ideal) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole].key = slots_[j].key;
        slots_[hole].value = std::move(slots_[j].value);
        hole = j;
      }
    }
    slots_[hole].key = kEmptyKey;
    slots_[hole].value = V{};
    --size_;
    return true;
  }

 private:
  static std::size_t mix(Key k) {
    std::uint64_t x = static_cast<std::uint64_t>(k);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return static_cast<std::size_t>(x);
  }

  /// Slot holding `k`, or the empty slot that ends its probe chain.
  std::size_t locate(Key k) const {
    std::size_t i = mix(k) & mask_;
    while (slots_[i].key != k && slots_[i].key != kEmptyKey) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  void rehash(std::size_t cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    for (Slot& s : old) {
      if (s.key != kEmptyKey) slots_[locate(s.key)] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Membership-only companion to FlatMap, for visited sets and rejection
/// sampling.  Deliberately offers no iteration: a caller whose results
/// depend on element *order* should keep a sorted SmallVec/vector instead,
/// so hash-layout order can never leak into simulation output.
template <typename Key>
class FlatSet {
 public:
  static constexpr Key kEmptyKey = FlatMap<Key, char>::kEmptyKey;

  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void clear() { map_.clear(); }
  void reserve(std::size_t n) { map_.reserve(n); }

  /// Returns true if `k` was newly inserted.
  bool insert(Key k) {
    bool inserted = false;
    map_.ensure(k, inserted);
    return inserted;
  }

  std::size_t count(Key k) const { return map_.count(k); }
  bool erase(Key k) { return map_.erase(k); }

 private:
  FlatMap<Key, char> map_;
};

}  // namespace centaur::util
