// Flat map keyed by small dense unsigned ids (AS numbers are 0..n-1):
// a direct-indexed slot vector plus a present bitmap.  find/ensure/erase
// are single array hits — no hashing, no probing — and iteration walks keys
// ascending, so downstream consumers that need sorted order get it for
// free.  Intended for id spaces bounded by the network size: reserve() the
// key range once, before the first insert, and the slot arrays are
// allocated exactly; an insert past the reserved range grows them to the
// key + 1 (with the vector's geometric overshoot).
//
// Values are constructed once per slot and RECYCLED: erase only clears the
// present bit, and re-inserting a key calls V::clear() on the old value
// instead of destroying it, so per-value heap buffers (vectors, small-vec
// spills) keep their capacity across erase/insert cycles on the hot path.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace centaur::util {

template <typename V>
class DenseMap {
 public:
  /// Bytes per slot: the value plus its present flag.
  static constexpr std::size_t kSlotBytes = sizeof(V) + sizeof(std::uint8_t);

  V* find(std::uint32_t key) {
    return key < present_.size() && present_[key] != 0 ? &values_[key]
                                                       : nullptr;
  }
  const V* find(std::uint32_t key) const {
    return key < present_.size() && present_[key] != 0 ? &values_[key]
                                                       : nullptr;
  }
  std::size_t count(std::uint32_t key) const {
    return find(key) != nullptr ? 1 : 0;
  }

  /// Returns the value slot for `key`, creating it if absent (`inserted`
  /// reports which).  A recycled slot is reset via V::clear() first.
  V& ensure(std::uint32_t key, bool& inserted) {
    if (key >= present_.size()) grow(std::size_t{key} + 1);
    inserted = present_[key] == 0;
    if (inserted) {
      present_[key] = 1;
      ++size_;
      values_[key].clear();
    }
    return values_[key];
  }

  bool erase(std::uint32_t key) {
    if (key >= present_.size() || present_[key] == 0) return false;
    present_[key] = 0;
    --size_;
    return true;
  }

  /// Pre-sizes the slot arrays for keys < n.
  void reserve(std::size_t n) {
    if (present_.size() < n) grow(n);
  }

  /// Removes every entry; slots (and their value capacity) are kept.
  void clear() {
    std::fill(present_.begin(), present_.end(), std::uint8_t{0});
    size_ = 0;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Value slots allocated (0 until the first insert or reserve).
  std::size_t capacity() const { return values_.capacity(); }

  /// Iteration item, `first`/`second` named for structured bindings like
  /// the map types this replaces.
  struct Item {
    std::uint32_t first;
    const V& second;
  };

  class const_iterator {
   public:
    const_iterator(const DenseMap* map, std::size_t pos)
        : map_(map), pos_(pos) {
      skip_absent();
    }
    Item operator*() const {
      return Item{static_cast<std::uint32_t>(pos_), map_->values_[pos_]};
    }
    const_iterator& operator++() {
      ++pos_;
      skip_absent();
      return *this;
    }
    bool operator==(const const_iterator& o) const { return pos_ == o.pos_; }
    bool operator!=(const const_iterator& o) const { return pos_ != o.pos_; }

   private:
    void skip_absent() {
      while (pos_ < map_->present_.size() && map_->present_[pos_] == 0) {
        ++pos_;
      }
    }
    const DenseMap* map_;
    std::size_t pos_;
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, present_.size()); }

 private:
  void grow(std::size_t n) {
    values_.resize(n);
    present_.resize(n, 0);
  }

  std::vector<V> values_;
  std::vector<std::uint8_t> present_;
  std::size_t size_ = 0;
};

}  // namespace centaur::util
