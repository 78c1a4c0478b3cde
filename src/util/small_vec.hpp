// Small-size-optimized vector for the protocol hot paths.
//
// P-graph adjacency lists are tiny almost everywhere (the vast majority of
// nodes have one parent; multi-homed nodes a handful), yet the seed stored
// them as std::vector values inside node-based maps — every list was a
// separate heap block.  SmallVec keeps up to N elements inline so the common
// case costs zero allocations and stays on the same cache lines as its owner,
// spilling to the heap only for the rare large list.
//
// Restricted to trivially copyable element types (NodeId and friends): that
// keeps growth/relocation a memcpy and the type layout-stable inside
// FlatMap slots.
//
// Layout (DESIGN.md §5.1): a 32-bit size and a 32-bit capacity, then the
// inline array and the heap pointer sharing one union — the vector is on the
// heap iff its capacity exceeds N.  On LP64 a SmallVec<NodeId, 4> is 24
// bytes, against 40 for three words beside the inline array; millions of
// them sit in P-graph adjacency tables and Permission Lists.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <type_traits>

namespace centaur::util {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec is specialised for trivially copyable elements");
  static_assert(N > 0, "inline capacity must be positive");
  static_assert(N < std::numeric_limits<std::uint32_t>::max(),
                "inline capacity must fit the 32-bit header");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  /// Largest size the 32-bit header can hold; growing past it throws
  /// std::length_error before allocating.
  static constexpr std::size_t kMaxSize =
      std::numeric_limits<std::uint32_t>::max();

  // User-provided (not defaulted) so `static const SmallVec` default-
  // initializes; the storage union is deliberately left uninitialized.
  SmallVec() noexcept {}  // NOLINT(modernize-use-equals-default)

  SmallVec(std::initializer_list<T> init) {
    reserve(init.size());
    for (const T& v : init) push_back(v);
  }

  SmallVec(const SmallVec& other) { assign_from(other); }

  SmallVec(SmallVec&& other) noexcept { steal_from(other); }

  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) {
      release();
      assign_from(other);
    }
    return *this;
  }

  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      release();
      steal_from(other);
    }
    return *this;
  }

  ~SmallVec() { release(); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }

  T* data() { return data_(); }
  const T* data() const { return data_(); }

  iterator begin() { return data_(); }
  iterator end() { return data_() + size_; }
  const_iterator begin() const { return data_(); }
  const_iterator end() const { return data_() + size_; }

  T& operator[](std::size_t i) { return data_()[i]; }
  const T& operator[](std::size_t i) const { return data_()[i]; }
  T& front() { return data_()[0]; }
  const T& front() const { return data_()[0]; }
  T& back() { return data_()[size_ - 1]; }
  const T& back() const { return data_()[size_ - 1]; }

  void clear() { size_ = 0; }

  void reserve(std::size_t want) {
    if (want > cap_) grow_to(want);
  }

  void push_back(const T& v) {
    if (size_ == cap_) grow_to(std::size_t{cap_} * 2);
    data_()[size_++] = v;
  }

  /// Inserts `v` before `pos`; returns the iterator at the inserted slot.
  iterator insert(iterator pos, const T& v) {
    const std::size_t at = static_cast<std::size_t>(pos - data_());
    if (size_ == cap_) grow_to(std::size_t{cap_} * 2);
    T* d = data_();
    std::memmove(d + at + 1, d + at, (size_ - at) * sizeof(T));
    d[at] = v;
    ++size_;
    return d + at;
  }

  iterator erase(iterator pos) {
    const std::size_t at = static_cast<std::size_t>(pos - data_());
    T* d = data_();
    std::memmove(d + at, d + at + 1, (size_ - at - 1) * sizeof(T));
    --size_;
    return d + at;
  }

  void pop_back() { --size_; }

  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    return a.size_ == b.size_ &&
           std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  static constexpr std::uint32_t kInline = static_cast<std::uint32_t>(N);

  bool on_heap() const { return cap_ > kInline; }
  T* data_() { return on_heap() ? heap_ : inline_; }
  const T* data_() const { return on_heap() ? heap_ : inline_; }

  /// Moves the elements into a fresh heap block of at least `want` slots
  /// (at least double the current capacity, at most kMaxSize).
  void grow_to(std::size_t want) {
    if (want > kMaxSize) {
      throw std::length_error("SmallVec: more than 2^32 - 1 elements");
    }
    const std::size_t cap =
        std::min(kMaxSize, std::max<std::size_t>(want, std::size_t{cap_} * 2));
    T* fresh = new T[cap];
    std::memcpy(static_cast<void*>(fresh), data_(), size_ * sizeof(T));
    if (on_heap()) delete[] heap_;
    heap_ = fresh;
    cap_ = static_cast<std::uint32_t>(cap);
  }

  /// Copies `other` into this empty, inline vector: into the inline array
  /// when it fits, else into a fresh heap block.  More than N elements means
  /// `other` is on the heap, so the heap branch copies from `other.heap_`
  /// directly (reading it through data_() trips GCC's -Warray-bounds, which
  /// cannot tell the storage modes apart).
  void assign_from(const SmallVec& other) {
    const std::size_t n = other.size_;
    if (n <= N) {
      copy_inline(other.data_(), n);
    } else {
      grow_to(n);
      std::memcpy(static_cast<void*>(heap_), other.heap_, n * sizeof(T));
    }
    size_ = static_cast<std::uint32_t>(n);
  }

  /// Takes `other`'s contents into this empty, inline vector and leaves
  /// `other` empty and inline.
  void steal_from(SmallVec& other) noexcept {
    if (other.on_heap()) {
      heap_ = other.heap_;
      cap_ = other.cap_;
      other.cap_ = kInline;
    } else {
      copy_inline(other.inline_, other.size_);
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  /// Copies `n` (<= N) elements into the inline array.  The loop is bounded
  /// by N itself, so the compiler can see every write stays inside inline_
  /// even where it cannot tell which storage mode a vector is in.
  void copy_inline(const T* src, std::size_t n) {
    for (std::size_t i = 0; i < n && i < N; ++i) inline_[i] = src[i];
  }

  void release() {
    if (on_heap()) delete[] heap_;
    cap_ = kInline;
    size_ = 0;
  }

  std::uint32_t size_ = 0;
  std::uint32_t cap_ = kInline;
  union {
    T inline_[N];  // live while cap_ == N
    T* heap_;      // live while cap_ > N
  };
};

/// Sorted-ascending insert; returns false if `x` was already present.
template <typename Vec, typename T>
bool sorted_insert(Vec& v, const T& x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it != v.end() && *it == x) return false;
  v.insert(it, x);
  return true;
}

/// Sorted-ascending erase; returns false if `x` was absent.
template <typename Vec, typename T>
bool sorted_erase(Vec& v, const T& x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it == v.end() || *it != x) return false;
  v.erase(it);
  return true;
}

/// Sorted-ascending membership test.
template <typename Vec, typename T>
bool sorted_contains(const Vec& v, const T& x) {
  return std::binary_search(v.begin(), v.end(), x);
}

}  // namespace centaur::util
