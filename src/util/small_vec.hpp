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
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <type_traits>

namespace centaur::util {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec is specialised for trivially copyable elements");
  static_assert(N > 0, "inline capacity must be positive");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  // User-provided (not defaulted) so `static const SmallVec` default-
  // initializes; inline_ is deliberately left uninitialized.
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
    if (size_ == cap_) grow_to(cap_ * 2);
    data_()[size_++] = v;
  }

  /// Inserts `v` before `pos`; returns the iterator at the inserted slot.
  iterator insert(iterator pos, const T& v) {
    const std::size_t at = static_cast<std::size_t>(pos - data_());
    if (size_ == cap_) grow_to(cap_ * 2);
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
  T* data_() { return heap_ ? heap_ : inline_; }
  const T* data_() const { return heap_ ? heap_ : inline_; }

  void grow_to(std::size_t want) {
    const std::size_t cap = std::max<std::size_t>(want, cap_ * 2);
    T* fresh = new T[cap];
    std::memcpy(static_cast<void*>(fresh), data_(), size_ * sizeof(T));
    if (heap_) delete[] heap_;
    heap_ = fresh;
    cap_ = cap;
  }

  /// Copies `other` into this empty vector: into the inline array when it
  /// fits, else into a fresh heap block.
  void assign_from(const SmallVec& other) {
    const std::size_t n = other.size_;
    if (n <= N) {
      copy_inline(other.data_(), n);
    } else {
      grow_to(n);
      std::memcpy(static_cast<void*>(heap_), other.data_(), n * sizeof(T));
    }
    size_ = n;
  }

  void steal_from(SmallVec& other) noexcept {
    if (other.heap_) {
      heap_ = other.heap_;
      cap_ = other.cap_;
      other.heap_ = nullptr;
      other.cap_ = N;
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
    delete[] heap_;
    heap_ = nullptr;
    cap_ = N;
    size_ = 0;
  }

  T inline_[N];
  T* heap_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = N;
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
