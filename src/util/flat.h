// Flat, arena-backed containers for the transaction hot path.
//
// FlatVec<T> is a growable array of trivially copyable entries whose storage
// comes from an Arena (growth memcpy-moves into a fresh arena block; the old
// block becomes garbage until the arena resets — bounded by geometric
// growth). PtrIndex is an open-addressed pointer -> dense-index hash table
// with the same storage discipline. Together they replace the node-allocating
// std::vector + std::unordered_map pairs of the Silo read/write/node sets:
// entries stay dense and in insertion order (validation and install order are
// unchanged), the index gives O(1) dedup, and neither touches the heap.
//
// Neither container erases individual elements (transaction sets only ever
// grow, then clear wholesale), which keeps probing tombstone-free.

#ifndef REACTDB_UTIL_FLAT_H_
#define REACTDB_UTIL_FLAT_H_

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "src/util/arena.h"

namespace reactdb {

template <typename T>
class FlatVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "FlatVec entries are memcpy-moved on growth");

 public:
  void push_back(Arena* arena, const T& v) {
    if (size_ == cap_) Grow(arena);
    data_[size_++] = v;
  }

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T& back() { return data_[size_ - 1]; }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() { size_ = 0; }

  /// Forgets the storage without touching it (the owning arena was or will
  /// be reset).
  void Drop() {
    data_ = nullptr;
    size_ = 0;
    cap_ = 0;
  }

  /// Sets the size to exactly n, growing as needed in one allocation (used
  /// for the commit-time lock-order permutation and the audit blob). New
  /// elements are uninitialized.
  void ResizeUninitialized(Arena* arena, size_t n) {
    if (cap_ < n) GrowTo(arena, n);
    size_ = static_cast<uint32_t>(n);
  }

  /// Ensures capacity for n elements without changing the size.
  void Reserve(Arena* arena, size_t n) {
    if (cap_ < n) GrowTo(arena, n);
  }

 private:
  void Grow(Arena* arena) { GrowTo(arena, cap_ + 1); }

  void GrowTo(Arena* arena, size_t need) {
    uint32_t new_cap = cap_ == 0 ? 16 : cap_ * 2;
    while (new_cap < need) new_cap *= 2;
    T* fresh = arena->AllocateArrayUninitialized<T>(new_cap);
    if (size_ != 0) std::memcpy(fresh, data_, size_ * sizeof(T));
    data_ = fresh;
    cap_ = new_cap;
  }

  T* data_ = nullptr;
  uint32_t size_ = 0;
  uint32_t cap_ = 0;
};

/// Open-addressed hash table from pointer keys to dense uint32 indices
/// (linear probing, power-of-two capacity, max load factor 1/2). No erase.
class PtrIndex {
 public:
  static constexpr uint32_t kNpos = ~0u;

  /// Index stored for `key`, or kNpos.
  uint32_t Find(const void* key) const {
    if (cap_ == 0) return kNpos;
    uint32_t mask = cap_ - 1;
    for (uint32_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      if (slots_[i].key == nullptr) return kNpos;
      if (slots_[i].key == key) return slots_[i].value;
    }
  }

  /// Inserts key -> value if absent. Returns the resident value (the
  /// existing one on duplicate) and whether an insert happened.
  std::pair<uint32_t, bool> Emplace(Arena* arena, const void* key,
                                    uint32_t value) {
    if (size_ * 2 >= cap_) Rehash(arena);
    uint32_t mask = cap_ - 1;
    for (uint32_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      if (slots_[i].key == nullptr) {
        slots_[i].key = key;
        slots_[i].value = value;
        ++size_;
        return {value, true};
      }
      if (slots_[i].key == key) return {slots_[i].value, false};
    }
  }

  size_t size() const { return size_; }

  void clear() {
    if (cap_ != 0) std::memset(slots_, 0, cap_ * sizeof(Slot));
    size_ = 0;
  }

  void Drop() {
    slots_ = nullptr;
    size_ = 0;
    cap_ = 0;
  }

 private:
  struct Slot {
    const void* key;  // nullptr = empty
    uint32_t value;
  };

  static uint32_t Hash(const void* key) {
    // Fibonacci mixing of the pointer bits (low bits are alignment zeros).
    uint64_t h = reinterpret_cast<uintptr_t>(key);
    h ^= h >> 33;
    h *= 0x9E3779B97F4A7C15ull;
    return static_cast<uint32_t>(h >> 32);
  }

  void Rehash(Arena* arena) {
    uint32_t new_cap = cap_ == 0 ? 32 : cap_ * 2;
    Slot* fresh = arena->AllocateArrayUninitialized<Slot>(new_cap);
    std::memset(fresh, 0, new_cap * sizeof(Slot));
    uint32_t mask = new_cap - 1;
    for (uint32_t i = 0; i < cap_; ++i) {
      if (slots_[i].key == nullptr) continue;
      for (uint32_t j = Hash(slots_[i].key) & mask;; j = (j + 1) & mask) {
        if (fresh[j].key == nullptr) {
          fresh[j] = slots_[i];
          break;
        }
      }
    }
    slots_ = fresh;
    cap_ = new_cap;
  }

  Slot* slots_ = nullptr;
  uint32_t size_ = 0;
  uint32_t cap_ = 0;
};

/// Small sorted set of container ids touched by a transaction. Arena-backed;
/// iteration is ascending (matching the std::set it replaces, so 2PC cost
/// accounting order is unchanged).
class ContainerSet {
 public:
  bool insert(Arena* arena, uint32_t c) {
    size_t lo = LowerBound(c);
    if (lo < vals_.size() && vals_[lo] == c) return false;
    vals_.push_back(arena, 0);  // grow by one, then shift
    for (size_t i = vals_.size() - 1; i > lo; --i) vals_[i] = vals_[i - 1];
    vals_[lo] = c;
    return true;
  }

  bool contains(uint32_t c) const {
    size_t lo = LowerBound(c);
    return lo < vals_.size() && vals_[lo] == c;
  }

  size_t size() const { return vals_.size(); }
  bool empty() const { return vals_.empty(); }
  const uint32_t* begin() const { return vals_.begin(); }
  const uint32_t* end() const { return vals_.end(); }

  void clear() { vals_.clear(); }
  void Drop() { vals_.Drop(); }

 private:
  size_t LowerBound(uint32_t c) const {
    size_t lo = 0, hi = vals_.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (vals_[mid] < c) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  FlatVec<uint32_t> vals_;
};

}  // namespace reactdb

#endif  // REACTDB_UTIL_FLAT_H_
