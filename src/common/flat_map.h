#ifndef QAGVIEW_COMMON_FLAT_MAP_H_
#define QAGVIEW_COMMON_FLAT_MAP_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace qagview {

/// \brief Open-addressing hash map from uint64 keys to int32 values,
/// specialized for two hot paths: the cluster-universe index (packed
/// cluster patterns -> cluster ids) and the SQL executor's grouping kernel
/// (column values and group keys -> dense first-seen ids).
///
/// Linear probing over a power-of-two table with splitmix64 key mixing;
/// keys and values live in flat arrays, so probes cost one cache line in
/// the common case (node-based std::unordered_map costs several).
///
/// The all-ones key is reserved as the empty marker, and every user
/// guarantees it never inserts it:
///  * Packed patterns never produce it: a lane holds code+1 (up to 255) or
///    0, and the single shape that could saturate all eight lanes — 8
///    attributes, every domain exactly 255 values — is rejected by
///    ClusterUniverse::CanPack, which falls back to the vector-keyed index
///    for that corner.
///  * The executor (sql/executor.cc) gives the int64 -1, whose bit pattern
///    is all ones, a fixed code of its own instead of a map entry; it maps
///    doubles by canonical bits, where every NaN (all ones is one) shares a
///    single non-all-ones pattern; and it re-densifies group keys before
///    they reach 2^62.
class FlatMap64 {
 public:
  explicit FlatMap64(size_t expected = 0) { Reset(expected); }

  size_t size() const { return size_; }

  /// Clears and re-reserves.
  void Reset(size_t expected) {
    size_t capacity = 16;
    while (capacity < expected * 2) capacity <<= 1;
    keys_.assign(capacity, kEmpty);
    values_.assign(capacity, 0);
    mask_ = capacity - 1;
    size_ = 0;
  }

  /// Grows the table, keeping every entry, to at least the capacity
  /// Reset(expected) would give it.
  void Reserve(size_t expected) {
    size_t capacity = mask_ + 1;
    while (capacity < expected * 2) capacity <<= 1;
    if (capacity != mask_ + 1) Rehash(capacity);
  }

  /// Inserts key -> value if absent. Returns the current value and whether
  /// the insert happened.
  std::pair<int32_t, bool> FindOrInsert(uint64_t key, int32_t value) {
    QAG_DCHECK(key != kEmpty);
    if ((size_ + 1) * 10 >= (mask_ + 1) * 7) {
      Rehash((mask_ + 1) * 2);  // load factor 0.7
    }
    size_t slot = Mix(key) & mask_;
    while (true) {
      if (keys_[slot] == kEmpty) {
        keys_[slot] = key;
        values_[slot] = value;
        ++size_;
        return {value, true};
      }
      if (keys_[slot] == key) return {values_[slot], false};
      slot = (slot + 1) & mask_;
    }
  }

  /// Returns the value for key, or `fallback` if absent.
  int32_t FindOr(uint64_t key, int32_t fallback) const {
    size_t slot = Mix(key) & mask_;
    while (true) {
      if (keys_[slot] == kEmpty) return fallback;
      if (keys_[slot] == key) return values_[slot];
      slot = (slot + 1) & mask_;
    }
  }

  bool Contains(uint64_t key) const {
    size_t slot = Mix(key) & mask_;
    while (true) {
      if (keys_[slot] == kEmpty) return false;
      if (keys_[slot] == key) return true;
      slot = (slot + 1) & mask_;
    }
  }

 private:
  static constexpr uint64_t kEmpty = ~0ULL;

  static uint64_t Mix(uint64_t x) {
    // splitmix64 finalizer.
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  void Rehash(size_t capacity) {
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<int32_t> old_values = std::move(values_);
    keys_.assign(capacity, kEmpty);
    values_.assign(capacity, 0);
    mask_ = capacity - 1;
    size_ = 0;
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] != kEmpty) FindOrInsert(old_keys[i], old_values[i]);
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<int32_t> values_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace qagview

#endif  // QAGVIEW_COMMON_FLAT_MAP_H_
