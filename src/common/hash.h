#ifndef QAGVIEW_COMMON_HASH_H_
#define QAGVIEW_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace qagview {

/// 64-bit FNV-1a over `data`. Every step is a bijection of the running
/// state for a fixed input byte, so two equal-length inputs that differ in
/// exactly one byte never collide — the property the grid-file checksum
/// relies on to reject every single-byte change.
inline uint64_t Fnv1a64(std::string_view data) {
  uint64_t hash = 14695981039346656037ull;
  for (unsigned char c : data) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Mixes `value`'s hash into `seed` (boost::hash_combine recipe).
template <typename T>
void HashCombine(size_t* seed, const T& value) {
  *seed ^= std::hash<T>()(value) + 0x9e3779b97f4a7c15ULL + (*seed << 6) +
           (*seed >> 2);
}

/// Hash functor for vectors of hashable elements; used to key cluster
/// patterns (vectors of int32 attribute codes) in hash maps.
template <typename T>
struct VectorHash {
  size_t operator()(const std::vector<T>& v) const {
    size_t seed = v.size();
    for (const T& x : v) HashCombine(&seed, x);
    return seed;
  }
};

}  // namespace qagview

#endif  // QAGVIEW_COMMON_HASH_H_
