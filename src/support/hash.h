// 64-bit FNV-1a, the one byte hash behind state digests, image keys,
// certificate checksums and additive-cache keys. Integers are hashed as
// their 8 little-endian bytes, so every digest is host-independent.
#ifndef POLYNIMA_SUPPORT_HASH_H_
#define POLYNIMA_SUPPORT_HASH_H_

#include <cstddef>
#include <cstdint>

namespace polynima {

constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

inline void FnvMixByte(uint64_t& h, uint8_t byte) {
  h = (h ^ byte) * kFnvPrime;
}

inline void FnvMixBytes(uint64_t& h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    FnvMixByte(h, p[i]);
  }
}

inline void FnvMixU64(uint64_t& h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    FnvMixByte(h, static_cast<uint8_t>(v >> (i * 8)));
  }
}

}  // namespace polynima

#endif  // POLYNIMA_SUPPORT_HASH_H_
