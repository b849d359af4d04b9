// FNV-1a 64, the one digest of the repository: trace op streams and read
// probes (src/trace/), Runtime::read_probe and its shadow-side twin
// ShadowMutator::data_digest, and the shard checkpoint seal
// (src/service/checkpoint.cpp). A 64-bit value is folded as its eight
// bytes, least significant first, so a 32-bit Word and its zero-extended
// 64-bit value give the same digest.
#pragma once

#include <cstdint>

namespace hwgc {

struct Fnv1a {
  static constexpr std::uint64_t kOffset = 14695981039346656037ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;

  std::uint64_t h = kOffset;

  void byte(std::uint8_t b) noexcept { h = (h ^ b) * kPrime; }

  void mix(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<std::uint8_t>(v & 0xffu));
      v >>= 8;
    }
  }
};

}  // namespace hwgc
