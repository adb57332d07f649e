// Deterministic PRNG used everywhere randomness is needed.
//
// The reproduction regenerates every figure bit-identically, so all
// stochastic behaviour (site structure, request jitter, idle cadences)
// draws from seeded instances of this generator — never from global or
// wall-clock entropy.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace panoptes::util {

// xoshiro256** seeded via splitmix64. Copyable; copies evolve
// independently.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Derives a child generator from this one plus a label, so independent
  // subsystems get decorrelated streams from one campaign seed.
  Rng Fork(std::string_view label);

  uint64_t NextU64();

  // Uniform in [0, bound). bound must be > 0.
  uint64_t NextBelow(uint64_t bound);

  // Uniform in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi);

  // Uniform in [0, 1).
  double NextDouble();

  // True with probability p (clamped to [0, 1]).
  bool NextBool(double p);

  // Exponentially distributed with the given mean (> 0).
  double NextExponential(double mean);

  // Random lowercase ASCII identifier of `length` characters.
  std::string NextToken(size_t length);

  // Random lowercase hex string of `length` characters.
  std::string NextHex(size_t length);

  template <typename T>
  const T& Pick(const std::vector<T>& items) {
    return items[NextBelow(items.size())];
  }

  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = NextBelow(i);
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

 private:
  uint64_t s_[4];
};

// splitmix64 step, exposed for hashing labels into seeds.
uint64_t SplitMix64(uint64_t& state);

// Stable 64-bit hash of a string (FNV-1a), for seed derivation.
uint64_t HashString(std::string_view s);

// Fast 64-bit hash over bulk payloads, eight bytes per step — roughly
// 8x the throughput of HashString on large buffers. Words are read
// little-endian, so a digest is the same on every host: it is the
// checksum of every util::Frame (snapshots, spill segments) and the
// report pins' digest. Not for seed derivation.
uint64_t HashBytes64(std::string_view s);

}  // namespace panoptes::util
