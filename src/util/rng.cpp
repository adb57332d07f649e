#include "util/rng.h"

#include <cmath>
#include <cstring>

#include "util/binio.h"

namespace panoptes::util {

namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t HashString(std::string_view s) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

uint64_t HashBytes64(std::string_view s) {
  // Mix one little-endian word per step (wyhash-style multiply-fold),
  // then run the tail through the same path padded with the length so
  // "abc" and "abc\0" cannot collide trivially.
  uint64_t h = 0x9E3779B97F4A7C15ULL ^ (s.size() * 0x100000001B3ULL);
  size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    uint64_t w = LoadLe64(s.data() + i);
    w *= 0x9DDFEA08EB382D69ULL;
    w ^= w >> 29;
    h = (h ^ w) * 0xBF58476D1CE4E5B9ULL;
  }
  uint64_t tail = s.size();
  for (; i < s.size(); ++i) {
    tail = (tail << 8) | static_cast<unsigned char>(s[i]);
  }
  h ^= tail;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 32;
  return h;
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(sm);
}

Rng Rng::Fork(std::string_view label) {
  return Rng(NextU64() ^ HashString(label));
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  // Rejection sampling to avoid modulo bias.
  uint64_t threshold = (~bound + 1) % bound;  // (2^64 - bound) % bound
  while (true) {
    uint64_t r = NextU64();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::NextInRange(int64_t lo, int64_t hi) {
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBelow(span));
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return NextDouble() < p;
}

double Rng::NextExponential(double mean) {
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

std::string Rng::NextToken(size_t length) {
  std::string out;
  out.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    out.push_back(static_cast<char>('a' + NextBelow(26)));
  }
  return out;
}

std::string Rng::NextHex(size_t length) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    out.push_back(kHex[NextBelow(16)]);
  }
  return out;
}

}  // namespace panoptes::util
