#include "util/hex.h"

namespace panoptes::util {

namespace {

constexpr char kHex[] = "0123456789abcdef";

int Nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string HexEncode(std::string_view data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (unsigned char c : data) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xF]);
  }
  return out;
}

std::optional<std::string> HexDecode(std::string_view data) {
  if (data.size() % 2 != 0) return std::nullopt;
  std::string out;
  out.reserve(data.size() / 2);
  for (size_t i = 0; i < data.size(); i += 2) {
    int hi = Nibble(data[i]);
    int lo = Nibble(data[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

std::string Hex64(uint64_t value) {
  std::string out = "0x0000000000000000";
  for (size_t i = out.size(); value != 0; value >>= 4) {
    out[--i] = kHex[value & 0xF];
  }
  return out;
}

}  // namespace panoptes::util
