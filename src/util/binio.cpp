#include "util/binio.h"

#include <bit>

namespace panoptes::util {

void BinWriter::U32(uint32_t v) {
  char bytes[4];
  StoreLe32(bytes, v);
  out_.append(bytes, sizeof(bytes));
}

void BinWriter::U64(uint64_t v) {
  char bytes[8];
  StoreLe64(bytes, v);
  out_.append(bytes, sizeof(bytes));
}

void BinWriter::F64(double v) { U64(std::bit_cast<uint64_t>(v)); }

void BinWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  out_.append(s.data(), s.size());
}

std::string_view BinReader::Bytes(size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return {};
  }
  std::string_view out = data_.substr(pos_, n);
  pos_ += n;
  return out;
}

uint8_t BinReader::U8() {
  std::string_view bytes = Bytes(1);
  return ok_ ? static_cast<uint8_t>(bytes[0]) : 0;
}

uint32_t BinReader::U32() {
  std::string_view bytes = Bytes(4);
  return ok_ ? LoadLe32(bytes.data()) : 0;
}

uint64_t BinReader::U64() {
  std::string_view bytes = Bytes(8);
  return ok_ ? LoadLe64(bytes.data()) : 0;
}

double BinReader::F64() { return std::bit_cast<double>(U64()); }

std::string BinReader::Str() {
  uint32_t n = U32();
  // The length itself is untrusted input: a corrupt header must not
  // trigger a multi-gigabyte allocation before the bounds check.
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return {};
  }
  return std::string(Bytes(n));
}

}  // namespace panoptes::util
