// Bounds-checked little-endian binary encoding, the substrate of the
// job-snapshot format (core/snapshot.h).
//
// Snapshots are content-fingerprinted and compared byte-for-byte across
// machines, so the encoding is fixed-width, endian-pinned and never
// writes padding or in-memory representations directly. Readers are
// fail-soft: any underflow or oversized length poisons the reader
// (ok() goes false) and every subsequent read returns zero values, so
// decoding a truncated or corrupt file is safe without exceptions.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace panoptes::util {

// Little-endian fixed-width loads and stores at a raw position, for
// decoders that bounds-check a whole fixed-width record once and then
// read its fields in place.
inline uint32_t LoadLe32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}
inline uint64_t LoadLe64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}
inline void StoreLe32(char* p, uint32_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  std::memcpy(p, &v, sizeof(v));
}
inline void StoreLe64(char* p, uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(p, &v, sizeof(v));
}

// Unchecked fixed-width little-endian cursors over one record whose
// bounds the caller has checked (BinWriter::Grow, a length test).
struct FieldWriter {
  char* p;
  void U8(uint8_t v) { *p++ = static_cast<char>(v); }
  void U32(uint32_t v) {
    StoreLe32(p, v);
    p += 4;
  }
  void U64(uint64_t v) {
    StoreLe64(p, v);
    p += 8;
  }
};
struct FieldReader {
  const char* p;
  uint8_t U8() { return static_cast<uint8_t>(*p++); }
  uint32_t U32() {
    const uint32_t v = LoadLe32(p);
    p += 4;
    return v;
  }
  uint64_t U64() {
    const uint64_t v = LoadLe64(p);
    p += 8;
    return v;
  }
};

// Appends fixed-width little-endian values to an owned buffer.
class BinWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  // IEEE-754 bit pattern; bit-exact round trip.
  void F64(double v);
  // u32 byte length + raw bytes.
  void Str(std::string_view s);
  // Raw bytes, no length prefix — for blob payloads whose framing the
  // caller encodes separately (a flow-store image's text block).
  void Raw(std::string_view bytes) { out_.append(bytes.data(), bytes.size()); }
  // Appends `n` zero bytes and returns where they start, for a writer
  // that fills a fixed-width record in place with StoreLe32/StoreLe64.
  // Valid until the next write.
  char* Grow(size_t n) {
    const size_t at = out_.size();
    out_.resize(at + n);
    return out_.data() + at;
  }
  // Overwrites the u64 written at byte `at` (a length known only once
  // what follows it is written).
  void PatchU64(size_t at, uint64_t v) { StoreLe64(out_.data() + at, v); }
  void Reserve(size_t n) { out_.reserve(n); }

  size_t size() const { return out_.size(); }
  const std::string& data() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

// Cursor over an immutable byte buffer. The caller checks ok() once
// after decoding; individual reads never throw.
class BinReader {
 public:
  explicit BinReader(std::string_view data) : data_(data) {}

  uint8_t U8();
  bool Bool() { return U8() != 0; }
  uint32_t U32();
  uint64_t U64();
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64();
  std::string Str();
  // A byte naming an enumerator no greater than `last`; any other byte
  // poisons the reader, so corrupt input never becomes an enum value.
  template <typename E>
  E Enum(E last) {
    const uint8_t v = U8();
    if (v > static_cast<uint8_t>(last)) ok_ = false;
    return ok_ ? static_cast<E>(v) : E{};
  }
  // `n` raw bytes as a view into the underlying buffer (valid while the
  // buffer lives); empty + poisoned on underflow.
  std::string_view Raw(size_t n) { return Bytes(n); }

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  // Grabs `n` raw bytes, or poisons the reader.
  std::string_view Bytes(size_t n);

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace panoptes::util
