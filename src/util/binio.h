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

#include <cstdint>
#include <string>
#include <string_view>

namespace panoptes::util {

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
  // caller encodes separately (the arena FlowStore blits).
  void Raw(std::string_view bytes) { out_.append(bytes.data(), bytes.size()); }

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
