// Checksummed frames, the one integrity layer of every persisted byte
// stream (PANOSNAP snapshots, PANOSPILL spill segments).
//
// A frame is
//
//   u32  tag             what the payload is (see FrameTag)
//   u64  payload length
//   ...  payload
//   u64  digest          util::HashBytes64 over tag, length and payload
//
// all little-endian. The digest covers the frame's own header, so a
// flipped tag or length is caught like a flipped payload byte. A reader
// never trusts a payload whose frame is short or fails its digest: it
// stops there and says where, and the frames before that point are
// still intact (a salvaging reader keeps them).
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

#include "util/binio.h"

namespace panoptes::util {

// Four ASCII characters as a frame tag.
constexpr uint32_t FrameTag(const char (&name)[5]) {
  return static_cast<uint32_t>(static_cast<uint8_t>(name[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(name[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(name[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(name[3])) << 24;
}

// Bytes a frame adds around its payload.
inline constexpr size_t kFrameOverhead = 4 + 8 + 8;

namespace frame_detail {
size_t Begin(BinWriter& out, uint32_t tag);
void End(BinWriter& out, size_t start);
}  // namespace frame_detail

// Appends one frame to `out`. `write_payload()` writes the payload
// into `out` in place, so a large payload (a flow-store image) is never
// copied into a second buffer; the length and digest follow it.
template <typename Fn>
void WriteFrame(BinWriter& out, uint32_t tag, Fn&& write_payload) {
  const size_t start = frame_detail::Begin(out, tag);
  write_payload();
  frame_detail::End(out, start);
}

// Walks the frames of one buffer in order.
class FrameReader {
 public:
  enum class Stop {
    kNone,       // still reading
    kEnd,        // every byte consumed by intact frames
    kTruncated,  // a frame header or payload runs past the buffer
    kDigest,     // a frame's digest does not match its bytes
    kTag,        // an intact frame carries another tag than expected
  };

  explicit FrameReader(std::string_view bytes) : bytes_(bytes) {}

  // The next frame's payload when the frame is whole, its digest
  // matches and its tag is `tag`. Otherwise false: stop() says why and
  // offset() where (the start of the frame that failed). A stopped
  // reader stays stopped.
  bool Next(uint32_t tag, std::string_view* payload);

  // True once every byte has been read as intact frames.
  bool AtEnd() const { return pos_ == bytes_.size(); }
  size_t offset() const { return pos_; }
  Stop stop() const { return stop_; }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
  Stop stop_ = Stop::kNone;
};

// Reads the whole regular file at `path` into `out` with one sized
// read. False when the file cannot be opened or read in full.
bool ReadFileBytes(const std::filesystem::path& path, std::string* out);

}  // namespace panoptes::util
