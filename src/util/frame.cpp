#include "util/frame.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

#include "util/rng.h"

namespace panoptes::util {

namespace frame_detail {

size_t Begin(BinWriter& out, uint32_t tag) {
  const size_t start = out.size();
  out.U32(tag);
  out.U64(0);  // the payload length, patched by End
  return start;
}

void End(BinWriter& out, size_t start) {
  out.PatchU64(start + 4, out.size() - start - 12);
  out.U64(HashBytes64(std::string_view(out.data()).substr(start)));
}

}  // namespace frame_detail

bool FrameReader::Next(uint32_t tag, std::string_view* payload) {
  if (stop_ != Stop::kNone) return false;
  if (AtEnd()) {
    stop_ = Stop::kEnd;
    return false;
  }
  const std::string_view rest = bytes_.substr(pos_);
  if (rest.size() < kFrameOverhead) {
    stop_ = Stop::kTruncated;
    return false;
  }
  const uint64_t length = LoadLe64(rest.data() + 4);
  if (length > rest.size() - kFrameOverhead) {
    stop_ = Stop::kTruncated;
    return false;
  }
  const size_t covered = 12 + static_cast<size_t>(length);
  if (LoadLe64(rest.data() + covered) != HashBytes64(rest.substr(0, covered))) {
    stop_ = Stop::kDigest;
    return false;
  }
  if (LoadLe32(rest.data()) != tag) {
    stop_ = Stop::kTag;
    return false;
  }
  *payload = rest.substr(12, static_cast<size_t>(length));
  pos_ += covered + 8;
  return true;
}

bool ReadFileBytes(const std::filesystem::path& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return false;
  }
  out->resize(static_cast<size_t>(st.st_size));
  size_t got = 0;
  while (got < out->size()) {
    const ssize_t n = ::read(fd, out->data() + got, out->size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  return got == out->size();
}

}  // namespace panoptes::util
