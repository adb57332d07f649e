#include "util/arena.h"

#include <algorithm>
#include <cstring>
#include <iterator>

namespace panoptes::util {

namespace {
// Chunks stop doubling here: one oversized store must not hold
// gigabyte chunks mostly empty.
constexpr size_t kMaxChunk = size_t{1} << 22;  // 4 MiB
}  // namespace

void Arena::AddChunk(size_t at_least) {
  size_t cap = chunks_.empty()
                   ? min_chunk_
                   : std::min(chunks_.back().cap * 2, kMaxChunk);
  cap = std::max(cap, at_least);
  Chunk chunk;
  chunk.data = std::make_unique<char[]>(cap);
  chunk.cap = cap;
  reserved_ += cap;
  chunks_.push_back(std::move(chunk));
}

char* Arena::Alloc(size_t n) {
  if (chunks_.empty() || chunks_.back().used + n > chunks_.back().cap) {
    AddChunk(n);
  }
  Chunk& chunk = chunks_.back();
  char* out = chunk.data.get() + chunk.used;
  chunk.used += n;
  used_ += n;
  return out;
}

char* Arena::AllocAligned(size_t n, size_t align) {
  if (!chunks_.empty()) {
    Chunk& chunk = chunks_.back();
    size_t aligned = (chunk.used + align - 1) & ~(align - 1);
    if (aligned + n <= chunk.cap) {
      chunk.used = aligned;
      char* out = chunk.data.get() + chunk.used;
      chunk.used += n;
      used_ += n;
      return out;
    }
  }
  // A fresh chunk is malloc'd, hence aligned for any fundamental type.
  AddChunk(n);
  Chunk& chunk = chunks_.back();
  char* out = chunk.data.get();
  chunk.used = n;
  used_ += n;
  return out;
}

std::vector<Arena::ChunkRef> Arena::ChunkRefs() const {
  std::vector<ChunkRef> out;
  out.reserve(chunks_.size());
  for (const Chunk& chunk : chunks_) {
    out.push_back(ChunkRef{chunk.data.get(), chunk.used});
  }
  return out;
}

char* Arena::AdoptBlock(const char* src, size_t n) {
  Chunk chunk;
  // make_unique<char[]> (operator new[]) returns storage aligned for
  // any fundamental type, like the original chunk base, so interior
  // objects (HeaderView arrays) keep their alignment at the same
  // offsets.
  chunk.data = std::make_unique<char[]>(n);
  chunk.cap = n;
  chunk.used = n;
  if (n > 0) std::memcpy(chunk.data.get(), src, n);
  reserved_ += n;
  used_ += n;
  char* base = chunk.data.get();
  chunks_.push_back(std::move(chunk));
  return base;
}

std::string_view Arena::Copy(std::string_view bytes) {
  char* out = Alloc(bytes.size());
  if (!bytes.empty()) std::memcpy(out, bytes.data(), bytes.size());
  return std::string_view(out, bytes.size());
}

void Arena::Adopt(Arena&& other) {
  if (&other == this) return;
  chunks_.insert(chunks_.end(), std::make_move_iterator(other.chunks_.begin()),
                 std::make_move_iterator(other.chunks_.end()));
  used_ += other.used_;
  reserved_ += other.reserved_;
  other.Clear();
}

void Arena::Clear() {
  chunks_.clear();
  used_ = 0;
  reserved_ = 0;
}

}  // namespace panoptes::util
