// Bump allocator with chunked, address-stable storage.
//
// An Arena hands out raw byte ranges (and typed arrays) from a chain of
// malloc'd chunks. Chunks are never reallocated or freed before the
// arena itself is cleared or destroyed, so a pointer or string_view into
// the arena stays valid across any number of later allocations — the
// property FlowStore relies on to expose string_view accessors over
// flows while the store keeps growing. Moving an Arena, or Adopting it
// into another, moves the chunk chain (views survive); copying is
// deliberately disabled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace panoptes::util {

class Arena {
 public:
  // `min_chunk` is the size of the first chunk; later chunks grow
  // geometrically (capped) so allocation count stays logarithmic in
  // total bytes.
  explicit Arena(size_t min_chunk = 4096) : min_chunk_(min_chunk) {}

  Arena(Arena&&) = default;
  Arena& operator=(Arena&&) = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Uninitialized byte range of `n` bytes (unaligned). n == 0 returns a
  // non-null pointer into the current chunk.
  char* Alloc(size_t n);

  // Copies `bytes` into the arena and returns the stable view.
  std::string_view Copy(std::string_view bytes);

  // Uninitialized array of `n` trivially-destructible Ts, aligned for T.
  // The arena never runs destructors, hence the restriction.
  template <typename T>
  T* AllocArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>);
    return reinterpret_cast<T*>(AllocAligned(n * sizeof(T), alignof(T)));
  }

  size_t bytes_used() const { return used_; }
  size_t bytes_reserved() const { return reserved_; }
  size_t chunk_count() const { return chunks_.size(); }

  // The arena's bytes as one block: every chunk's used bytes back to
  // back, in chain order — what a flow-store image writes as its text
  // block — with the offset in that block of any range the arena
  // handed out.
  class Block {
   public:
    explicit Block(const Arena& arena);
    uint64_t size() const { return size_; }
    // The block's pieces, one per non-empty chunk, in chain order.
    const std::vector<std::string_view>& chunks() const { return chunks_; }
    // Offset of `range`, which lies inside one chunk; the empty range
    // is offset 0. Ranges are looked up near the previous one first.
    // Throws std::logic_error for a range the arena never handed out.
    uint64_t OffsetOf(std::string_view range);

   private:
    struct Span {
      uintptr_t begin;
      uintptr_t end;
      uint64_t offset;
    };
    std::vector<std::string_view> chunks_;
    std::vector<Span> spans_;  // sorted by address
    uint64_t size_ = 0;
    size_t hint_ = 0;
  };

  // Appends one fully-used chunk holding a copy of `src` and returns
  // its base: a decoded flow-store image's text block, whose views are
  // offsets into it. The current bump chunk is left alone; later
  // Allocs continue from a fresh chunk.
  char* AdoptBlock(const char* src, size_t n);

  // Moves every chunk of `other` onto the end of this arena's chain,
  // with its bytes_used and bytes_reserved: views into `other` stay
  // valid and are now owned by this arena. No byte is copied. `other`
  // is left empty and still allocates; later Allocs here continue in
  // the last adopted chunk. Adopting this arena itself is a no-op.
  void Adopt(Arena&& other);

  // Frees every chunk. All views into the arena dangle after this.
  void Clear();

 private:
  struct Chunk {
    std::unique_ptr<char[]> data;
    size_t used = 0;
    size_t cap = 0;
  };

  char* AllocAligned(size_t n, size_t align);
  void AddChunk(size_t at_least);

  std::vector<Chunk> chunks_;
  size_t min_chunk_;
  size_t used_ = 0;      // bytes handed out (excludes alignment padding)
  size_t reserved_ = 0;  // bytes malloc'd
};

}  // namespace panoptes::util
