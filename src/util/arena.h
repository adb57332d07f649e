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

  // The live chunk chain, in allocation order: base address and bytes
  // handed out per chunk. Every view the arena ever returned points
  // into one of these ranges — the property relocatable spill dumps
  // rely on to image a store as (chunk bytes, pointer fixup table).
  struct ChunkRef {
    const char* data;
    size_t used;
  };
  std::vector<ChunkRef> ChunkRefs() const;

  // Appends one fully-used chunk holding a copy of `src` and returns
  // its base. Used when replaying a relocatable dump: the copied image
  // keeps its internal offsets, so old views rebase by adding
  // (new base - old base). The current bump chunk is left alone;
  // later Allocs continue from a fresh chunk.
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
