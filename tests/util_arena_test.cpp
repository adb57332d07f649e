#include "util/arena.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace panoptes::util {
namespace {

TEST(Arena, CopyReturnsIdenticalBytes) {
  Arena arena;
  std::string original = "hello\0world", with_nul("a\0b", 3);
  auto a = arena.Copy(original);
  auto b = arena.Copy(with_nul);
  EXPECT_EQ(a, std::string_view(original));
  EXPECT_EQ(b, std::string_view(with_nul));
  EXPECT_EQ(arena.bytes_used(), original.size() + with_nul.size());
}

TEST(Arena, ViewsSurviveGrowthAcrossManyChunks) {
  Arena arena(64);  // tiny first chunk forces frequent growth
  std::vector<std::string_view> views;
  std::vector<std::string> expected;
  for (int i = 0; i < 5000; ++i) {
    expected.push_back("value-" + std::to_string(i));
    views.push_back(arena.Copy(expected.back()));
  }
  // Every early view must still read back correctly — chunk growth
  // must never move previously handed-out bytes (ASan would flag a
  // stale read here if chunks reallocated).
  for (size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i], std::string_view(expected[i]));
  }
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_used());
}

TEST(Arena, ViewsSurviveArenaMove) {
  Arena arena(32);
  auto view = arena.Copy("stable across moves");
  Arena moved = std::move(arena);
  auto later = moved.Copy("post-move allocation");
  EXPECT_EQ(view, "stable across moves");
  EXPECT_EQ(later, "post-move allocation");
}

TEST(Arena, AllocArrayAlignedAndWritable) {
  Arena arena(16);
  arena.Copy("x");  // misalign the bump pointer
  uint64_t* values = arena.AllocArray<uint64_t>(9);
  ASSERT_EQ(reinterpret_cast<uintptr_t>(values) % alignof(uint64_t), 0u);
  for (int i = 0; i < 9; ++i) values[i] = 0x0101010101010101ull * i;
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(values[i], 0x0101010101010101ull * i);
  }
}

TEST(Arena, EmptyCopyAndClear) {
  Arena arena;
  auto empty = arena.Copy("");
  EXPECT_TRUE(empty.empty());
  arena.Copy("payload");
  arena.Clear();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), 0u);
  EXPECT_EQ(arena.Copy("after clear"), "after clear");
}

// Adopt moves chunks, never bytes: views into the source read back
// after the source is destroyed, byte accounting sums, the source is
// left empty, and both arenas keep allocating.
TEST(Arena, AdoptMovesEveryChunk) {
  Arena into(32);
  auto own = into.Copy("destination bytes");
  auto source = std::make_unique<Arena>(16);
  std::vector<std::string_view> views;
  std::vector<std::string> expected;
  for (int i = 0; i < 200; ++i) {
    expected.push_back("adopted-" + std::to_string(i));
    views.push_back(source->Copy(expected.back()));
  }
  const size_t used = into.bytes_used() + source->bytes_used();
  const size_t reserved = into.bytes_reserved() + source->bytes_reserved();
  const size_t source_chunks = source->ChunkRefs().size();
  ASSERT_GT(source_chunks, 1u);

  into.Adopt(std::move(*source));
  EXPECT_EQ(into.bytes_used(), used);
  EXPECT_EQ(into.bytes_reserved(), reserved);
  EXPECT_EQ(into.ChunkRefs().size(), 1 + source_chunks);
  EXPECT_EQ(source->bytes_used(), 0u);
  EXPECT_EQ(source->bytes_reserved(), 0u);
  EXPECT_TRUE(source->ChunkRefs().empty());

  EXPECT_EQ(source->Copy("source after adopt"), "source after adopt");
  source.reset();
  EXPECT_EQ(into.Copy("destination after adopt"), "destination after adopt");
  EXPECT_EQ(own, "destination bytes");
  for (size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i], std::string_view(expected[i]));
  }

  // Adopting itself changes nothing.
  into.Adopt(std::move(into));
  EXPECT_EQ(into.ChunkRefs().size(), 1 + source_chunks);
}

}  // namespace
}  // namespace panoptes::util
