// util::Frame: the checksummed framing every persisted byte stream
// uses. A reader must hand back a payload only when its frame is whole
// and its digest matches, and must say where it stopped otherwise,
// keeping the frames before that point.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/binio.h"
#include "util/frame.h"

namespace panoptes::util {
namespace {

constexpr uint32_t kA = FrameTag("AAAA");
constexpr uint32_t kB = FrameTag("BBBB");

// Three frames: an empty one, a short one and a longer one.
std::string ThreeFrames(std::vector<size_t>* starts) {
  BinWriter out;
  const std::vector<std::string> payloads = {"", "short",
                                             std::string(300, 'x')};
  for (const std::string& payload : payloads) {
    starts->push_back(out.size());
    WriteFrame(out, kA, [&] { out.Raw(payload); });
  }
  starts->push_back(out.size());
  return out.Take();
}

TEST(Frame, RoundTripsPayloadsInOrder) {
  std::vector<size_t> starts;
  const std::string bytes = ThreeFrames(&starts);
  EXPECT_EQ(bytes.size(), 5 + 300 + 3 * kFrameOverhead);

  FrameReader reader(bytes);
  std::string_view payload;
  ASSERT_TRUE(reader.Next(kA, &payload));
  EXPECT_EQ(payload, "");
  ASSERT_TRUE(reader.Next(kA, &payload));
  EXPECT_EQ(payload, "short");
  ASSERT_TRUE(reader.Next(kA, &payload));
  EXPECT_EQ(payload, std::string(300, 'x'));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_FALSE(reader.Next(kA, &payload));
  EXPECT_EQ(reader.stop(), FrameReader::Stop::kEnd);
}

// Every single-byte change anywhere stops the reader at the frame that
// holds the byte, with every earlier frame read intact.
TEST(Frame, EveryFlippedByteStopsAtItsFrame) {
  std::vector<size_t> starts;
  const std::string bytes = ThreeFrames(&starts);
  for (size_t at = 0; at < bytes.size(); ++at) {
    std::string mutated = bytes;
    mutated[at] = static_cast<char>(mutated[at] ^ 0x20);
    size_t frame = 0;
    while (starts[frame + 1] <= at) ++frame;

    FrameReader reader(mutated);
    std::string_view payload;
    size_t read = 0;
    while (reader.Next(kA, &payload)) ++read;
    EXPECT_EQ(read, frame) << at;
    EXPECT_EQ(reader.offset(), starts[frame]) << at;
    EXPECT_NE(reader.stop(), FrameReader::Stop::kEnd) << at;
  }
}

TEST(Frame, TruncationKeepsTheIntactPrefix) {
  std::vector<size_t> starts;
  const std::string bytes = ThreeFrames(&starts);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameReader reader(std::string_view(bytes).substr(0, cut));
    std::string_view payload;
    size_t read = 0;
    while (reader.Next(kA, &payload)) ++read;
    size_t whole = 0;
    while (starts[whole + 1] <= cut) ++whole;
    EXPECT_EQ(read, whole) << cut;
    EXPECT_EQ(reader.offset(), starts[whole]) << cut;
    EXPECT_EQ(reader.stop(), cut == starts[whole]
                                 ? FrameReader::Stop::kEnd
                                 : FrameReader::Stop::kTruncated)
        << cut;
  }
}

TEST(Frame, AnIntactFrameOfAnotherTagStopsTheReader) {
  BinWriter out;
  WriteFrame(out, kB, [&] { out.Raw("payload"); });
  FrameReader reader(out.data());
  std::string_view payload;
  EXPECT_FALSE(reader.Next(kA, &payload));
  EXPECT_EQ(reader.stop(), FrameReader::Stop::kTag);
  EXPECT_EQ(reader.offset(), 0u);
  // A stopped reader stays stopped.
  EXPECT_FALSE(reader.Next(kB, &payload));
}

TEST(Frame, ReadFileBytesReadsTheWholeFile) {
  const auto dir = std::filesystem::temp_directory_path() / "panoptes_frame";
  std::filesystem::create_directories(dir);
  const auto path = dir / "file.bin";
  const std::string content(70000, 'q');
  {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << content;
  }
  std::string read;
  ASSERT_TRUE(ReadFileBytes(path, &read));
  EXPECT_EQ(read, content);
  EXPECT_FALSE(ReadFileBytes(dir / "missing.bin", &read));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace panoptes::util
