// Clock, UUID, hex and logging tests.
#include <gtest/gtest.h>

#include "util/clock.h"
#include "util/hex.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/uuid.h"

namespace panoptes::util {
namespace {

TEST(Clock, StartsAtCrawlEpochAndAdvances) {
  SimClock clock;
  SimTime start = clock.Now();
  EXPECT_EQ(start.millis, 1683849600000LL);  // 2023-05-12T00:00:00Z
  clock.Advance(Duration::Seconds(5));
  EXPECT_EQ((clock.Now() - start).millis, 5000);
}

TEST(Clock, DurationHelpers) {
  EXPECT_EQ(Duration::Minutes(10).millis, 600000);
  EXPECT_EQ(Duration::Seconds(1).millis, 1000);
  EXPECT_EQ((Duration::Seconds(2) + Duration::Millis(500)).millis, 2500);
  EXPECT_EQ((Duration::Seconds(2) * 3).millis, 6000);
  EXPECT_DOUBLE_EQ(Duration::Millis(1500).ToSecondsF(), 1.5);
  EXPECT_LT(Duration::Seconds(1), Duration::Seconds(2));
}

TEST(Clock, FormatTimestamp) {
  EXPECT_EQ(FormatTimestamp(SimTime{0}), "1970-01-01T00:00:00.000Z");
  EXPECT_EQ(FormatTimestamp(SimTime{1683849600000LL}),
            "2023-05-12T00:00:00.000Z");
  // Leap-year handling: 2024-02-29.
  EXPECT_EQ(FormatTimestamp(SimTime{1709164800000LL}),
            "2024-02-29T00:00:00.000Z");
  EXPECT_EQ(FormatTimestamp(SimTime{1683849600123LL}),
            "2023-05-12T00:00:00.123Z");
}

TEST(Clock, ToUnixSeconds) {
  EXPECT_EQ(ToUnixSeconds(SimTime{1683849600123LL}), 1683849600);
}

TEST(Uuid, ShapeAndVersion) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    std::string uuid = GenerateUuid(rng);
    ASSERT_TRUE(LooksLikeUuid(uuid)) << uuid;
    EXPECT_EQ(uuid[14], '4');  // version nibble
    char variant = uuid[19];
    EXPECT_TRUE(variant == '8' || variant == '9' || variant == 'a' ||
                variant == 'b');
  }
}

TEST(Uuid, Uniqueness) {
  Rng rng(6);
  EXPECT_NE(GenerateUuid(rng), GenerateUuid(rng));
}

TEST(Uuid, Validation) {
  EXPECT_TRUE(LooksLikeUuid("3f2b9a64-5e1c-4d7a-9b0e-2f6c8d1a7e43"));
  EXPECT_FALSE(LooksLikeUuid("3F2B9A64-5E1C-4D7A-9B0E-2F6C8D1A7E43"));  // case
  EXPECT_FALSE(LooksLikeUuid("not-a-uuid"));
  EXPECT_FALSE(LooksLikeUuid(""));
  EXPECT_FALSE(LooksLikeUuid("3f2b9a645e1c4d7a9b0e2f6c8d1a7e43"));
}

TEST(Hex, RoundTrip) {
  std::string data = "\x00\xff\x10panoptes";
  data[0] = '\0';
  auto decoded = HexDecode(HexEncode(data));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, data);
}

TEST(Hex, KnownValues) {
  EXPECT_EQ(HexEncode("AB"), "4142");
  EXPECT_EQ(HexDecode("4142"), "AB");
  EXPECT_EQ(HexDecode("4A4b"), "JK");  // case-insensitive
}

TEST(Hex, Hex64IsFixedWidth) {
  EXPECT_EQ(Hex64(0), "0x0000000000000000");
  EXPECT_EQ(Hex64(0x0123456789abcdefull), "0x0123456789abcdef");
  EXPECT_EQ(Hex64(~0ull), "0xffffffffffffffff");
}

TEST(Hex, RejectsInvalid) {
  EXPECT_FALSE(HexDecode("abc").has_value());   // odd length
  EXPECT_FALSE(HexDecode("zz").has_value());    // not hex
}

TEST(Logging, LevelFiltering) {
  LogLevel previous = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Below-threshold logging must be a no-op (no crash, no output check
  // possible here — just exercise the path).
  PANOPTES_LOG(kInfo, "test") << "suppressed";
  SetLogLevel(previous);
}

}  // namespace
}  // namespace panoptes::util
