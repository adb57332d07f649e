#include "util/strings.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace panoptes::util {
namespace {

TEST(Strings, ToLowerUpper) {
  EXPECT_EQ(ToLower("AbC-123"), "abc-123");
  EXPECT_EQ(ToUpper("AbC-123"), "ABC-123");
  EXPECT_EQ(ToLower(""), "");
}

TEST(Strings, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("Content-Type", "content-type"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abcd"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abd"));
}

TEST(Strings, StartsWithIgnoreCase) {
  EXPECT_TRUE(StartsWithIgnoreCase("X-PANOPTES-TAINT", "x-panoptes"));
  EXPECT_TRUE(StartsWithIgnoreCase("x-panoptes", "X-Panoptes"));
  EXPECT_TRUE(StartsWithIgnoreCase("anything", ""));
  EXPECT_FALSE(StartsWithIgnoreCase("x-panopte", "x-panoptes"));
  EXPECT_FALSE(StartsWithIgnoreCase("xx-panoptes", "x-panoptes"));
}

TEST(Strings, LowerIfNeededFoldsOnlyUppercaseInput) {
  std::string storage;
  std::string_view plain = "a.example.com";
  std::string_view out = LowerIfNeeded(plain, storage);
  EXPECT_EQ(out.data(), plain.data());  // no copy
  EXPECT_TRUE(storage.empty());
  EXPECT_EQ(LowerIfNeeded("A.Example.COM", storage), "a.example.com");
  EXPECT_EQ(storage, "a.example.com");
}

TEST(Strings, Trim) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim("hello"), "hello");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(Strings, SplitBasic) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitEdgeCases) {
  EXPECT_EQ(Split("", ',').size(), 1u);  // one empty element
  EXPECT_EQ(Split(",", ',').size(), 2u);
  EXPECT_EQ(SplitNonEmpty(",,a,,b,", ',').size(), 2u);
  EXPECT_TRUE(SplitNonEmpty("", ',').empty());
}

TEST(Strings, JoinInvertsSplit) {
  std::string text = "one,two,three";
  EXPECT_EQ(Join(Split(text, ','), ","), text);
}

TEST(Strings, StartsEndsContains) {
  EXPECT_TRUE(StartsWith("https://x", "https://"));
  EXPECT_FALSE(StartsWith("http", "https"));
  EXPECT_TRUE(EndsWith("file.json", ".json"));
  EXPECT_FALSE(EndsWith("x", "longer"));
  EXPECT_TRUE(Contains("abcdef", "cde"));
  EXPECT_TRUE(ContainsIgnoreCase("X-Panoptes-Taint", "panoptes"));
  EXPECT_FALSE(ContainsIgnoreCase("abc", "abcd"));
  EXPECT_TRUE(ContainsIgnoreCase("anything", ""));
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");  // non-overlapping
  EXPECT_EQ(ReplaceAll("abc", "", "x"), "abc");   // empty pattern no-op
  EXPECT_EQ(ReplaceAll("{token}/x/{token}", "{token}", "T"), "T/x/T");
}

TEST(Strings, ParseUint) {
  EXPECT_EQ(ParseUint("0"), 0u);
  EXPECT_EQ(ParseUint("65535"), 65535u);
  EXPECT_FALSE(ParseUint("").has_value());
  EXPECT_FALSE(ParseUint("-1").has_value());
  EXPECT_FALSE(ParseUint("12x").has_value());
  EXPECT_FALSE(ParseUint("99999999999999999999999").has_value());
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.391, 3), "0.391");
  EXPECT_EQ(FormatDouble(42.0, 1), "42.0");
  EXPECT_EQ(FormatDouble(-1.25, 2), "-1.25");
}

TEST(Strings, PercentEncodeDecodeRoundTrip) {
  std::string raw = "https://example.com/a b?q=1&x=2#frag";
  std::string encoded = PercentEncode(raw);
  EXPECT_EQ(encoded.find(' '), std::string::npos);
  EXPECT_EQ(encoded.find('&'), std::string::npos);
  EXPECT_EQ(PercentDecode(encoded), raw);
}

TEST(Strings, PercentEncodeUnreservedUntouched) {
  EXPECT_EQ(PercentEncode("AZaz09-._~"), "AZaz09-._~");
}

TEST(Strings, PercentDecodeMalformedPassesThrough) {
  EXPECT_EQ(PercentDecode("100%"), "100%");
  EXPECT_EQ(PercentDecode("%zz"), "%zz");
  EXPECT_EQ(PercentDecode("%4"), "%4");
}

// Property: decode(encode(x)) == x over random byte strings.
class PercentRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(PercentRoundTrip, Holds) {
  uint64_t state = static_cast<uint64_t>(GetParam()) * 7919 + 1;
  std::string raw;
  for (int i = 0; i < 64; ++i) {
    raw.push_back(static_cast<char>(SplitMix64(state) & 0xFF));
  }
  EXPECT_EQ(PercentDecode(PercentEncode(raw)), raw);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentRoundTrip, ::testing::Range(0, 24));

TEST(TruncateUtf8, NeverSplitsAMultiByteSequence) {
  EXPECT_EQ(TruncateUtf8("abcdef", 10), "abcdef");
  EXPECT_EQ(TruncateUtf8("abcdef", 3), "abc");
  EXPECT_EQ(TruncateUtf8("", 5), "");
  // Two-byte character (U+03B1) straddling the cut: dropped whole.
  EXPECT_EQ(TruncateUtf8("ab\xCE\xB1", 3), "ab");
  EXPECT_EQ(TruncateUtf8("ab\xCE\xB1", 4), "ab\xCE\xB1");
  // Three-byte character (U+20AC): both partial cuts drop it whole.
  EXPECT_EQ(TruncateUtf8("a\xE2\x82\xAC", 2), "a");
  EXPECT_EQ(TruncateUtf8("a\xE2\x82\xAC", 3), "a");
  EXPECT_EQ(TruncateUtf8("a\xE2\x82\xAC", 4), "a\xE2\x82\xAC");
  // Four-byte character (U+1F600).
  EXPECT_EQ(TruncateUtf8("\xF0\x9F\x98\x80", 3), "");
  EXPECT_EQ(TruncateUtf8("\xF0\x9F\x98\x80", 4), "\xF0\x9F\x98\x80");
  // Invalid UTF-8 (a run of 4+ continuation bytes cannot be a real
  // sequence): cut at the byte limit instead of backing up further.
  EXPECT_EQ(TruncateUtf8("a\x80\x80\x80\x80\x80", 4), "a\x80\x80\x80");
}

}  // namespace
}  // namespace panoptes::util
