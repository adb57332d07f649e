#include "util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "util/rng.h"

namespace panoptes::util {
namespace {

TEST(Json, DumpPrimitives) {
  EXPECT_EQ(Json(nullptr).Dump(), "null");
  EXPECT_EQ(Json(true).Dump(), "true");
  EXPECT_EQ(Json(false).Dump(), "false");
  EXPECT_EQ(Json(42).Dump(), "42");
  EXPECT_EQ(Json(-1.5).Dump(), "-1.5");
  EXPECT_EQ(Json("hi").Dump(), "\"hi\"");
}

TEST(Json, DumpEscapes) {
  EXPECT_EQ(Json("a\"b\\c\nd").Dump(), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(Json(std::string("\x01", 1)).Dump(), "\"\\u0001\"");
}

TEST(Json, DumpStructures) {
  JsonObject obj;
  obj["b"] = JsonArray{Json(1), Json("x")};
  obj["a"] = true;
  // std::map orders keys.
  EXPECT_EQ(Json(std::move(obj)).Dump(), "{\"a\":true,\"b\":[1,\"x\"]}");
}

TEST(Json, ParsePrimitives) {
  EXPECT_TRUE(Json::Parse("null")->is_null());
  EXPECT_TRUE(Json::Parse("true")->as_bool());
  EXPECT_EQ(Json::Parse("3.25")->as_number(), 3.25);
  EXPECT_EQ(Json::Parse("-17")->as_number(), -17);
  EXPECT_EQ(Json::Parse("\"s\"")->as_string(), "s");
}

TEST(Json, ParseStructures) {
  auto v = Json::Parse(R"({"a":[1,2,{"b":null}],"c":"d"})");
  ASSERT_TRUE(v.has_value());
  const auto* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->as_array().size(), 3u);
  EXPECT_TRUE(a->as_array()[2].Find("b")->is_null());
  EXPECT_EQ(v->Find("c")->as_string(), "d");
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(Json, ParseEscapes) {
  auto v = Json::Parse(R"("a\"b\\c\ndA")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "a\"b\\c\ndA");
}

TEST(Json, ParseUnicodeEscape) {
  auto v = Json::Parse(R"("é€")");  // é €
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "\xc3\xa9\xe2\x82\xac");
}

TEST(Json, ParseWhitespace) {
  auto v = Json::Parse("  { \"a\" :\n[ 1 ,\t2 ] }  ");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->Find("a")->as_array().size(), 2u);
}

TEST(Json, ParseRejectsGarbage) {
  EXPECT_FALSE(Json::Parse("").has_value());
  EXPECT_FALSE(Json::Parse("{").has_value());
  EXPECT_FALSE(Json::Parse("[1,]").has_value());
  EXPECT_FALSE(Json::Parse("{\"a\":}").has_value());
  EXPECT_FALSE(Json::Parse("tru").has_value());
  EXPECT_FALSE(Json::Parse("1 2").has_value());   // trailing garbage
  EXPECT_FALSE(Json::Parse("\"open").has_value());
  EXPECT_FALSE(Json::Parse("{'a':1}").has_value());
}

TEST(Json, IntegerReadsOnlyIntegralNumbersInRange) {
  EXPECT_EQ(Json(42).Integer<int>(), 42);
  EXPECT_EQ(Json(-7).Integer<int64_t>(), -7);
  EXPECT_EQ(Json(-0.0).Integer<int>(), 0);
  EXPECT_EQ(Json(0.0).Integer<size_t>(), 0u);
  EXPECT_FALSE(Json(2.5).Integer<int>().has_value());
  EXPECT_FALSE(Json(-1).Integer<size_t>().has_value());
  EXPECT_FALSE(Json(1e300).Integer<int64_t>().has_value());
  EXPECT_FALSE(Json(-1e300).Integer<int64_t>().has_value());
  EXPECT_FALSE(Json("1").Integer<int>().has_value());
  EXPECT_FALSE(Json().Integer<int>().has_value());
  // Each type's edges: the largest value in range, the first beyond it.
  EXPECT_EQ(Json(2147483647.0).Integer<int>(), 2147483647);
  EXPECT_FALSE(Json(2147483648.0).Integer<int>().has_value());
  EXPECT_EQ(Json(-2147483648.0).Integer<int>(), -2147483647 - 1);
  EXPECT_FALSE(Json(-2147483649.0).Integer<int>().has_value());
  // ExactInteger itself converts every double in a 64-bit type's range.
  EXPECT_FALSE(ExactInteger<int64_t>(9223372036854775808.0).has_value());
  EXPECT_EQ(ExactInteger<int64_t>(-9223372036854775808.0),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(ExactInteger<uint64_t>(18446744073709549568.0),
            18446744073709549568ull);
  EXPECT_FALSE(ExactInteger<uint64_t>(18446744073709551616.0).has_value());
  EXPECT_FALSE(ExactInteger<int>(std::nan("")).has_value());
  // A JSON number read as a 64-bit type stops at ±(2^53 − 1): from 2^53
  // on the double stands for more than one integer.
  EXPECT_EQ(Json(9007199254740991.0).Integer<uint64_t>(), 9007199254740991ull);
  EXPECT_EQ(Json(-9007199254740991.0).Integer<int64_t>(), -9007199254740991ll);
  EXPECT_FALSE(Json(9007199254740992.0).Integer<uint64_t>().has_value());
  EXPECT_FALSE(Json(-9007199254740992.0).Integer<int64_t>().has_value());
  EXPECT_FALSE(Json(9223372036854775808.0).Integer<int64_t>().has_value());
  EXPECT_FALSE(Json(-9223372036854775808.0).Integer<int64_t>().has_value());
  EXPECT_FALSE(Json(18446744073709549568.0).Integer<uint64_t>().has_value());
}

TEST(Json, ExactNumberWritesOnlyWhatReadsBack) {
  constexpr uint64_t kTwo53 = uint64_t{1} << 53;
  constexpr int64_t kSafe = static_cast<int64_t>(kTwo53) - 1;
  EXPECT_EQ(Json::ExactNumber(uint64_t{0}, "x").Integer<uint64_t>(), 0u);
  EXPECT_EQ(Json::ExactNumber(kSafe, "x").Integer<int64_t>(), kSafe);
  EXPECT_EQ(Json::ExactNumber(-kSafe, "x").Integer<int64_t>(), -kSafe);
  EXPECT_THROW(Json::ExactNumber(kTwo53, "x"), std::invalid_argument);
  EXPECT_THROW(Json::ExactNumber(kTwo53 + 1, "x"), std::invalid_argument);
  EXPECT_THROW(Json::ExactNumber(-kSafe - 1, "x"), std::invalid_argument);
  EXPECT_THROW(Json::ExactNumber(~uint64_t{0}, "x"), std::invalid_argument);
}

TEST(Json, RoundTripListing1Shape) {
  // The Opera oleads body shape from the paper's Listing 1.
  JsonObject body;
  body["channelId"] = "adxsdk_for_opera_ofa_final";
  body["deviceScreenWidth"] = 1200;
  body["latitude"] = 35.3387;
  body["userConsent"] = "false";
  body["supportedAdTypes"] = JsonArray{Json("SINGLE")};
  std::string dumped = Json(std::move(body)).Dump();

  auto parsed = Json::Parse(dumped);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Find("channelId")->as_string(),
            "adxsdk_for_opera_ofa_final");
  EXPECT_EQ(parsed->Find("deviceScreenWidth")->as_number(), 1200);
  EXPECT_NEAR(parsed->Find("latitude")->as_number(), 35.3387, 1e-9);
  EXPECT_EQ(parsed->Dump(), dumped);  // stable re-serialisation
}

// Property: Parse(Dump(x)) == Dump-identical for generated documents.
class JsonRoundTrip : public ::testing::TestWithParam<int> {};

Json GenerateValue(uint64_t& state, int depth) {
  switch (SplitMix64(state) % (depth > 2 ? 4 : 6)) {
    case 0: return Json(nullptr);
    case 1: return Json(static_cast<bool>(SplitMix64(state) & 1));
    case 2: return Json(static_cast<double>(SplitMix64(state) % 100000));
    case 3: {
      std::string s;
      for (int i = 0; i < 8; ++i) {
        s.push_back(static_cast<char>('a' + SplitMix64(state) % 26));
      }
      return Json(std::move(s));
    }
    case 4: {
      JsonArray arr;
      for (int i = 0; i < 3; ++i) {
        arr.push_back(GenerateValue(state, depth + 1));
      }
      return Json(std::move(arr));
    }
    default: {
      JsonObject obj;
      for (int i = 0; i < 3; ++i) {
        std::string key(1, static_cast<char>('a' + i));
        obj[key] = GenerateValue(state, depth + 1);
      }
      return Json(std::move(obj));
    }
  }
}

TEST_P(JsonRoundTrip, Holds) {
  uint64_t state = static_cast<uint64_t>(GetParam()) * 1337 + 7;
  Json value = GenerateValue(state, 0);
  std::string dumped = value.Dump();
  auto parsed = Json::Parse(dumped);
  ASSERT_TRUE(parsed.has_value()) << dumped;
  EXPECT_EQ(parsed->Dump(), dumped);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTrip, ::testing::Range(0, 32));

}  // namespace
}  // namespace panoptes::util
