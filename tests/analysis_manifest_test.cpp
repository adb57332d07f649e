#include "analysis/manifest.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "util/json.h"

namespace panoptes::analysis {
namespace {

constexpr const char* kManifestJson = R"({
  "seed": 7,
  "popular_sites": 4,
  "sensitive_sites": 2,
  "entries": [
    {"browser": "Yandex", "mode": "crawl"},
    {"browser": "Edge", "mode": "crawl", "incognito": true},
    {"browser": "Opera", "mode": "idle", "idle_minutes": 2}
  ]
})";

TEST(ManifestParse, AcceptsWellFormed) {
  auto manifest = Manifest::FromJson(kManifestJson);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->seed, 7u);
  EXPECT_EQ(manifest->popular_sites, 4);
  EXPECT_EQ(manifest->sensitive_sites, 2);
  ASSERT_EQ(manifest->entries.size(), 3u);
  EXPECT_EQ(manifest->entries[0].browser, "Yandex");
  EXPECT_EQ(manifest->entries[1].mode, ManifestMode::kCrawl);
  EXPECT_TRUE(manifest->entries[1].incognito);
  EXPECT_EQ(manifest->entries[2].mode, ManifestMode::kIdle);
  EXPECT_EQ(manifest->entries[2].idle_minutes, 2);
}

TEST(ManifestParse, RoundTripsThroughToJson) {
  auto manifest = Manifest::FromJson(kManifestJson);
  ASSERT_TRUE(manifest.has_value());
  auto again = Manifest::FromJson(manifest->ToJson());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->ToJson(), manifest->ToJson());
}

// A seed either round-trips exactly or is refused: a JSON number holds a
// 64-bit integer exactly only below 2^53 (2^53 + 1 parses to the same
// double as 2^53).
TEST(ManifestParse, SeedRoundTripsExactlyOrIsRejected) {
  constexpr uint64_t kTwo53 = uint64_t{1} << 53;
  for (uint64_t seed : {uint64_t{0}, kTwo53 - 1}) {
    SCOPED_TRACE(seed);
    auto manifest = Manifest::FromJson(kManifestJson);
    ASSERT_TRUE(manifest.has_value());
    manifest->seed = seed;
    auto again = Manifest::FromJson(manifest->ToJson());
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->seed, seed);
  }
  for (uint64_t seed :
       {kTwo53, kTwo53 + 1, uint64_t{1} << 63, ~uint64_t{0}}) {
    SCOPED_TRACE(seed);
    auto manifest = Manifest::FromJson(kManifestJson);
    ASSERT_TRUE(manifest.has_value());
    manifest->seed = seed;
    EXPECT_THROW(manifest->ToJson(), std::invalid_argument);
  }
  // Read side: a number from 2^53 on may have been another integer when
  // it was written, so the manifest is rejected rather than rounded.
  for (const char* seed : {"9007199254740992", "9007199254740993",
                           "9223372036854775808", "18446744073709551615"}) {
    SCOPED_TRACE(seed);
    std::string text = kManifestJson;
    text.replace(text.find("7,"), 1, seed);
    EXPECT_FALSE(Manifest::FromJson(text).has_value());
  }
}

TEST(ManifestParse, RejectsBadInput) {
  EXPECT_FALSE(Manifest::FromJson("").has_value());
  EXPECT_FALSE(Manifest::FromJson("[]").has_value());
  EXPECT_FALSE(Manifest::FromJson("{}").has_value());  // no entries
  EXPECT_FALSE(
      Manifest::FromJson(R"({"entries":[]})").has_value());
  EXPECT_FALSE(
      Manifest::FromJson(R"({"entries":[{"browser":"Netscape"}]})")
          .has_value());
  EXPECT_FALSE(
      Manifest::FromJson(
          R"({"entries":[{"browser":"Edge","mode":"teleport"}]})")
          .has_value());
  EXPECT_FALSE(
      Manifest::FromJson(
          R"({"popular_sites":0,"sensitive_sites":0,
              "entries":[{"browser":"Edge"}]})")
          .has_value());
  EXPECT_FALSE(
      Manifest::FromJson(
          R"({"entries":[{"browser":"Opera","mode":"idle","idle_minutes":0}]})")
          .has_value());
  // A seed or count that is not an integer in its field's range.
  for (std::string v : {"1e300", "-1", "2.5"}) {
    SCOPED_TRACE(v);
    for (const char* key : {"seed", "popular_sites", "sensitive_sites"}) {
      EXPECT_FALSE(Manifest::FromJson("{\"" + std::string(key) + "\":" + v +
                                      R"(,"entries":[{"browser":"Edge"}]})")
                       .has_value())
          << key;
    }
    EXPECT_FALSE(
        Manifest::FromJson(
            R"({"entries":[{"browser":"Opera","mode":"idle","idle_minutes":)" +
            v + "}]}")
            .has_value());
  }
}

TEST(ManifestRun, ExecutesCrawlAndIdleEntries) {
  auto manifest = Manifest::FromJson(kManifestJson);
  ASSERT_TRUE(manifest.has_value());
  auto result = RunManifest(*manifest);
  ASSERT_EQ(result.entries.size(), 3u);

  const auto& yandex = result.entries[0];
  EXPECT_GT(yandex.engine_requests, 0u);
  EXPECT_GT(yandex.native_requests, 0u);
  EXPECT_GE(yandex.full_url_leak_destinations, 1u);  // sba.yandex.net
  EXPECT_EQ(yandex.pii_fields, 6u);
  EXPECT_FALSE(yandex.incognito_effective);

  const auto& edge = result.entries[1];
  EXPECT_TRUE(edge.incognito_effective);
  EXPECT_GE(edge.host_only_leak_destinations, 1u);  // Bing + DoH

  const auto& opera_idle = result.entries[2];
  EXPECT_EQ(opera_idle.engine_requests, 0u);
  EXPECT_GT(opera_idle.native_requests, 0u);
  EXPECT_EQ(opera_idle.native_ratio, 1.0);

  // Result JSON is parseable and complete.
  auto json = util::Json::Parse(result.ToJson());
  ASSERT_TRUE(json.has_value());
  EXPECT_EQ(json->Find("results")->as_array().size(), 3u);
}

}  // namespace
}  // namespace panoptes::analysis
