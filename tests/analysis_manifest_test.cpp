#include "analysis/manifest.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "browser/profiles.h"
#include "util/hex.h"
#include "util/json.h"
#include "util/rng.h"

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
  // An idle time whose milliseconds overflow an int64_t
  // (util::Duration::Minutes), and the largest one that does not.
  constexpr int64_t kMaxMinutes = std::numeric_limits<int64_t>::max() / 60000;
  for (int64_t minutes : {kMaxMinutes + 1, int64_t{1} << 52}) {
    SCOPED_TRACE(minutes);
    EXPECT_FALSE(
        Manifest::FromJson(
            R"({"entries":[{"browser":"Opera","mode":"idle","idle_minutes":)" +
            std::to_string(minutes) + "}]}")
            .has_value());
  }
  EXPECT_TRUE(
      Manifest::FromJson(
          R"({"entries":[{"browser":"Opera","mode":"idle","idle_minutes":)" +
          std::to_string(kMaxMinutes) + "}]}")
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
  auto result = RunCampaignManifest(*manifest);
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

// Every browser: crawl, incognito, and idle at 1 and 10 minutes. The
// two idle entries of a browser share its (browser, kind) but, in a
// cache, not its snapshot path.
Manifest AllBrowsersManifest() {
  Manifest manifest;
  manifest.seed = 20231024;
  manifest.popular_sites = 6;
  manifest.sensitive_sites = 2;
  for (const auto& spec : browser::AllBrowserSpecs()) {
    manifest.entries.push_back({spec.name, ManifestMode::kCrawl, false});
    manifest.entries.push_back({spec.name, ManifestMode::kCrawl, true});
    manifest.entries.push_back({spec.name, ManifestMode::kIdle, false, 1});
    manifest.entries.push_back({spec.name, ManifestMode::kIdle, false, 10});
  }
  return manifest;
}

// If a deliberate change moves these bytes, re-derive the hash by running
// this test and copying the reported actual value.
TEST(ManifestRun, AllBrowsersJsonIsPinnedAtAnyWorkerCount) {
  const Manifest manifest = AllBrowsersManifest();
  ASSERT_EQ(manifest.entries.size(), 60u);
  core::FleetOptions options;
  options.jobs = 1;
  const std::string serial = RunCampaignManifest(manifest, options).ToJson();
  options.jobs = 4;
  EXPECT_EQ(RunCampaignManifest(manifest, options).ToJson(), serial);
  EXPECT_EQ(util::Hex64(util::HashBytes64(serial)), "0x97145b5c0ec5d456");
}

TEST(ManifestRun, WarmCacheReplaysTheColdJson) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "panoptes_manifest_test";
  fs::remove_all(dir);
  const Manifest manifest = AllBrowsersManifest();
  core::FleetOptions options;
  options.jobs = 4;
  options.cache_dir = dir.string();
  const std::string cold = RunCampaignManifest(manifest, options).ToJson();
  // One snapshot per entry, and a warm run rewrites none of them: no
  // entry finds another's snapshot and re-executes.
  std::map<fs::path, fs::file_time_type> written;
  for (const auto& entry : fs::directory_iterator(dir)) {
    written[entry.path()] = entry.last_write_time();
  }
  EXPECT_EQ(written.size(), manifest.entries.size());
  EXPECT_EQ(RunCampaignManifest(manifest, options).ToJson(), cold);
  for (const auto& [path, time] : written) {
    EXPECT_EQ(fs::last_write_time(path), time) << path;
  }
  options.cache_dir.clear();
  EXPECT_EQ(RunCampaignManifest(manifest, options).ToJson(), cold);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace panoptes::analysis
