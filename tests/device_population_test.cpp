// Device-population tests: the synthetic cohort generator, the
// device-aware seed/fingerprint plumbing, and the headline PII-scanner
// regression — the scanner must look for the *campaign's* device
// values, not the hardcoded paper testbed's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "analysis/flow_index.h"
#include "analysis/pii.h"
#include "browser/profiles.h"
#include "core/fleet.h"
#include "core/result_cache.h"
#include "core/snapshot.h"
#include "device/population.h"
#include "proxy/flowstore.h"
#include "util/strings.h"

namespace panoptes::device {
namespace {

constexpr uint64_t kPaperSeed = 20231024;

// ---------------------------------------------------------------------------
// Population generation
// ---------------------------------------------------------------------------

TEST(Population, SameSeedSamePopulation) {
  auto a = PopulationGenerator::Generate(64, kPaperSeed);
  auto b = PopulationGenerator::Generate(64, kPaperSeed);
  ASSERT_EQ(a.size(), 64u);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_DOUBLE_EQ(a[i].weight, b[i].weight);
    EXPECT_EQ(DeviceProfileFingerprint(a[i].profile),
              DeviceProfileFingerprint(b[i].profile));
  }
}

// Cohort k is a pure function of (seed, k): growing the population
// never reshuffles existing cohorts (weights renormalize, profiles
// and ids stay put).
TEST(Population, CohortsAreStableUnderPopulationGrowth) {
  auto small = PopulationGenerator::Generate(16, kPaperSeed);
  auto large = PopulationGenerator::Generate(64, kPaperSeed);
  for (size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small[i].id, large[i].id);
    EXPECT_EQ(DeviceProfileFingerprint(small[i].profile),
              DeviceProfileFingerprint(large[i].profile));
  }
}

TEST(Population, DifferentSeedsDiverge) {
  auto a = PopulationGenerator::Generate(8, kPaperSeed);
  auto b = PopulationGenerator::Generate(8, kPaperSeed + 1);
  bool any_different = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id ||
        DeviceProfileFingerprint(a[i].profile) !=
            DeviceProfileFingerprint(b[i].profile)) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(Population, WeightsArePositiveAndNormalized) {
  auto cohorts = PopulationGenerator::Generate(100, kPaperSeed);
  double total = 0;
  for (const auto& cohort : cohorts) {
    EXPECT_GT(cohort.weight, 0.0);
    total += cohort.weight;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

// The marginals the generator promises: heterogeneous manufacturers,
// both hemispheres (negative latitude, longitude AND UTC offset),
// rooted and unrooted devices, WiFi and metered cellular — all present
// in a medium population, and every cohort id nonzero/labelled.
TEST(Population, MarginalsCoverTheSweeps) {
  auto cohorts = PopulationGenerator::Generate(512, kPaperSeed);
  bool negative_lat = false, negative_lon = false, negative_tz = false;
  bool rooted = false, unrooted = false, metered = false, wifi = false;
  std::vector<std::string> manufacturers;
  for (const auto& cohort : cohorts) {
    EXPECT_NE(cohort.id, 0u);
    EXPECT_FALSE(cohort.IsDefault());
    negative_lat |= cohort.profile.latitude < 0;
    negative_lon |= cohort.profile.longitude < 0;
    negative_tz |= cohort.profile.timezone_offset_minutes < 0;
    rooted |= cohort.profile.rooted;
    unrooted |= !cohort.profile.rooted;
    metered |= cohort.profile.network_metering == "METERED";
    wifi |= cohort.profile.connection_type == "WIFI";
    if (std::find(manufacturers.begin(), manufacturers.end(),
                  cohort.profile.manufacturer) == manufacturers.end()) {
      manufacturers.push_back(cohort.profile.manufacturer);
    }
  }
  EXPECT_TRUE(negative_lat);
  EXPECT_TRUE(negative_lon);
  EXPECT_TRUE(negative_tz);
  EXPECT_TRUE(rooted);
  EXPECT_TRUE(unrooted);
  EXPECT_TRUE(metered);
  EXPECT_TRUE(wifi);
  EXPECT_GE(manufacturers.size(), 4u);
  EXPECT_EQ(cohorts[42].Label(), "c0042");
}

// ---------------------------------------------------------------------------
// Fingerprints and seeds
// ---------------------------------------------------------------------------

TEST(Population, FingerprintMovesWithEveryTraitKind) {
  const auto base = DeviceProfile::PaperTestbed();
  const uint64_t testbed = DeviceProfileFingerprint(base);
  EXPECT_EQ(testbed, PaperTestbedFingerprint());

  auto mutate = [&](auto&& edit) {
    DeviceProfile p = base;
    edit(p);
    return DeviceProfileFingerprint(p);
  };
  EXPECT_NE(testbed, mutate([](DeviceProfile& p) { p.model = "SM-G991B"; }));
  EXPECT_NE(testbed, mutate([](DeviceProfile& p) { p.latitude = -p.latitude; }));
  EXPECT_NE(testbed, mutate([](DeviceProfile& p) {
    p.timezone_offset_minutes = -240;
  }));
  EXPECT_NE(testbed, mutate([](DeviceProfile& p) { p.rooted = !p.rooted; }));
  EXPECT_NE(testbed, mutate([](DeviceProfile& p) {
    p.network_metering = "METERED";
  }));
  EXPECT_NE(testbed, mutate([](DeviceProfile& p) { p.dpi += 1; }));
}

// The device-aware seed derivation: the paper testbed is the identity
// element (every pinned golden seed stays valid), any other profile
// decorrelates the stream.
TEST(Population, PaperTestbedFingerprintIsSeedIdentity) {
  using core::CampaignKind;
  using core::DeriveJobSeed;
  EXPECT_EQ(DeriveJobSeed(kPaperSeed, "Yandex", CampaignKind::kCrawl, 0, 0,
                          PaperTestbedFingerprint()),
            8379929806318620680ull);
  EXPECT_EQ(DeriveJobSeed(kPaperSeed, "Opera", CampaignKind::kIdle, 2, 0,
                          PaperTestbedFingerprint()),
            15057783577856798029ull);

  auto other = DeviceProfile::PaperTestbed();
  other.model = "SM-G991B";
  EXPECT_NE(DeriveJobSeed(kPaperSeed, "Yandex", CampaignKind::kCrawl, 0, 0,
                          DeviceProfileFingerprint(other)),
            8379929806318620680ull);
}

// Cache invalidation: a job whose ONLY difference is the device profile
// must fingerprint differently (and non-default cohorts get their own
// snapshot filenames, so cohorts never race for one cache slot).
TEST(Population, CacheFingerprintAndPathMoveWithTheCohort) {
  core::FleetOptions options;
  options.base_seed = kPaperSeed;
  core::FleetJob job;
  job.spec.name = "Yandex";

  const uint64_t base = core::ResultCache::FingerprintJob(options, job);
  core::FleetJob cohort_job = job;
  cohort_job.cohort = PopulationGenerator::Generate(1, kPaperSeed)[0];
  EXPECT_NE(base, core::ResultCache::FingerprintJob(options, cohort_job));

  // Profile-only change (same cohort index/id/weight) still moves it.
  core::FleetJob tweaked = cohort_job;
  tweaked.cohort.profile.locale = "xx-XX";
  EXPECT_NE(core::ResultCache::FingerprintJob(options, cohort_job),
            core::ResultCache::FingerprintJob(options, tweaked));

  core::ResultCache cache("/tmp/panoptes_population_cache_test");
  EXPECT_NE(cache.PathFor(job), cache.PathFor(cohort_job));
  EXPECT_NE(cache.PathFor(cohort_job).string().find("c0000"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Snapshot round-trip
// ---------------------------------------------------------------------------

TEST(Population, SnapshotCarriesTheCohort) {
  core::FleetOptions options;
  options.base_seed = kPaperSeed;
  options.framework.catalog.popular_count = 2;
  options.framework.catalog.sensitive_count = 1;

  auto cohorts = PopulationGenerator::Generate(2, kPaperSeed);
  auto jobs = core::FleetExecutor::PlanCampaign(
      {*browser::FindSpec("DuckDuckGo")}, cohorts,
      {core::CampaignKind::kCrawl}, 1);
  ASSERT_EQ(jobs.size(), 2u);
  auto results = core::FleetExecutor(options).Run(jobs);
  ASSERT_EQ(results.size(), 2u);

  const uint64_t fingerprint =
      core::ResultCache::FingerprintJob(options, results[1].job);
  std::string bytes = core::snapshot::Write(results[1], fingerprint);

  core::FleetJobResult restored;
  ASSERT_TRUE(core::snapshot::Read(bytes, results[1].job, &restored));
  EXPECT_EQ(restored.job.cohort.index, 1);
  EXPECT_EQ(restored.job.cohort.id, cohorts[1].id);
  EXPECT_DOUBLE_EQ(restored.job.cohort.weight, cohorts[1].weight);
  EXPECT_EQ(DeviceProfileFingerprint(restored.job.cohort.profile),
            DeviceProfileFingerprint(cohorts[1].profile));

  // A plan expecting a different cohort must reject the file — the
  // snapshot would otherwise replay as the wrong synthetic user.
  core::FleetJob foreign = results[1].job;
  foreign.cohort = cohorts[0];
  core::FleetJobResult mismatch;
  EXPECT_FALSE(core::snapshot::Read(bytes, foreign, &mismatch));

  // Plan-free decode (`explain`) reconstructs the cohort from the file.
  core::FleetJobResult any;
  ASSERT_TRUE(core::snapshot::ReadAny(bytes, &any));
  EXPECT_EQ(any.job.cohort.id, cohorts[1].id);
  EXPECT_EQ(any.job.cohort.profile.model, cohorts[1].profile.model);
}

// ---------------------------------------------------------------------------
// PII scanning follows the device (the headline bugfix)
// ---------------------------------------------------------------------------

proxy::Flow FlowTo(const std::string& url) {
  proxy::Flow flow;
  flow.url = net::Url::MustParse(url);
  return flow;
}

// A scanner built for a cohort must detect THAT cohort's values — and
// must not light up on the paper testbed's values, which before the fix
// were the only needles any scanner ever looked for.
TEST(Population, ScannerDetectsTheCampaignDeviceNotTheTestbed) {
  auto device = DeviceProfile::PaperTestbed();
  device.manufacturer = "Xiaomi";
  device.screen_width = 1080;
  device.screen_height = 2400;
  device.dpi = 421;
  device.timezone = "America/New_York";
  device.locale = "en-US";
  const auto testbed = DeviceProfile::PaperTestbed();
  ASSERT_NE(testbed.screen_width, device.screen_width);

  proxy::FlowStore cohort_values;
  cohort_values.Add(FlowTo("https://v.example/t?res=1080x2400&dpi=421"));
  cohort_values.Add(FlowTo("https://v.example/t?tz=America/New_York"));
  proxy::FlowStore testbed_values;
  testbed_values.Add(FlowTo("https://v.example/t?res=1200x1920&dpi=240"));
  testbed_values.Add(FlowTo("https://v.example/t?tz=Europe/Athens"));

  analysis::PiiScanner scanner(device);
  auto own = scanner.Scan(analysis::FlowIndex::Build(cohort_values));
  EXPECT_TRUE(own.Leaks(analysis::PiiField::kResolution));
  EXPECT_TRUE(own.Leaks(analysis::PiiField::kDpi));
  EXPECT_TRUE(own.Leaks(analysis::PiiField::kTimezone));

  auto foreign = scanner.Scan(analysis::FlowIndex::Build(testbed_values));
  EXPECT_FALSE(foreign.Leaks(analysis::PiiField::kResolution));
  EXPECT_FALSE(foreign.Leaks(analysis::PiiField::kDpi));
  EXPECT_FALSE(foreign.Leaks(analysis::PiiField::kTimezone));
}

// Western/southern hemisphere regression: negative coordinates must
// round-trip from the emitters' rendering (FormatDouble, 4 decimals)
// into scanner detection — including the sign — and the needle must be
// a true prefix of the emitted value (truncated, never rounded: the
// paper testbed's own 35.3387 rounds to "35.34", which the emitted
// bytes never start with).
TEST(Population, NegativeCoordinatesRoundTrip) {
  EXPECT_EQ(util::FormatDouble(-74.006, 4), "-74.0060");
  EXPECT_EQ(util::FormatDouble(-23.5505, 4), "-23.5505");
  EXPECT_EQ(util::FormatDouble(35.3387, 4), "35.3387");

  auto nyc = DeviceProfile::PaperTestbed();
  nyc.latitude = 40.7128;
  nyc.longitude = -74.006;
  nyc.timezone_offset_minutes = -240;
  analysis::PiiScanner scanner(nyc);

  proxy::FlowStore store;
  store.Add(FlowTo("https://v.example/t?lat=" +
                   util::FormatDouble(nyc.latitude, 4) +
                   "&lon=" + util::FormatDouble(nyc.longitude, 4)));
  auto report = scanner.Scan(analysis::FlowIndex::Build(store));
  EXPECT_TRUE(report.Leaks(analysis::PiiField::kLocation));

  // Longitude alone — the sign must survive the prefix needle.
  proxy::FlowStore lon_only;
  lon_only.Add(FlowTo("https://v.example/t?lon=-74.0060"));
  EXPECT_TRUE(scanner.Scan(analysis::FlowIndex::Build(lon_only))
                  .Leaks(analysis::PiiField::kLocation));
  // The positive mirror of the value is a different place.
  proxy::FlowStore wrong_sign;
  wrong_sign.Add(FlowTo("https://v.example/t?lon=74.0060"));
  EXPECT_FALSE(scanner.Scan(analysis::FlowIndex::Build(wrong_sign))
                   .Leaks(analysis::PiiField::kLocation));
}

// The rounding bug itself: latitude 35.3387 as the emitters render it
// ("35.3387", 4 decimals) must match the scanner's latitude needle.
// Before the fix the needle was FormatDouble(lat, 2) = "35.34" and the
// testbed's own latitude was invisible to its own scanner.
TEST(Population, TestbedLatitudeMatchesItsOwnScanner) {
  analysis::PiiScanner scanner(DeviceProfile::PaperTestbed());
  proxy::FlowStore store;
  store.Add(FlowTo("https://v.example/t?lat=35.3387"));
  EXPECT_TRUE(scanner.Scan(analysis::FlowIndex::Build(store))
                  .Leaks(analysis::PiiField::kLocation));
}

}  // namespace
}  // namespace panoptes::device
