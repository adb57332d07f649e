// Locale independence of exported artifacts.
//
// Report determinism is a byte-level contract, and number formatting is
// the classic way to break it: snprintf's %f/%g obey LC_NUMERIC, so a
// process running under de_DE.UTF-8 would print "0,5" where another
// prints "0.5". util::FormatDouble and the JSON dumper therefore format
// through std::to_chars, which is locale-blind. These tests pin that:
// the same campaign must export byte-identical JSON/CSV/manifest under
// the C locale and under a comma-decimal locale.
#include <gtest/gtest.h>

#include <clocale>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/export.h"
#include "browser/profiles.h"
#include "core/fleet.h"
#include "core/run_manifest.h"
#include "util/json.h"
#include "util/strings.h"

namespace panoptes {
namespace {

// Restores the process locale on scope exit, whatever the test did.
class ScopedLocale {
 public:
  ScopedLocale() : saved_(std::setlocale(LC_ALL, nullptr)) {}
  ~ScopedLocale() { std::setlocale(LC_ALL, saved_.c_str()); }

  // Tries each candidate; returns the name that stuck, or empty.
  std::string Activate(const std::vector<const char*>& candidates) {
    for (const char* candidate : candidates) {
      if (std::setlocale(LC_ALL, candidate) != nullptr) return candidate;
    }
    return {};
  }

 private:
  std::string saved_;
};

const std::vector<const char*> kCommaLocales = {
    "de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8", "de_DE",
    "fr_FR"};

// True when the active locale really uses a comma decimal separator —
// otherwise the "under a comma locale" half of the test proves nothing.
bool DecimalCommaActive() {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", 1.5);
  return std::string(buf) == "1,5";
}

TEST(LocaleDeterminism, FormattersIgnoreLcNumeric) {
  ScopedLocale guard;
  if (guard.Activate(kCommaLocales).empty() || !DecimalCommaActive()) {
    GTEST_SKIP() << "no comma-decimal locale installed";
  }
  EXPECT_EQ(util::FormatDouble(1.5, 2), "1.50");
  EXPECT_EQ(util::FormatDouble(-0.125, 3), "-0.125");
  util::JsonObject object;
  object["x"] = 0.5;
  object["y"] = 1e-3;
  EXPECT_EQ(util::Json(std::move(object)).Dump(),
            "{\"x\":0.5,\"y\":0.001}");
}

TEST(LocaleDeterminism, FleetArtifactsAreByteIdenticalAcrossLocales) {
  core::FleetOptions options;
  options.jobs = 1;
  options.framework.catalog.popular_count = 3;
  options.framework.catalog.sensitive_count = 1;
  auto jobs = core::FleetExecutor::PlanCampaign(
      {*browser::FindSpec("Yandex")},
      {core::CampaignKind::kCrawl, core::CampaignKind::kIdle}, 2);
  core::FleetExecutor executor(options);
  auto results = executor.Run(jobs);
  core::RunManifest manifest = core::BuildRunManifest(options, results);
  auto merged = core::FleetExecutor::MergeShards(std::move(results));

  std::string json_c = analysis::FleetReportJson(merged);
  std::string csv_c = analysis::FleetSummaryCsv(merged);
  std::string manifest_c = manifest.ToJson();
  // The report carries fractional values (ratios), so the comparison
  // below actually exercises the decimal separator.
  ASSERT_NE(json_c.find('.'), std::string::npos);

  ScopedLocale guard;
  if (guard.Activate(kCommaLocales).empty() || !DecimalCommaActive()) {
    GTEST_SKIP() << "no comma-decimal locale installed";
  }
  EXPECT_EQ(analysis::FleetReportJson(merged), json_c);
  EXPECT_EQ(analysis::FleetSummaryCsv(merged), csv_c);
  EXPECT_EQ(manifest.ToJson(), manifest_c);
}

}  // namespace
}  // namespace panoptes
