// Ablation A3: the vantage point. The paper crawls from the EU, where
// GDPR restricts transfers of personal data to third countries — the
// §3.4 finding is "EU user's browsing history ends up in RU/CN/CA".
// Re-running the identical crawl from a US vantage point shows the
// *mechanics* are unchanged (same leaks, same destinations) while the
// regulatory framing is vantage-specific: nothing "leaves the EU"
// because nothing started there.
#include "analysis/geoip.h"
#include "analysis/historyleak.h"
#include "analysis/report.h"
#include "bench_common.h"

using namespace panoptes;

namespace {

struct VantageRun {
  std::string label;
  size_t full_url_leaks = 0;
  size_t leaving_user_region = 0;
  std::vector<std::string> destinations;
};

VantageRun RunFrom(bool us_vantage) {
  core::FrameworkOptions options = bench::DefaultOptions();
  options.catalog.popular_count = 30;
  options.catalog.sensitive_count = 10;
  core::Framework framework(options);

  if (us_vantage) {
    auto& profile = framework.device().mutable_profile();
    profile.country = "US";
    profile.city = "Ashburn";
    profile.timezone = "America/New_York";
    profile.timezone_offset_minutes = -300;
    profile.locale = "en-US";
    profile.latitude = 39.0438;
    profile.longitude = -77.4874;
    profile.public_ip = net::IpAddress(23, 20, 99, 1);  // US block
    profile.isp = "Columbia Broadband";
  }

  auto sites = bench::AllSites(framework);
  analysis::GeoIpDb geo(framework.geo_plan().ranges());

  std::vector<net::Url> visited;
  for (const auto* site : sites) visited.push_back(site->landing_url);
  analysis::HistoryLeakDetector detector(visited);

  VantageRun run;
  run.label = us_vantage ? "US (no GDPR)" : "EU / Greece (paper)";

  for (const char* name : {"Yandex", "QQ", "UC International"}) {
    auto result =
        core::RunCrawl(framework, *browser::FindSpec(name), sites);
    for (const auto& side : result.Sides()) {
      for (const auto& leak :
           detector.Scan(side.flows, side.index, side.engine)) {
        if (leak.granularity != analysis::LeakGranularity::kFullUrl) {
          continue;
        }
        ++run.full_url_leaks;
        auto transfers = analysis::ClassifyTransfers(
            side.index, {leak.destination_host}, geo);
        if (transfers.empty()) continue;
        run.destinations.push_back(leak.destination_host + " (" +
                                   transfers.front().country_code + ")");
        // "Leaves the user's region": EU user → non-EU server; US user
        // → any non-US server (no GDPR equivalent, reported for
        // symmetry).
        bool leaves = us_vantage
                          ? transfers.front().country_code != "US"
                          : transfers.front().outside_eu;
        if (leaves) ++run.leaving_user_region;
      }
    }
  }
  return run;
}

}  // namespace

int main() {
  bench::BenchReport bench_report("ablation_vantage");
  bench::WallTimer bench_timer;
  bench::PrintHeader(
      "Ablation A3 — vantage point and the GDPR framing",
      "the leak mechanics are vantage-independent; 'data leaves the "
      "EU' is a property of where the user stands");

  auto eu = RunFrom(false);
  auto us = RunFrom(true);

  analysis::TextTable table({"Vantage", "Full-URL leak destinations",
                             "Leaving the user's region"});
  for (const auto* run : {&eu, &us}) {
    table.AddRow({run->label, std::to_string(run->full_url_leaks),
                  std::to_string(run->leaving_user_region)});
  }
  std::printf("%s\n", table.Render().c_str());

  std::printf("destinations (identical across vantages):\n");
  for (const auto& destination : eu.destinations) {
    std::printf("  %s\n", destination.c_str());
  }
  bool mechanics_identical = eu.full_url_leaks == us.full_url_leaks;
  std::printf("\nleak mechanics identical across vantages: %s\n",
              mechanics_identical ? "yes" : "NO (unexpected)");
  bench_report.Metric("eu_full_url_leaks",
                      static_cast<double>(eu.full_url_leaks));
  bench_report.Metric("us_full_url_leaks",
                      static_cast<double>(us.full_url_leaks));
  bench_report.Metric("wall_seconds", bench_timer.Seconds());
  bench_report.Write();
  return mechanics_identical ? 0 : 1;
}
