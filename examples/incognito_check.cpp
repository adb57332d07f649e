// Incognito reality check (paper §3.2): crawl the same sites twice —
// normal mode vs incognito — and diff what left the device natively.
// The browsers that report the browsing history keep doing so.
//
//   ./build/examples/incognito_check [browser-name]
#include <cstdio>
#include <string>

#include "analysis/historyleak.h"
#include "analysis/report.h"
#include "browser/profiles.h"
#include "core/campaign.h"
#include "core/framework.h"

using namespace panoptes;

int main(int argc, char** argv) {
  std::string browser_name = argc > 1 ? argv[1] : "Opera";
  const auto* spec = browser::FindSpec(browser_name);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown browser: %s\n", browser_name.c_str());
    return 1;
  }

  core::FrameworkOptions options;
  options.catalog.popular_count = 20;
  options.catalog.sensitive_count = 10;
  core::Framework framework(options);
  std::vector<const web::Site*> sites;
  for (const auto& site : framework.catalog().sites()) sites.push_back(&site);

  std::printf("incognito check: %s (mode %s)\n\n", spec->name.c_str(),
              spec->has_incognito ? "available" : "NOT AVAILABLE");

  core::CrawlOptions normal;
  core::CrawlOptions incognito;
  incognito.incognito = true;

  auto normal_run = core::RunCrawl(framework, *spec, sites, normal);
  auto incognito_run = core::RunCrawl(framework, *spec, sites, incognito);

  std::vector<net::Url> visited;
  for (const auto* site : sites) visited.push_back(site->landing_url);
  analysis::HistoryLeakDetector detector(visited);

  auto describe = [&](const core::CrawlResult& result, const char* label) {
    std::printf("--- %s ---\n", label);
    std::printf("native requests: %llu\n",
                (unsigned long long)result.native_flows->size());
    size_t leak_destinations = 0;
    for (const auto& side : result.Sides()) {
      for (const auto& leak :
           detector.Scan(side.flows, side.index, side.engine)) {
        ++leak_destinations;
        std::printf("  leak -> %-26s [%s, %llu reports%s]\n",
                    leak.destination_host.c_str(),
                    std::string(LeakGranularityName(leak.granularity)).c_str(),
                    (unsigned long long)leak.report_count,
                    leak.via_engine_injection ? ", JS injection" : "");
      }
    }
    if (leak_destinations == 0) std::printf("  no history leak detected\n");
    std::printf("\n");
    return leak_destinations;
  };

  size_t normal_leaks = describe(normal_run, "normal mode");
  size_t incog_leaks = describe(
      incognito_run, incognito_run.incognito_effective
                         ? "incognito mode"
                         : "incognito requested (mode missing!)");

  if (!spec->has_incognito) {
    std::printf("verdict: %s offers no incognito mode at all — every "
                "visit is reported regardless (paper footnote 5).\n",
                spec->name.c_str());
  } else if (incog_leaks >= normal_leaks && normal_leaks > 0) {
    std::printf("verdict: incognito changes NOTHING about the native "
                "reporting — the private-mode promise only covers local "
                "state (paper §3.2).\n");
  } else if (normal_leaks == 0) {
    std::printf("verdict: %s does not report the browsing history in "
                "either mode.\n",
                spec->name.c_str());
  } else {
    std::printf("verdict: incognito reduced the reporting (unexpected "
                "for the paper's dataset).\n");
  }
  return 0;
}
