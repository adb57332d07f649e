// Sensitive-content exposure report (paper §3.2 + §3.4): crawl the four
// Curlie-style sensitive categories with the full-URL-leaking browsers
// and show exactly which health/religion/sexuality/society visits
// ended up on which foreign servers.
//
//   ./build/examples/sensitive_leaks
#include <cstdio>

#include "analysis/geoip.h"
#include "analysis/historyleak.h"
#include "analysis/report.h"
#include "browser/profiles.h"
#include "core/campaign.h"
#include "core/framework.h"
#include "util/base64.h"

using namespace panoptes;

int main() {
  core::FrameworkOptions options;
  options.catalog.popular_count = 0;
  options.catalog.sensitive_count = 24;  // 6 per category
  core::Framework framework(options);
  analysis::GeoIpDb geo(framework.geo_plan().ranges());

  std::printf("What does a vendor learn when the user browses sensitive "
              "content?\n(vantage point: %s, an EU member state)\n\n",
              framework.device().profile().country.c_str());

  for (const char* name : {"Yandex", "QQ", "UC International"}) {
    const auto* spec = browser::FindSpec(name);
    std::vector<const web::Site*> sites;
    for (const auto& site : framework.catalog().sites()) sites.push_back(&site);

    auto result = core::RunCrawl(framework, *spec, sites);

    std::vector<net::Url> visited;
    for (const auto* site : sites) visited.push_back(site->landing_url);
    analysis::HistoryLeakDetector detector(visited);

    std::printf("=== %s ===\n", name);
    for (const auto& side : result.Sides()) {
      for (const auto& leak :
           detector.Scan(side.flows, side.index, side.engine)) {
        if (leak.granularity != analysis::LeakGranularity::kFullUrl) continue;
        auto transfers = analysis::ClassifyTransfers(
            side.index, {leak.destination_host}, geo);
        std::printf("%s (%s%s) received %llu full URLs%s:\n",
                    leak.destination_host.c_str(),
                    transfers.empty() ? "?"
                                      : transfers.front().country_name.c_str(),
                    (!transfers.empty() && transfers.front().outside_eu)
                        ? ", OUTSIDE the EU"
                        : "",
                    (unsigned long long)leak.report_count,
                    leak.via_engine_injection ? " via an injected script"
                                              : "");
      }
    }

    // Show concrete reported URLs per sensitive category.
    analysis::TextTable table({"Category", "Example visit reported"});
    for (auto category :
         {web::SiteCategory::kHealth, web::SiteCategory::kReligion,
          web::SiteCategory::kSexuality, web::SiteCategory::kSociety}) {
      const web::Site* example = nullptr;
      for (const auto& site : framework.catalog().sites()) {
        if (site.category == category) {
          example = &site;
          break;
        }
      }
      if (example == nullptr) continue;
      table.AddRow({std::string(web::SiteCategoryName(category)),
                    example->landing_url.Serialize()});
    }
    std::printf("%s\n", table.Render().c_str());
  }

  std::printf("Sample of what sba.yandex.net actually stores (Base64 "
              "decoded server-side):\n  %s\n",
              framework.vendor_world().sba_yandex->last_decoded_url().c_str());
  return 0;
}
