// Deep audit of one browser: everything Panoptes can say about it from
// a single crawl — request/volume stats, distinct native destinations
// with classification and hosting country, history-leak findings, PII
// matrix row, and DoH behaviour.
//
//   ./build/examples/audit_browser [browser-name] [site-count]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "analysis/flow_index.h"
#include "analysis/geoip.h"
#include "analysis/historyleak.h"
#include "analysis/hostslist.h"
#include "analysis/pii.h"
#include "analysis/report.h"
#include "analysis/stats.h"
#include "browser/profiles.h"
#include "core/campaign.h"
#include "core/framework.h"

using namespace panoptes;

int main(int argc, char** argv) {
  std::string browser_name = argc > 1 ? argv[1] : "Edge";
  int site_count = argc > 2 ? std::atoi(argv[2]) : 60;
  const auto* spec = browser::FindSpec(browser_name);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown browser: %s\n", browser_name.c_str());
    return 1;
  }

  core::FrameworkOptions options;
  options.catalog.popular_count = site_count / 2;
  options.catalog.sensitive_count = site_count - site_count / 2;
  core::Framework framework(options);

  std::vector<const web::Site*> sites;
  for (const auto& site : framework.catalog().sites()) sites.push_back(&site);

  std::printf("=== Panoptes audit: %s %s ===\n", spec->name.c_str(),
              spec->version.c_str());
  std::printf("package: %s | engine: %s | instrumented via %s\n",
              spec->package.c_str(), spec->engine.c_str(),
              spec->instrumentation == browser::Instrumentation::kCdp
                  ? "CDP"
                  : "Frida WebView hook");
  std::printf("crawling %zu sites...\n\n", sites.size());

  auto result = core::RunCrawl(framework, *spec, sites);
  auto requests = analysis::ComputeRequestStats(result);
  auto volume = analysis::ComputeVolumeStats(result);

  std::printf("--- traffic split ---\n");
  std::printf("engine: %llu requests (%s out)\n",
              (unsigned long long)requests.engine_requests,
              analysis::Bytes(volume.engine_bytes).c_str());
  std::printf("native: %llu requests (%s out) — ratio %s, +%s bytes\n\n",
              (unsigned long long)requests.native_requests,
              analysis::Bytes(volume.native_bytes).c_str(),
              analysis::Ratio(requests.native_ratio).c_str(),
              analysis::Percent(volume.native_extra_fraction).c_str());

  // Destinations.
  auto hosts_list = analysis::HostsList::Default();
  analysis::GeoIpDb geo(framework.geo_plan().ranges());
  std::printf("--- native destinations ---\n");
  analysis::TextTable table({"Host", "Requests", "Class", "Country"});
  const analysis::FlowIndex& native_index = *result.native_index;
  for (const auto& host : native_index.SortedHosts()) {
    const auto* flow_ids = native_index.FlowsToHost(host);
    auto info = geo.Lookup(net::IpAddress(
        native_index.entries()[flow_ids->front()].server_ip));
    table.AddRow({host, std::to_string(flow_ids->size()),
                  hosts_list.IsAdRelated(host) ? "AD/ANALYTICS" : "vendor/infra",
                  info ? info->country_name +
                             (info->eu_member ? " (EU)" : " (non-EU)")
                       : "?"});
  }
  std::printf("%s\n", table.Render().c_str());

  // History leaks.
  std::vector<net::Url> visited;
  for (const auto* site : sites) visited.push_back(site->landing_url);
  analysis::HistoryLeakDetector detector(visited);
  std::printf("--- browsing-history leaks ---\n");
  bool any = false;
  for (const auto& side : result.Sides()) {
    for (const auto& leak :
         detector.Scan(side.flows, side.index, side.engine)) {
      any = true;
      std::printf("%s receives the %s (%s%s%s) — %llu reports\n",
                  leak.destination_host.c_str(),
                  leak.granularity == analysis::LeakGranularity::kFullUrl
                      ? "FULL URL"
                      : "hostname",
                  leak.encoding.c_str(),
                  leak.persistent_identifier ? ", with persistent id" : "",
                  leak.via_engine_injection ? ", via JS injection" : "",
                  (unsigned long long)leak.report_count);
    }
  }
  if (!any) std::printf("none detected\n");

  // PII row.
  analysis::PiiScanner scanner(framework.device().profile());
  auto pii = scanner.Scan(native_index);
  std::printf("\n--- Table 2 row ---\n");
  for (size_t i = 0; i < analysis::kPiiFieldCount; ++i) {
    std::printf("%-16s %s\n",
                std::string(analysis::PiiFieldName(
                                static_cast<analysis::PiiField>(i)))
                    .c_str(),
                pii.leaked[i] ? "YES" : "no");
  }

  std::printf("\nDNS: %s\n",
              spec->doh == browser::DohProvider::kNone
                  ? "local stub resolver"
                  : (spec->doh == browser::DohProvider::kCloudflare
                         ? "DoH via cloudflare-dns.com"
                         : "DoH via dns.google"));
  std::printf("pin-lost handshakes: %llu (lower-bound caveat)\n",
              (unsigned long long)result.stack_stats.pin_failures);
  return 0;
}
