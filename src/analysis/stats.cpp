#include "analysis/stats.h"

#include <algorithm>

#include "analysis/flow_index.h"

namespace panoptes::analysis {

RequestStats ComputeRequestStats(const core::CrawlResult& result) {
  RequestStats stats;
  stats.browser = result.browser;
  stats.engine_requests = result.engine_flows->size();
  stats.native_requests = result.native_flows->size();
  uint64_t total = stats.engine_requests + stats.native_requests;
  stats.native_ratio =
      total == 0 ? 0 : static_cast<double>(stats.native_requests) / total;
  return stats;
}

VolumeStats ComputeVolumeStats(const core::CrawlResult& result) {
  VolumeStats stats;
  stats.browser = result.browser;
  // Byte totals are accumulated at index-build time.
  stats.engine_bytes = result.engine_index->request_bytes_total();
  stats.native_bytes = result.native_index->request_bytes_total();
  stats.native_extra_fraction =
      stats.engine_bytes == 0
          ? 0
          : static_cast<double>(stats.native_bytes) / stats.engine_bytes;
  return stats;
}

DomainStats ComputeDomainStats(const core::CrawlResult& result,
                               const std::vector<std::string>& vendor_domains,
                               const HostsList& hosts_list) {
  DomainStats stats;
  stats.browser = result.browser;
  // The host table already carries each distinct host with its
  // registrable domain; no flow rescan, no re-derivation.
  stats.distinct_hosts = result.native_index->hosts().size();
  for (const auto& host : result.native_index->hosts()) {
    bool first_party = false;
    for (const auto& vendor_domain : vendor_domains) {
      if (host.domain == vendor_domain) {
        first_party = true;
        break;
      }
    }
    if (!first_party) ++stats.third_party_hosts;
    if (hosts_list.IsAdRelated(host.raw)) {
      ++stats.ad_related_hosts;
      stats.ad_hosts.push_back(host.raw);
    }
  }
  std::sort(stats.ad_hosts.begin(), stats.ad_hosts.end());
  if (stats.distinct_hosts > 0) {
    stats.third_party_fraction =
        static_cast<double>(stats.third_party_hosts) / stats.distinct_hosts;
    stats.ad_related_fraction =
        static_cast<double>(stats.ad_related_hosts) / stats.distinct_hosts;
  }
  return stats;
}

std::vector<std::string> VendorDomainsFor(std::string_view browser_name) {
  if (browser_name == "Chrome") {
    return {"google.com", "googleapis.com", "gstatic.com"};
  }
  if (browser_name == "Edge") {
    return {"microsoft.com", "bing.com", "msn.com", "skype.com"};
  }
  if (browser_name == "Opera") {
    return {"opera.com", "opera-api.com", "oleads.com"};
  }
  if (browser_name == "Vivaldi") return {"vivaldi.com"};
  if (browser_name == "Yandex") {
    return {"yandex.net", "yandex.ru", "yandexadexchange.net"};
  }
  if (browser_name == "Brave") return {"brave.com"};
  if (browser_name == "Samsung") {
    return {"samsung.com", "samsungbrowser.com"};
  }
  if (browser_name == "QQ") return {"qq.com"};
  if (browser_name == "DuckDuckGo") return {"duckduckgo.com"};
  if (browser_name == "Dolphin") return {"dolphin-browser.com"};
  if (browser_name == "Whale") return {"naver.com", "naver.net"};
  if (browser_name == "Mint") return {"mi.com", "xiaomi.com"};
  if (browser_name == "Kiwi") {
    return {"kiwibrowser.com", "kiwisearchservices.com"};
  }
  if (browser_name == "CocCoc") return {"coccoc.com", "itim.vn"};
  if (browser_name == "UC International") return {"ucweb.com"};
  return {};
}

}  // namespace panoptes::analysis
