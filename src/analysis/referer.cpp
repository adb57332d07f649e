#include "analysis/referer.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "util/strings.h"

#include "analysis/flow_index.h"
#include "net/psl.h"
#include "net/url.h"

namespace panoptes::analysis {

RefererReport AnalyzeRefererLeakage(const proxy::FlowStore& engine_flows,
                                    const FlowIndex& index) {
  if (index.flow_count() != engine_flows.size()) {
    throw std::invalid_argument(
        "AnalyzeRefererLeakage: index does not match its flow store");
  }
  RefererReport report;
  // Accumulate per interned destination host id (a vector slot), not
  // per host string (a map node), and count distinct referring sites by
  // interned referer-host id — the site spellings themselves are only
  // needed for the distinct count.
  struct PerHostId {
    uint64_t requests = 0;
    std::set<uint32_t> site_ids;
  };
  std::vector<PerHostId> by_host_id(index.hosts().size());
  // The same page URL refers every embed it loads, so both the URL
  // parse and the PSL walk repeat across flows; memoize (host id,
  // domain) per distinct raw Referer value. The destination side's
  // domain is already interned in the index.
  struct RefererInfo {
    uint32_t host_id = 0;
    std::string domain;
  };
  std::unordered_map<std::string, std::optional<RefererInfo>,
                     util::StringHash, std::equal_to<>>
      parsed_referers;
  std::unordered_map<std::string, uint32_t, util::StringHash,
                     std::equal_to<>>
      referer_host_ids;

  // Consecutive flows are usually embeds of the same page load, so the
  // previous flow's Referer bytes short-circuit the memo lookup too.
  std::string_view last_referer;
  const std::optional<RefererInfo>* last_info = nullptr;

  for (uint32_t flow_id = 0; flow_id < index.flow_count(); ++flow_id) {
    const FlowIndex::FlowEntry& entry = index.entries()[flow_id];
    ++report.engine_requests;
    auto referer =
        engine_flows.flow(flow_id).request_headers.GetView("Referer");
    if (!referer) continue;
    if (last_info == nullptr || *referer != last_referer) {
      auto it = parsed_referers.find(*referer);
      if (it == parsed_referers.end()) {
        std::optional<RefererInfo> info;
        if (auto referer_url = net::Url::Parse(*referer)) {
          auto [host_it, inserted] = referer_host_ids.emplace(
              referer_url->host(),
              static_cast<uint32_t>(referer_host_ids.size()));
          info = RefererInfo{host_it->second,
                             net::RegistrableDomain(referer_url->host())};
        }
        it = parsed_referers.emplace(std::string(*referer), std::move(info))
                 .first;
      }
      // The arena-backed header bytes outlive the loop, and node-based
      // map values are address-stable, so both sides of the memo are
      // safe to keep across iterations.
      last_referer = *referer;
      last_info = &it->second;
    }
    if (!*last_info) continue;
    const FlowIndex::HostInfo& host = index.host(entry.host_id);
    // Third party = destination and referring page live on different
    // registrable domains (net::SameSite is exactly this equality).
    if (host.domain == (*last_info)->domain) continue;
    ++report.leaking_requests;
    auto& leak = by_host_id[entry.host_id];
    ++leak.requests;
    leak.site_ids.insert((*last_info)->host_id);
  }

  // Feed the sort in host-ascending order: std::sort is not stable, so
  // a fixed input order keeps the placement of ties reproducible.
  std::map<std::string_view, const PerHostId*> ordered;
  for (size_t id = 0; id < by_host_id.size(); ++id) {
    if (by_host_id[id].requests > 0) {
      ordered.emplace(index.host(static_cast<uint32_t>(id)).raw,
                      &by_host_id[id]);
    }
  }
  for (const auto& [host, entry] : ordered) {
    RefererLeak leak;
    leak.third_party_host = std::string(host);
    leak.requests = entry->requests;
    leak.distinct_sites = entry->site_ids.size();
    report.leaks.push_back(std::move(leak));
  }
  std::sort(report.leaks.begin(), report.leaks.end(),
            [](const RefererLeak& a, const RefererLeak& b) {
              return a.requests > b.requests;
            });
  return report;
}

}  // namespace panoptes::analysis
