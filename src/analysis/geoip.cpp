#include "analysis/geoip.h"

#include <algorithm>
#include <set>

#include "analysis/flow_index.h"

namespace panoptes::analysis {

GeoIpDb::GeoIpDb(std::vector<net::GeoRange> ranges)
    : ranges_(std::move(ranges)) {}

void GeoIpDb::AddRange(net::GeoRange range) {
  ranges_.push_back(std::move(range));
}

std::optional<GeoInfo> GeoIpDb::Lookup(net::IpAddress ip) const {
  // Longest-prefix match, like a real routing/geo table.
  const net::GeoRange* best = nullptr;
  for (const auto& range : ranges_) {
    if (range.cidr.Contains(ip)) {
      if (best == nullptr ||
          range.cidr.prefix_len() > best->cidr.prefix_len()) {
        best = &range;
      }
    }
  }
  if (best == nullptr) return std::nullopt;
  return GeoInfo{best->country_code, best->country_name, best->eu_member};
}

std::vector<CountryShare> CountriesContacted(const FlowIndex& index,
                                             const GeoIpDb& db) {
  std::map<std::string, CountryShare> by_code;
  std::map<std::string, std::set<std::string>> hosts_by_code;
  // The geo db lookup is a linear range scan; flows reuse a small set
  // of server IPs, so resolve each distinct IP once.
  std::map<uint32_t, std::optional<GeoInfo>> by_ip;
  for (const auto& entry : index.entries()) {
    auto [it, inserted] = by_ip.try_emplace(entry.server_ip);
    if (inserted) it->second = db.Lookup(net::IpAddress(entry.server_ip));
    const auto& info = it->second;
    std::string code = info ? info->country_code : "??";
    auto& share = by_code[code];
    if (share.flows == 0) {
      share.country_code = code;
      share.country_name = info ? info->country_name : "unknown";
      share.eu_member = info && info->eu_member;
    }
    ++share.flows;
    hosts_by_code[code].insert(index.host(entry.host_id).raw);
  }
  std::vector<CountryShare> out;
  for (auto& [code, share] : by_code) {
    for (const auto& host : hosts_by_code[code]) {
      share.hosts.push_back(host);
    }
    out.push_back(std::move(share));
  }
  std::sort(out.begin(), out.end(),
            [](const CountryShare& a, const CountryShare& b) {
              return a.flows > b.flows;
            });
  return out;
}

std::vector<TransferFinding> ClassifyTransfers(
    const FlowIndex& index, const std::vector<std::string>& hosts,
    const GeoIpDb& db) {
  std::vector<TransferFinding> out;
  for (const auto& host : hosts) {
    const auto* postings = index.FlowsToHost(host);
    if (postings == nullptr || postings->empty()) continue;
    auto info = db.Lookup(
        net::IpAddress(index.entries()[postings->front()].server_ip));
    TransferFinding finding;
    finding.host = host;
    finding.country_code = info ? info->country_code : "??";
    finding.country_name = info ? info->country_name : "unknown";
    finding.outside_eu = !info || !info->eu_member;
    out.push_back(std::move(finding));
  }
  return out;
}

}  // namespace panoptes::analysis
