#include "analysis/dns_leakage.h"

#include "analysis/flow_index.h"
#include "net/psl.h"
#include "util/strings.h"

namespace panoptes::analysis {

namespace {

constexpr const char* kDohProviders[] = {"cloudflare-dns.com",
                                         "dns.google"};

}  // namespace

bool IsDohProviderHost(std::string_view host) {
  // Label-boundary suffix match: covers the provider apex and scoped
  // endpoints like "mozilla.cloudflare-dns.com", case- and trailing-
  // dot-insensitively — but never "notdns.google"-style lookalikes.
  for (const char* provider : kDohProviders) {
    if (net::HostMatchesDomain(host, provider)) return true;
  }
  return false;
}

DnsLeakageReport AnalyzeDnsLeakage(
    const FlowIndex& native_index,
    const std::set<std::string>& visited_hosts) {
  DnsLeakageReport report;
  auto dns_query_path = native_index.PathId("/dns-query");
  if (!dns_query_path) return report;

  std::vector<bool> is_doh;
  is_doh.reserve(native_index.hosts().size());
  for (const auto& host : native_index.hosts()) {
    is_doh.push_back(IsDohProviderHost(host.raw));
  }

  const auto& params = native_index.params();
  for (const auto& entry : native_index.entries()) {
    if (!is_doh[entry.host_id] || entry.path_id != *dns_query_path) {
      continue;
    }
    // First "name" query parameter, like Url::QueryParam.
    std::optional<std::string_view> name;
    for (uint32_t p = entry.param_begin; p < entry.param_end; ++p) {
      if (params[p].source == FlowIndex::ParamSource::kQuery &&
          native_index.key(params[p].key_id) == "name") {
        name = params[p].value;
        break;
      }
    }
    if (!name) continue;
    report.uses_doh = true;
    report.provider_host = native_index.host(entry.host_id).raw;
    ++report.queries;
    std::string lowered = util::ToLower(*name);
    report.domains_leaked.insert(lowered);
    if (visited_hosts.count(lowered) > 0) {
      ++report.visited_site_lookups;
    }
  }
  return report;
}

}  // namespace panoptes::analysis
