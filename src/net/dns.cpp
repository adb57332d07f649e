#include "net/dns.h"

#include "chaos/injector.h"
#include "net/host_table.h"
#include "util/json.h"
#include "util/strings.h"

namespace panoptes::net {

void DnsZone::AddRecord(std::string_view hostname, IpAddress address) {
  records_[util::ToLower(hostname)] = address;
}

void DnsZone::Attach(const HostTable* table) { tables_.push_back(table); }

std::optional<IpAddress> DnsZone::Find(std::string_view folded) const {
  auto it = records_.find(folded);
  if (it != records_.end()) return it->second;
  for (auto table = tables_.rbegin(); table != tables_.rend(); ++table) {
    if (auto ip = (*table)->Address(folded)) return ip;
  }
  return std::nullopt;
}

std::optional<IpAddress> DnsZone::Lookup(std::string_view hostname) const {
  std::string folded;
  std::string_view key = util::LowerIfNeeded(hostname, folded);
  if (failing_.find(key) != failing_.end()) return std::nullopt;
  if (chaos_ != nullptr && chaos_->DnsFault(key)) return std::nullopt;
  return Find(key);
}

bool DnsZone::Has(std::string_view hostname) const {
  std::string folded;
  return Find(util::LowerIfNeeded(hostname, folded)).has_value();
}

void DnsZone::SetFailing(std::string_view hostname, bool failing) {
  std::string key = util::ToLower(hostname);
  if (failing) {
    failing_.emplace(std::move(key));
  } else {
    failing_.erase(key);
  }
}

std::optional<IpAddress> StubResolver::Resolve(std::string_view hostname) {
  return zone_->Lookup(hostname);
}

DohResolver::DohResolver(std::string provider_host, Transport transport)
    : provider_host_(std::move(provider_host)),
      transport_(std::move(transport)) {}

std::optional<IpAddress> DohResolver::Resolve(std::string_view hostname) {
  std::string folded;
  std::string_view key = util::LowerIfNeeded(hostname, folded);
  auto cached = cache_.find(key);
  if (cached != cache_.end()) return cached->second;

  std::string query_url = "https://" + provider_host_ +
                          "/dns-query?name=" + util::PercentEncode(key) +
                          "&type=A";
  auto body = transport_(query_url);
  if (!body) return std::nullopt;

  // Response format mirrors the RFC 8484 JSON form:
  // {"Status":0,"Answer":[{"name":...,"data":"1.2.3.4"}]}
  auto json = util::Json::Parse(*body);
  if (!json) return std::nullopt;
  const auto* status = json->Find("Status");
  if (status == nullptr || !status->is_number() ||
      status->as_number() != 0) {
    return std::nullopt;
  }
  const auto* answers = json->Find("Answer");
  if (answers == nullptr || !answers->is_array() ||
      answers->as_array().empty()) {
    return std::nullopt;
  }
  const auto* data = answers->as_array().front().Find("data");
  if (data == nullptr || !data->is_string()) return std::nullopt;
  auto ip = IpAddress::Parse(data->as_string());
  if (!ip) return std::nullopt;
  cache_.emplace(key, *ip);
  return ip;
}

}  // namespace panoptes::net
