#include "net/fabric.h"

#include <algorithm>

#include "chaos/injector.h"
#include "util/strings.h"

namespace panoptes::net {

Network::Network(const HostTable* table)
    : table_(table), zone_(table), servers_(table->size()) {}

void Network::Bind(uint32_t slot, std::shared_ptr<Server> server) {
  servers_.at(slot) = std::move(server);
}

const Certificate* Network::LeafFor(std::string_view sni) const {
  const HostRecord* record = FindByHost(sni);
  return record == nullptr ? nullptr : &record->leaf;
}

bool Network::SupportsH3(std::string_view hostname) const {
  const HostRecord* record = FindByHost(hostname);
  return record != nullptr && record->supports_h3;
}

HttpResponse Network::Deliver(IpAddress server_ip, const HttpRequest& request,
                              const ConnectionMeta& meta) {
  ++delivered_;
  for (const auto& entry : request.headers.entries()) {
    if (util::StartsWithIgnoreCase(entry.first, "x-panoptes")) {
      ++taint_leaks_;
      break;
    }
  }
  const HostRecord* record = FindByIp(server_ip);
  Server* server = record == nullptr ? nullptr : ServerFor(*record);
  if (server == nullptr) {
    return HttpResponse::Error(502, "no server at " + server_ip.ToString());
  }
  if (chaos_ != nullptr && chaos_->ServerError(record->hostname)) {
    // An origin-side 5xx episode: the request reached the server (and
    // is counted above), but no genuine response comes back. The marker
    // header lets the proxy tag the flow as fault-injected.
    HttpResponse error =
        HttpResponse::Error(503, "chaos: injected server error");
    error.headers.Set(chaos::kInjectedFaultHeader, "server-error");
    return error;
  }
  return server->Handle(request, meta);
}

void Network::SetChaos(chaos::Injector* injector) {
  chaos_ = injector;
  zone_.SetChaos(injector);
}

std::vector<std::string> Network::Hostnames() const {
  std::vector<std::string> out;
  out.reserve(table_->size());
  for (const HostRecord& record : table_->records()) {
    out.push_back(record.hostname);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace panoptes::net
