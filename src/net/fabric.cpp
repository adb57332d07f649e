#include "net/fabric.h"

#include <algorithm>

#include "chaos/injector.h"
#include "util/strings.h"

namespace panoptes::net {

Network::Network(uint64_t seed) : seed_(seed) { Overlay(); }

Network::Network(const HostTable* table, uint64_t seed)
    : table_(table), seed_(seed) {
  zone_.Attach(table_);
  servers_.resize(table_->end_slot());
}

HostTable& Network::Overlay() {
  if (overlay_ == nullptr) {
    overlay_ = std::make_unique<HostTable>(
        seed_, table_ == nullptr ? 0 : table_->end_slot());
    zone_.Attach(overlay_.get());
  }
  return *overlay_;
}

const CertificateAuthority& Network::web_ca() const {
  return table_ != nullptr ? table_->web_ca() : overlay_->web_ca();
}

void Network::Bind(uint32_t slot, std::shared_ptr<Server> server) {
  servers_[slot] = std::move(server);
}

const HostRecord& Network::Host(std::string_view hostname, IpAddress ip,
                                std::shared_ptr<Server> server,
                                bool supports_h3) {
  const HostRecord& record = Overlay().Add(hostname, ip, supports_h3);
  if (servers_.size() <= record.slot) servers_.resize(record.slot + 1);
  servers_[record.slot] = std::move(server);
  return record;
}

const HostRecord* Network::FindByHost(std::string_view hostname) const {
  if (overlay_ != nullptr) {
    if (const HostRecord* record = overlay_->Find(hostname)) return record;
  }
  return table_ == nullptr ? nullptr : table_->Find(hostname);
}

const HostRecord* Network::FindByIp(IpAddress ip) const {
  if (overlay_ != nullptr) {
    if (const HostRecord* record = overlay_->FindByIp(ip)) return record;
  }
  if (table_ == nullptr) return nullptr;
  const HostRecord* record = table_->FindByIp(ip);
  // A table host rebound in the overlay no longer answers here.
  if (record != nullptr && overlay_ != nullptr &&
      overlay_->Find(record->hostname) != nullptr) {
    return nullptr;
  }
  return record;
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
  const HostTable* tables[] = {table_, overlay_.get()};
  for (const HostTable* table : tables) {
    if (table == nullptr) continue;
    for (const HostRecord& record : table->records()) {
      out.push_back(record.hostname);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace panoptes::net
