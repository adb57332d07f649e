#include "net/fabric.h"

#include <algorithm>

#include "chaos/injector.h"
#include "util/strings.h"

namespace panoptes::net {

Network::Network(uint64_t seed)
    : web_ca_("SimWeb-Root-CA", util::Rng(seed)) {}

const HostBinding& Network::Host(std::string hostname, IpAddress ip,
                                 std::shared_ptr<Server> server,
                                 bool supports_h3) {
  std::string key = util::ToLower(hostname);
  HostBinding binding;
  binding.hostname = key;
  binding.ip = ip;
  binding.leaf = const_cast<CertificateAuthority&>(web_ca_).IssueLeaf(key);
  binding.supports_h3 = supports_h3;
  binding.server = std::move(server);

  zone_.AddRecord(key, ip);
  auto [it, _] = by_host_.insert_or_assign(key, std::move(binding));
  by_ip_[ip.value()] = &it->second;
  return it->second;
}

const HostBinding* Network::FindByHost(std::string_view hostname) const {
  std::string folded;
  auto it = by_host_.find(util::LowerIfNeeded(hostname, folded));
  return it == by_host_.end() ? nullptr : &it->second;
}

const HostBinding* Network::FindByIp(IpAddress ip) const {
  auto it = by_ip_.find(ip.value());
  return it == by_ip_.end() ? nullptr : it->second;
}

const Certificate* Network::LeafFor(std::string_view sni) const {
  const auto* binding = FindByHost(sni);
  return binding == nullptr ? nullptr : &binding->leaf;
}

bool Network::SupportsH3(std::string_view hostname) const {
  const auto* binding = FindByHost(hostname);
  return binding != nullptr && binding->supports_h3;
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
  const auto* binding = FindByIp(server_ip);
  if (binding == nullptr || binding->server == nullptr) {
    return HttpResponse::Error(502, "no server at " + server_ip.ToString());
  }
  if (chaos_ != nullptr && chaos_->ServerError(binding->hostname)) {
    // An origin-side 5xx episode: the request reached the server (and
    // is counted above), but no genuine response comes back. The marker
    // header lets the proxy tag the flow as fault-injected.
    HttpResponse error =
        HttpResponse::Error(503, "chaos: injected server error");
    error.headers.Set(chaos::kInjectedFaultHeader, "server-error");
    return error;
  }
  return binding->server->Handle(request, meta);
}

void Network::SetChaos(chaos::Injector* injector) {
  chaos_ = injector;
  zone_.SetChaos(injector);
}

std::vector<std::string> Network::Hostnames() const {
  std::vector<std::string> out;
  out.reserve(by_host_.size());
  for (const auto& [host, _] : by_host_) out.push_back(host);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace panoptes::net
