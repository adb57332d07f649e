// The in-process network fabric: every simulated remote endpoint
// (website origins, browser-vendor backends, ad servers, DoH providers)
// registers here, and all device traffic is delivered through it.
//
// The fabric is synchronous and deterministic. It owns the authoritative
// DNS zone, the "web PKI" certificate authority that issues the real
// leaf certificates, and the hostname → server bindings.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/dns.h"
#include "net/http.h"
#include "net/ip.h"
#include "net/tls.h"
#include "util/clock.h"
#include "util/strings.h"

namespace panoptes::chaos {
class Injector;
}  // namespace panoptes::chaos

namespace panoptes::net {

// Per-exchange metadata visible to servers (and recorded by the proxy).
struct ConnectionMeta {
  IpAddress client_ip;
  IpAddress server_ip;
  std::string sni;          // hostname presented in the handshake
  int app_uid = -1;         // kernel UID of the originating app
  HttpVersion version = HttpVersion::kHttp11;
  util::SimTime time;       // simulated send time
  bool via_proxy = false;   // true once the MITM has forwarded it
  bool tls = true;
  // Navigation-chain provenance observed by the instrumentation on
  // engine document requests (CDP navigation events, not wire bytes):
  // a per-context navigation token plus the 0-based redirect hop
  // index. Zero token = not a tracked document request.
  uint64_t chain_id = 0;
  uint32_t redirect_hop = 0;
};

// A remote HTTP endpoint.
class Server {
 public:
  virtual ~Server() = default;

  // Handles one request/response exchange.
  virtual HttpResponse Handle(const HttpRequest& request,
                              const ConnectionMeta& meta) = 0;
};

// Adapts a lambda into a Server.
class FunctionServer : public Server {
 public:
  using Handler =
      std::function<HttpResponse(const HttpRequest&, const ConnectionMeta&)>;
  explicit FunctionServer(Handler handler) : handler_(std::move(handler)) {}

  HttpResponse Handle(const HttpRequest& request,
                      const ConnectionMeta& meta) override {
    return handler_(request, meta);
  }

 private:
  Handler handler_;
};

// One hostname bound to an address, a certificate and a server.
struct HostBinding {
  std::string hostname;
  IpAddress ip;
  Certificate leaf;        // issued by the fabric's web CA
  bool supports_h3 = false;
  std::shared_ptr<Server> server;
};

class Network {
 public:
  // `seed` feeds the web CA's key-id generator.
  explicit Network(uint64_t seed = 0x9A7075E5u);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  DnsZone& zone() { return zone_; }
  const DnsZone& zone() const { return zone_; }

  // The CA that signs every genuine server leaf. Device trust stores
  // include it by default (it models the public web PKI).
  const CertificateAuthority& web_ca() const { return web_ca_; }

  // Registers a hostname: adds the DNS record, issues a leaf and binds
  // the server. Replaces any previous binding for the hostname.
  const HostBinding& Host(std::string hostname, IpAddress ip,
                          std::shared_ptr<Server> server,
                          bool supports_h3 = false);

  const HostBinding* FindByHost(std::string_view hostname) const;
  const HostBinding* FindByIp(IpAddress ip) const;

  // Certificate the genuine server would present for `sni`; nullptr for
  // unknown hosts.
  const Certificate* LeafFor(std::string_view sni) const;

  bool SupportsH3(std::string_view hostname) const;

  // Delivers a request to the server bound at `server_ip`. Returns 502
  // when nothing is listening there. Counts every delivery.
  HttpResponse Deliver(IpAddress server_ip, const HttpRequest& request,
                       const ConnectionMeta& meta);

  // Layers the chaos injector into delivery: origins answer with
  // synthesized 5xx episodes per the injector's profile. Injected
  // responses carry chaos::kInjectedFaultHeader so the proxy can tag
  // the flow. Also propagates into the zone (DNS faults). Pass nullptr
  // to detach.
  void SetChaos(chaos::Injector* injector);

  uint64_t delivered_count() const { return delivered_; }

  // Number of delivered requests that still carried a Panoptes taint
  // header. Invariant: stays zero — the MITM addon must strip the taint
  // before forwarding (the tainted header must never reach a real
  // server, or it could alter site behaviour).
  uint64_t taint_leaks() const { return taint_leaks_; }

  // Every hostname currently bound, sorted.
  std::vector<std::string> Hostnames() const;

 private:
  DnsZone zone_;
  CertificateAuthority web_ca_;
  // Keys are folded once, at Host(); lookups fold only input that
  // carries an uppercase letter. Hash nodes are stable, so by_ip_
  // (keyed by IpAddress::value()) points straight at the binding, and a
  // rebound name keeps its node.
  std::unordered_map<std::string, HostBinding, util::StringHash,
                     std::equal_to<>>
      by_host_;
  std::unordered_map<uint32_t, const HostBinding*> by_ip_;
  chaos::Injector* chaos_ = nullptr;
  uint64_t delivered_ = 0;
  uint64_t taint_leaks_ = 0;
};

}  // namespace panoptes::net
