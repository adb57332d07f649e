// The in-process network fabric: every simulated remote endpoint
// (website origins, browser-vendor backends, ad servers, DoH providers)
// is reachable here, and all device traffic is delivered through it.
//
// The fabric is synchronous and deterministic. A Network is one
// testbed's mutable view of the simulated internet: its DNS zone, the
// servers answering at each host (with their inspection state), the
// chaos hooks and the delivery counters. What a host *is* (address,
// genuine leaf, HTTP/3 support) lives in a net::HostTable, which a
// network either shares read-only with other networks (Bind attaches a
// server to each of its slots) or grows itself at runtime (Host).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/dns.h"
#include "net/host_table.h"
#include "net/http.h"
#include "net/ip.h"
#include "net/tls.h"
#include "util/clock.h"

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

class Network {
 public:
  // A network with no shared table: every host is bound through Host().
  // `seed` feeds the web CA that issues those hosts' leaves.
  explicit Network(uint64_t seed = 0x9A7075E5u);

  // A network over a shared, read-only `table` (not owned; must outlive
  // the network). Servers attach to its slots through Bind; Host() adds
  // overlay bindings that shadow it, with leaves from a CA fed by `seed`.
  Network(const HostTable* table, uint64_t seed);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  DnsZone& zone() { return zone_; }
  const DnsZone& zone() const { return zone_; }

  // The CA that signs every genuine server leaf. Device trust stores
  // include it by default (it models the public web PKI).
  const CertificateAuthority& web_ca() const;

  // Attaches `server` to slot `slot` of the shared table. Issues no leaf
  // and adds no DNS record: the table already holds both.
  void Bind(uint32_t slot, std::shared_ptr<Server> server);

  // Registers a hostname in this network's overlay: issues a leaf, makes
  // the name resolve to `ip` and binds the server. A name bound before,
  // in the overlay or the shared table, is shadowed and gives up its old
  // address. The returned record is valid until the next Host call.
  const HostRecord& Host(std::string_view hostname, IpAddress ip,
                         std::shared_ptr<Server> server,
                         bool supports_h3 = false);

  const HostRecord* FindByHost(std::string_view hostname) const;
  const HostRecord* FindByIp(IpAddress ip) const;

  // The server this network binds for `record`; nullptr when none is.
  Server* ServerFor(const HostRecord& record) const {
    return record.slot < servers_.size() ? servers_[record.slot].get()
                                         : nullptr;
  }

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
  HostTable& Overlay();

  const HostTable* table_ = nullptr;
  uint64_t seed_;
  // Created by the first Host() call; its slots follow the table's.
  std::unique_ptr<HostTable> overlay_;
  DnsZone zone_;
  // Indexed by HostRecord::slot, table slots first.
  std::vector<std::shared_ptr<Server>> servers_;
  chaos::Injector* chaos_ = nullptr;
  uint64_t delivered_ = 0;
  uint64_t taint_leaks_ = 0;
};

}  // namespace panoptes::net
