// DNS: the authoritative zone of the simulated internet, plus the two
// resolver paths the paper distinguishes — a local stub resolver (no
// observable HTTP traffic) and DNS-over-HTTPS (which *is* native HTTPS
// traffic to Cloudflare/Google and shows up in the flow stores).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#include "net/ip.h"

namespace panoptes::chaos {
class Injector;
}  // namespace panoptes::chaos

namespace panoptes::net {

class HostTable;

// Authoritative hostname → address mapping for the whole simulation.
//
// A zone holds no records of its own: it answers from the one host
// table it is built over, after its own failing names and the chaos
// hooks have had their say.
class DnsZone {
 public:
  // Answers for every host of `table`. Not owned; must outlive the zone.
  explicit DnsZone(const HostTable* table) : table_(table) {}

  std::optional<IpAddress> Lookup(std::string_view hostname) const;
  bool Has(std::string_view hostname) const;

  // Simulate an outage for a specific name (failure injection).
  void SetFailing(std::string_view hostname, bool failing);

  // Layers the chaos injector under every lookup: transient SERVFAILs
  // and dead-host outages per the injector's profile. Both resolver
  // paths (stub and DoH) resolve through the zone, so one hook covers
  // them. Pass nullptr to detach.
  void SetChaos(chaos::Injector* injector) { chaos_ = injector; }

 private:
  const HostTable* table_;
  std::set<std::string, std::less<>> failing_;
  chaos::Injector* chaos_ = nullptr;
};

// Resolver interface used by the device network stack.
class Resolver {
 public:
  virtual ~Resolver() = default;

  // Resolves a hostname; nullopt = NXDOMAIN / failure.
  virtual std::optional<IpAddress> Resolve(std::string_view hostname) = 0;

  // Human-readable description ("stub", "doh:cloudflare-dns.com").
  virtual std::string Describe() const = 0;
};

// The device's local stub resolver: answers from the zone without
// generating observable application-layer traffic.
class StubResolver : public Resolver {
 public:
  explicit StubResolver(const DnsZone* zone) : zone_(zone) {}

  std::optional<IpAddress> Resolve(std::string_view hostname) override;
  std::string Describe() const override { return "stub"; }

 private:
  const DnsZone* zone_;
};

// DNS-over-HTTPS resolver. The actual HTTPS query is delegated to a
// transport callback so this class stays independent of the device
// stack that owns it; the transport returns the response body of
// GET https://<provider>/dns-query?name=<host>&type=A.
class DohResolver : public Resolver {
 public:
  using Transport =
      std::function<std::optional<std::string>(std::string_view query_url)>;

  DohResolver(std::string provider_host, Transport transport);

  std::optional<IpAddress> Resolve(std::string_view hostname) override;
  std::string Describe() const override { return "doh:" + provider_host_; }

  const std::string& provider_host() const { return provider_host_; }

 private:
  std::string provider_host_;
  Transport transport_;
  std::map<std::string, IpAddress, std::less<>> cache_;
};

}  // namespace panoptes::net
