// The transparent MITM proxy (mitmproxy stand-in).
//
// Runs "on the device" (a Debian container in the paper): traffic
// diverted by the iptables UID rules lands here, gets re-encrypted
// under the Panoptes CA, passes through the addon chain and is then
// forwarded to the genuine server over the network fabric.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "device/netstack.h"
#include "net/fabric.h"
#include "net/tls.h"
#include "proxy/addon.h"
#include "proxy/flowstore.h"
#include "util/strings.h"

namespace panoptes::chaos {
class Injector;
}  // namespace panoptes::chaos

namespace panoptes::obs {
class Journal;
struct JobTelemetry;
}  // namespace panoptes::obs

namespace panoptes::proxy {

class MitmProxy : public device::TrafficDiverter {
 public:
  explicit MitmProxy(net::Network* network, uint64_t seed = 0x4D17B0D5u);

  // Name of the proxy's CA; install it into the device trust store to
  // let interception succeed (Panoptes does this during setup).
  const std::string& ca_name() const { return ca_.name(); }

  void AddAddon(std::shared_ptr<Addon> addon);

  // Label stamped onto every flow (the browser under test).
  void SetBrowserLabel(std::string label) { browser_label_ = std::move(label); }

  // Layers the chaos injector into the upstream leg: a firing
  // kUpstreamReset makes the proxy→server connection die, so the proxy
  // answers 502 and tags the flow fault-injected. Pass nullptr to
  // detach.
  void SetChaos(chaos::Injector* injector) { chaos_ = injector; }

  // Observatory hook: every intercepted flow emits flow_open/flow_close
  // journal events keyed by the proxy's own deterministic flow id (the
  // "flow_stored" store event links that id to the provenance uid).
  // Strictly additive; pass nullptr to detach.
  void SetJournal(obs::Journal* journal) { journal_ = journal; }

  // Counts every flow's request and response wire bytes into
  // `telemetry`. Pass nullptr to detach.
  void SetTelemetry(obs::JobTelemetry* telemetry) { telemetry_ = telemetry; }

  // device::TrafficDiverter:
  const net::Certificate& PresentCertificate(std::string_view sni) override;
  net::HttpResponse Forward(net::HttpRequest request,
                            net::ConnectionMeta meta) override;

  uint64_t flows_processed() const { return next_flow_id_ - 1; }
  size_t forged_cert_count() const { return cert_cache_.size(); }
  // Flows answered locally because a blocking addon claimed them.
  uint64_t blocked_count() const { return blocked_count_; }

 private:
  net::Network* network_;
  chaos::Injector* chaos_ = nullptr;
  obs::Journal* journal_ = nullptr;
  obs::JobTelemetry* telemetry_ = nullptr;
  net::CertificateAuthority ca_;
  std::unordered_map<std::string, net::Certificate, util::StringHash,
                     std::equal_to<>>
      cert_cache_;
  std::vector<std::shared_ptr<Addon>> addons_;
  std::string browser_label_;
  uint64_t next_flow_id_ = 1;
  uint64_t blocked_count_ = 0;
};

}  // namespace panoptes::proxy
