// The device-side network send path.
//
// Every HTTP(S) exchange an app performs goes through here:
//
//   resolve (stub or DoH) → pick protocol (h3 attempt unless UDP/443 is
//   blocked by iptables) → TCP path: consult iptables for the app UID —
//   diverted flows handshake with the MITM proxy (forged certificate,
//   verified against the device trust store and the app's pin set),
//   accepted flows handshake with the genuine server → exchange.
//
// Certificate pinning failures abort the exchange before any
// application data is sent, which is exactly why the paper's results
// are a lower bound (footnote 3): pinned flows simply vanish from the
// proxy's view.
#pragma once

#include <cstdint>
#include <string_view>

#include <memory>

#include "device/device.h"
#include "device/traffic_stats.h"
#include "net/dns.h"
#include "net/latency.h"
#include "net/fabric.h"
#include "util/clock.h"

namespace panoptes::chaos {
class Injector;
}  // namespace panoptes::chaos

namespace panoptes::obs {
struct JobTelemetry;
}  // namespace panoptes::obs

namespace panoptes::device {

enum class SendError {
  kNone,
  kDnsFailure,
  kTlsUntrusted,
  kTlsHostMismatch,
  kTlsPinMismatch,
  kTlsHandshakeDrop,  // handshake dropped mid-flight (chaos injection)
  kTimeout,           // server never answered inside the budget
  kNoRoute,
  kRejected,  // iptables REJECT matched the TCP flow
};

std::string_view SendErrorName(SendError error);

struct SendOutcome {
  bool ok = false;
  SendError error = SendError::kNone;
  net::HttpResponse response;
  net::HttpVersion version_used = net::HttpVersion::kHttp11;
  bool via_proxy = false;
  bool quic_fallback = false;  // h3 was attempted and blocked
  size_t request_bytes = 0;
  size_t response_bytes = 0;
};

// Implemented by the transparent MITM proxy (proxy::MitmProxy).
class TrafficDiverter {
 public:
  virtual ~TrafficDiverter() = default;

  // The leaf certificate the diverter presents when a client opens a
  // TLS connection with this SNI.
  virtual const net::Certificate& PresentCertificate(
      std::string_view sni) = 0;

  // Processes a request after the client accepted the forged
  // certificate: runs addons, forwards to the genuine server, returns
  // its (addon-processed) response. The diverter owns the request from
  // here on: the stack moves it in and never reads it again, and the
  // MITM proxy moves its headers and body into the flow record.
  virtual net::HttpResponse Forward(net::HttpRequest request,
                                    net::ConnectionMeta meta) = 0;
};

struct SendContext {
  const InstalledApp* app = nullptr;  // UID + pins; required
  net::Resolver* resolver = nullptr;  // required
  bool wants_h3 = false;              // app supports HTTP/3
  // Navigation-chain provenance for engine document requests, copied
  // into the ConnectionMeta so the MITM proxy can record redirect
  // chains without the request carrying extra bytes. Zero = untracked.
  uint64_t chain_id = 0;
  uint32_t redirect_hop = 0;
};

struct NetworkStackStats {
  uint64_t sends = 0;
  uint64_t ok = 0;
  uint64_t dns_failures = 0;
  uint64_t tls_failures = 0;
  uint64_t pin_failures = 0;
  uint64_t timeouts = 0;       // server timeouts (chaos injection)
  uint64_t quic_blocked = 0;   // h3 attempts forced back to TCP
  uint64_t quic_direct = 0;    // h3 exchanges that bypassed the proxy
  uint64_t diverted = 0;
};

class NetworkStack {
 public:
  NetworkStack(AndroidDevice* device, net::Network* network,
               util::SimClock* clock);

  // Installs (or clears, with nullptr) the MITM diverter.
  void SetDiverter(TrafficDiverter* diverter) { diverter_ = diverter; }

  // Simulated round-trip latency added to the clock per exchange.
  void SetLatency(util::Duration latency) { latency_ = latency; }

  // Installs a per-destination latency model (e.g. GeoLatencyModel);
  // overrides the fixed latency. Pass nullptr to revert. The model may
  // be shared: the stack only reads it.
  void SetLatencyModel(std::shared_ptr<const net::LatencyModel> model) {
    latency_model_ = std::move(model);
  }

  // Layers the chaos injector into the send path: TLS handshake drops
  // before any application data and server timeouts that burn the
  // profile's timeout budget on the simulated clock. Pass nullptr to
  // detach.
  void SetChaos(chaos::Injector* injector) { chaos_ = injector; }

  // Counts intercepted handshakes the device rejects for an untrusted
  // MITM CA into `telemetry` (the stats above keep the rest). Pass
  // nullptr to detach.
  void SetTelemetry(obs::JobTelemetry* telemetry) { telemetry_ = telemetry; }

  // Takes the request by value: a diverted request moves on into the
  // diverter, so callers should move theirs in.
  SendOutcome Send(net::HttpRequest request, const SendContext& ctx);

  const NetworkStackStats& stats() const { return stats_; }
  void ResetStats() { stats_ = NetworkStackStats{}; }

  // android.net.TrafficStats-style per-UID byte ledger. Survives
  // ResetStats (cleared explicitly, like rebooting the device).
  const TrafficStatsRegistry& traffic_stats() const { return traffic_; }
  void ResetTrafficStats() { traffic_.Reset(); }

 private:
  SendOutcome DirectExchange(const net::HttpRequest& request,
                             const SendContext& ctx, net::IpAddress ip,
                             net::HttpVersion version);

  AndroidDevice* device_;
  net::Network* network_;
  util::SimClock* clock_;
  TrafficDiverter* diverter_ = nullptr;
  chaos::Injector* chaos_ = nullptr;
  obs::JobTelemetry* telemetry_ = nullptr;
  util::Duration latency_ = util::Duration::Millis(25);
  std::shared_ptr<const net::LatencyModel> latency_model_;
  NetworkStackStats stats_;
  TrafficStatsRegistry traffic_;
};

}  // namespace panoptes::device
