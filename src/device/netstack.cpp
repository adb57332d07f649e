#include "device/netstack.h"

#include "chaos/injector.h"
#include "obs/telemetry.h"

namespace panoptes::device {

namespace {

SendError FromVerify(net::TlsVerifyResult result) {
  switch (result) {
    case net::TlsVerifyResult::kOk: return SendError::kNone;
    case net::TlsVerifyResult::kUntrustedIssuer:
      return SendError::kTlsUntrusted;
    case net::TlsVerifyResult::kHostMismatch:
      return SendError::kTlsHostMismatch;
    case net::TlsVerifyResult::kPinMismatch:
      return SendError::kTlsPinMismatch;
  }
  return SendError::kNone;
}

}  // namespace

std::string_view SendErrorName(SendError error) {
  switch (error) {
    case SendError::kNone: return "none";
    case SendError::kDnsFailure: return "dns-failure";
    case SendError::kTlsUntrusted: return "tls-untrusted";
    case SendError::kTlsHostMismatch: return "tls-host-mismatch";
    case SendError::kTlsPinMismatch: return "tls-pin-mismatch";
    case SendError::kTlsHandshakeDrop: return "tls-handshake-drop";
    case SendError::kTimeout: return "timeout";
    case SendError::kNoRoute: return "no-route";
    case SendError::kRejected: return "rejected";
  }
  return "?";
}

NetworkStack::NetworkStack(AndroidDevice* device, net::Network* network,
                           util::SimClock* clock)
    : device_(device), network_(network), clock_(clock) {}

SendOutcome NetworkStack::Send(net::HttpRequest request,
                               const SendContext& ctx) {
  ++stats_.sends;

  SendOutcome outcome;
  outcome.request_bytes = request.WireSize();

  const std::string_view host = request.url.host();
  auto ip = ctx.resolver->Resolve(host);
  if (!ip) {
    // A failed lookup still costs a resolver round trip.
    clock_->Advance(latency_);
    ++stats_.dns_failures;
    traffic_.RecordFailure(ctx.app->uid);
    outcome.error = SendError::kDnsFailure;
    return outcome;
  }
  clock_->Advance(latency_model_ ? latency_model_->RttTo(*ip) : latency_);

  const int uid = ctx.app->uid;
  const uint16_t port = request.url.EffectivePort();
  const bool https = request.url.scheme() == "https";

  // HTTP/3 attempt: QUIC runs over UDP/443 and cannot be intercepted by
  // the MITM, so Panoptes installs a REJECT rule; the browser falls
  // back to TCP exactly like real clients do.
  bool quic_fallback = false;
  if (https && ctx.wants_h3 && network_->SupportsH3(host)) {
    RuleAction udp_action =
        device_->iptables().Evaluate(uid, Protocol::kUdp, 443);
    if (udp_action == RuleAction::kAccept) {
      ++stats_.quic_direct;
      return DirectExchange(request, ctx, *ip, net::HttpVersion::kHttp3);
    }
    ++stats_.quic_blocked;
    quic_fallback = true;
  }

  RuleAction tcp_action =
      device_->iptables().Evaluate(uid, Protocol::kTcp, port);
  if (tcp_action == RuleAction::kReject) {
    traffic_.RecordFailure(uid);
    outcome.error = SendError::kRejected;
    outcome.quic_fallback = quic_fallback;
    return outcome;
  }

  if (tcp_action == RuleAction::kDivert && diverter_ != nullptr) {
    ++stats_.diverted;
    if (https) {
      if (chaos_ != nullptr && chaos_->TlsDrop(host)) {
        // The handshake dies mid-flight before any application data:
        // nothing for the proxy to record, exactly like a pinning
        // failure from the flow ledger's point of view.
        ++stats_.tls_failures;
        traffic_.RecordFailure(uid);
        outcome.error = SendError::kTlsHandshakeDrop;
        outcome.quic_fallback = quic_fallback;
        return outcome;
      }
      const net::Certificate& presented =
          diverter_->PresentCertificate(host);
      auto verdict = net::VerifyCertificate(
          presented, host, device_->trust_store(), ctx.app->pins);
      if (verdict != net::TlsVerifyResult::kOk) {
        ++stats_.tls_failures;
        if (verdict == net::TlsVerifyResult::kUntrustedIssuer) {
          // The diverter presented a certificate the device rejects:
          // the MITM CA is not in the trust store, so interception
          // fails (the paper's "no CA" failure mode).
          if (telemetry_ != nullptr) ++telemetry_->ca_failures;
        }
        if (verdict == net::TlsVerifyResult::kPinMismatch) {
          ++stats_.pin_failures;
        }
        traffic_.RecordFailure(uid);
        outcome.error = FromVerify(verdict);
        outcome.quic_fallback = quic_fallback;
        return outcome;
      }
    }
    if (chaos_ != nullptr && chaos_->ServerTimeout(host)) {
      // The server never answers: the client burns the full timeout
      // budget on the simulated clock, then gives up.
      clock_->Advance(chaos_->server_timeout());
      ++stats_.timeouts;
      traffic_.RecordFailure(uid);
      outcome.error = SendError::kTimeout;
      outcome.quic_fallback = quic_fallback;
      return outcome;
    }
    net::ConnectionMeta meta;
    meta.client_ip = device_->profile().public_ip;
    meta.server_ip = *ip;
    meta.sni = host;
    meta.app_uid = uid;
    meta.version = net::HttpVersion::kHttp11;
    meta.time = clock_->Now();
    meta.tls = https;
    meta.chain_id = ctx.chain_id;
    meta.redirect_hop = ctx.redirect_hop;
    outcome.response = diverter_->Forward(std::move(request), meta);
    outcome.ok = true;
    outcome.via_proxy = true;
    outcome.version_used = net::HttpVersion::kHttp11;
    outcome.quic_fallback = quic_fallback;
    outcome.response_bytes = outcome.response.WireSize();
    traffic_.RecordExchange(uid, outcome.request_bytes,
                            outcome.response_bytes);
    ++stats_.ok;
    return outcome;
  }

  SendOutcome direct = DirectExchange(
      request, ctx, *ip,
      https ? net::HttpVersion::kHttp2 : net::HttpVersion::kHttp11);
  direct.quic_fallback = quic_fallback;
  return direct;
}

SendOutcome NetworkStack::DirectExchange(const net::HttpRequest& request,
                                         const SendContext& ctx,
                                         net::IpAddress ip,
                                         net::HttpVersion version) {
  SendOutcome outcome;
  outcome.request_bytes = request.WireSize();
  const std::string_view host = request.url.host();
  const bool https = request.url.scheme() == "https";

  if (https) {
    if (chaos_ != nullptr && chaos_->TlsDrop(host)) {
      ++stats_.tls_failures;
      traffic_.RecordFailure(ctx.app->uid);
      outcome.error = SendError::kTlsHandshakeDrop;
      return outcome;
    }
    const net::Certificate* leaf = network_->LeafFor(host);
    if (leaf == nullptr) {
      traffic_.RecordFailure(ctx.app->uid);
      outcome.error = SendError::kNoRoute;
      return outcome;
    }
    auto verdict = net::VerifyCertificate(*leaf, host, device_->trust_store(),
                                          ctx.app->pins);
    if (verdict != net::TlsVerifyResult::kOk) {
      ++stats_.tls_failures;
      if (verdict == net::TlsVerifyResult::kPinMismatch) {
        ++stats_.pin_failures;
      }
      traffic_.RecordFailure(ctx.app->uid);
      outcome.error = FromVerify(verdict);
      return outcome;
    }
  }

  if (chaos_ != nullptr && chaos_->ServerTimeout(host)) {
    clock_->Advance(chaos_->server_timeout());
    ++stats_.timeouts;
    traffic_.RecordFailure(ctx.app->uid);
    outcome.error = SendError::kTimeout;
    return outcome;
  }

  net::ConnectionMeta meta;
  meta.client_ip = device_->profile().public_ip;
  meta.server_ip = ip;
  meta.sni = host;
  meta.app_uid = ctx.app->uid;
  meta.version = version;
  meta.time = clock_->Now();
  meta.tls = https;

  outcome.response = network_->Deliver(ip, request, meta);
  outcome.ok = true;
  outcome.version_used = version;
  outcome.response_bytes = outcome.response.WireSize();
  traffic_.RecordExchange(ctx.app->uid, outcome.request_bytes,
                          outcome.response_bytes);
  ++stats_.ok;
  return outcome;
}

}  // namespace panoptes::device
