#include "proxy/mitm.h"

#include "chaos/injector.h"
#include "obs/journal.h"
#include "obs/telemetry.h"
#include "util/rng.h"

namespace panoptes::proxy {

MitmProxy::MitmProxy(net::Network* network, uint64_t seed)
    : network_(network), ca_("Panoptes-MITM-CA", util::Rng(seed)) {}

void MitmProxy::AddAddon(std::shared_ptr<Addon> addon) {
  addons_.push_back(std::move(addon));
}

const net::Certificate& MitmProxy::PresentCertificate(std::string_view sni) {
  auto it = cert_cache_.find(sni);
  if (it != cert_cache_.end()) return it->second;
  auto [inserted, _] =
      cert_cache_.emplace(std::string(sni), ca_.IssueLeaf(sni));
  return inserted->second;
}

net::HttpResponse MitmProxy::Forward(net::HttpRequest request,
                                     net::ConnectionMeta meta) {
  Flow flow;
  flow.id = next_flow_id_++;
  flow.time = meta.time;
  flow.browser = browser_label_;
  flow.app_uid = meta.app_uid;
  flow.method = request.method;
  flow.url = request.url;
  flow.request_bytes = request.WireSize();
  flow.server_ip = meta.server_ip;
  flow.version = meta.version;
  flow.chain_id = meta.chain_id;
  flow.redirect_hop = meta.redirect_hop;

  if (journal_ != nullptr) {
    journal_->Emit(flow.time.millis, "proxy", "flow_open")
        .Num("proxy_id", flow.id)
        .Str("host", flow.url.host())
        .Str("method", net::MethodName(flow.method));
  }

  // Addons may rewrite the request (the taint filter strips the
  // x-panoptes-taint header here, after recording it on the flow).
  for (const auto& addon : addons_) {
    addon->OnRequest(flow, request);
  }

  net::HttpResponse response;
  if (flow.blocked) {
    // A blocking addon claimed this flow: answer locally, never
    // contact the upstream (the NoMoAds/ReCon-style countermeasure).
    response = net::HttpResponse::Error(403, "blocked by " + flow.blocked_by);
    ++blocked_count_;
  } else if (chaos_ != nullptr && chaos_->UpstreamReset(flow.Host())) {
    // The proxy→server connection is reset before the upstream
    // answers; the client sees a 502 from the proxy, and the flow is
    // tagged so it never enters the findings databases.
    response = net::HttpResponse::Error(502, "chaos: upstream reset");
    response.headers.Set(chaos::kInjectedFaultHeader, "upstream-reset");
  } else {
    meta.via_proxy = true;
    response = network_->Deliver(meta.server_ip, request, meta);
  }
  // The request is spent: the flow takes the forwarded (rewritten)
  // headers and body, whether or not they reached a server.
  flow.request_headers = std::move(request.headers);
  flow.request_body = std::move(request.body);
  if (response.headers.Has(chaos::kInjectedFaultHeader)) {
    flow.fault_injected = true;
  }

  for (const auto& addon : addons_) {
    addon->OnResponse(flow, response);
  }

  flow.response_status = response.status;
  flow.response_bytes = response.WireSize();

  for (const auto& addon : addons_) {
    addon->OnFlowComplete(flow);
  }

  if (telemetry_ != nullptr) {
    telemetry_->request_bytes += flow.request_bytes;
    telemetry_->response_bytes += flow.response_bytes;
  }
  if (journal_ != nullptr) {
    journal_->Emit(flow.time.millis, "proxy", "flow_close")
        .Num("proxy_id", flow.id)
        .Num("status", static_cast<int64_t>(flow.response_status))
        .BoolF("blocked", flow.blocked)
        .BoolF("fault_injected", flow.fault_injected);
  }
  return response;
}

}  // namespace panoptes::proxy
