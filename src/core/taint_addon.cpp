#include "core/taint_addon.h"

namespace panoptes::core {

void TaintFilterAddon::SetSinks(proxy::FlowSink* engine_sink,
                                proxy::FlowSink* native_sink) {
  engine_sink_ = engine_sink;
  native_sink_ = native_sink;
}

void TaintFilterAddon::OnRequest(proxy::Flow& flow,
                                 net::HttpRequest& request) {
  // Strip before forwarding: the destination must never see it.
  auto taint = request.headers.Take(browser::kTaintHeader);
  if (taint) {
    flow.origin = proxy::TrafficOrigin::kEngine;
    flow.taint = std::move(*taint);
  } else {
    flow.origin = proxy::TrafficOrigin::kNative;
  }
}

void TaintFilterAddon::OnFlowComplete(const proxy::Flow& flow) {
  if (flow.fault_injected) {
    // Chaos-synthesized responses never reach the findings databases:
    // a degraded run may under-report, but can never fabricate.
    ++fault_injected_flows_;
    return;
  }
  if (flow.origin == proxy::TrafficOrigin::kEngine) {
    ++engine_flows_;
    if (engine_sink_ != nullptr) engine_sink_->Push(flow);
  } else {
    ++native_flows_;
    if (native_sink_ != nullptr) native_sink_->Push(flow);
  }
}

void TaintFilterAddon::ResetCounters() {
  engine_flows_ = 0;
  native_flows_ = 0;
  fault_injected_flows_ = 0;
}

}  // namespace panoptes::core
