// The Panoptes MITM addon (§2.3): inspects every flow's headers,
// separates tainted (engine-originated) requests from untainted
// (native) ones, strips the taint header before the request is
// forwarded to its genuine destination, and stores the two classes in
// separate databases.
#pragma once

#include <string>

#include "browser/interceptor.h"
#include "proxy/addon.h"
#include "proxy/flowstore.h"

namespace panoptes::core {

class TaintFilterAddon : public proxy::Addon {
 public:
  TaintFilterAddon() = default;

  // Points the addon at the sinks for the current campaign. Either may
  // be null (flows of that class are then counted but not stored).
  // A plain FlowStore is the unbounded sink; a core::StreamBuffer is
  // the budgeted one — the addon pushes either way.
  void SetSinks(proxy::FlowSink* engine_sink, proxy::FlowSink* native_sink);

  void OnRequest(proxy::Flow& flow, net::HttpRequest& request) override;
  void OnFlowComplete(const proxy::Flow& flow) override;

  uint64_t engine_flows() const { return engine_flows_; }
  uint64_t native_flows() const { return native_flows_; }
  // Flows whose response was synthesized by the chaos injector. Never
  // stored — injected faults must not fabricate findings — only
  // counted, for the run manifest.
  uint64_t fault_injected_flows() const { return fault_injected_flows_; }
  void ResetCounters();

 private:
  proxy::FlowSink* engine_sink_ = nullptr;
  proxy::FlowSink* native_sink_ = nullptr;
  uint64_t engine_flows_ = 0;
  uint64_t native_flows_ = 0;
  uint64_t fault_injected_flows_ = 0;
};

}  // namespace panoptes::core
