// mitmproxy-style addon API. Addons see each flow at request time
// (before forwarding — they may rewrite headers, which is how the taint
// filter strips the Panoptes header) and again when the exchange
// completes.
#pragma once

#include "net/http.h"
#include "proxy/flow.h"

namespace panoptes::proxy {

class Addon {
 public:
  virtual ~Addon() = default;

  // Called before the request is forwarded upstream. `request` is the
  // message that will actually be sent; mutate it to rewrite traffic.
  // The proxy owns it from Forward on and, once the exchange is over
  // (delivered, blocked or reset), moves its headers and body into
  // flow.request_headers / flow.request_body: later hooks read them
  // there.
  virtual void OnRequest(Flow& flow, net::HttpRequest& request) {
    (void)flow;
    (void)request;
  }

  // Called after the upstream response arrived.
  virtual void OnResponse(Flow& flow, const net::HttpResponse& response) {
    (void)flow;
    (void)response;
  }

  // Called once the flow record is final (status and sizes filled in).
  virtual void OnFlowComplete(const Flow& flow) { (void)flow; }
};

}  // namespace panoptes::proxy
