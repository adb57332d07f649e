// A Flow is one HTTP(S) exchange as observed by the MITM proxy: the
// unit everything downstream (splitting, counting, PII scanning, geo
// classification) operates on.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "net/http.h"
#include "net/ip.h"
#include "util/clock.h"

namespace panoptes::proxy {

// Who generated the request. kEngine = the website running in the web
// engine (tainted by CDP/Frida instrumentation); kNative = the browser
// app itself (no taint present). This split is the paper's core
// methodological contribution (§2.3).
enum class TrafficOrigin { kUnknown, kEngine, kNative };

std::string_view TrafficOriginName(TrafficOrigin origin);

struct Flow {
  uint64_t id = 0;
  util::SimTime time;
  std::string browser;   // campaign label ("Yandex", "Edge", ...)
  int app_uid = -1;
  net::HttpMethod method = net::HttpMethod::kGet;
  net::Url url;
  net::HttpHeaders request_headers;  // as forwarded (taint stripped)
  std::string request_body;
  int response_status = 0;
  size_t request_bytes = 0;   // wire size of the original request
  size_t response_bytes = 0;
  net::IpAddress server_ip;
  net::HttpVersion version = net::HttpVersion::kHttp11;
  TrafficOrigin origin = TrafficOrigin::kUnknown;
  std::string taint;  // the taint header value, when one was present

  // Set by a blocking addon (the §4 countermeasure): the request was
  // NOT forwarded upstream; the proxy answered 403 locally.
  bool blocked = false;
  std::string blocked_by;  // addon/rule label

  // The response was synthesized by the chaos injector (5xx episode,
  // upstream reset), not the genuine server. Such flows are excluded
  // from the findings databases so injected faults can never fabricate
  // results; they are accounted in the run manifest instead.
  bool fault_injected = false;

  // Navigation-chain provenance, observed out-of-band by the
  // instrumentation (net::ConnectionMeta, not request bytes — wire
  // sizes must not depend on whether chains are tracked). chain_id is
  // the per-context navigation token (0 = not a document request);
  // redirect_hop is the 0-based hop index within that navigation —
  // hop 0 is the address-bar request, hop N>0 the Nth followed
  // redirect. The store resolves these into a per-record
  // `redirect_of` predecessor uid at ingest time.
  uint64_t chain_id = 0;
  uint32_t redirect_hop = 0;

  std::string_view Host() const { return url.host(); }
};

}  // namespace panoptes::proxy
