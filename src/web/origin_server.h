// Servers for the generated web: one origin per catalog site plus a
// shared generic server per third-party service.
#pragma once

#include <memory>
#include <string>

#include "net/fabric.h"
#include "obs/telemetry.h"
#include "web/site.h"
#include "web/thirdparty.h"
#include "web/world.h"

namespace panoptes::web {

// Serves one site's landing page and its first-party subresources. The
// site and its rendered landing HTML are read from the shared, immutable
// world; only the hit counter belongs to this server. Subresource bodies
// are sized (net::HttpResponse::Sized): counted on the wire, never held.
// Both servers count the body bytes they allocate (landing HTML, bid
// heads, error bodies) into `telemetry` when one is given.
class OriginServer : public net::Server {
 public:
  // Serves site `index` of `world`.
  OriginServer(std::shared_ptr<const World> world, size_t index,
               obs::JobTelemetry* telemetry = nullptr);

  net::HttpResponse Handle(const net::HttpRequest& request,
                           const net::ConnectionMeta& meta) override;

  const Site& site() const { return world_->site(index_); }

  // How many requests this origin has answered (all paths).
  uint64_t hits() const { return hits_; }

 private:
  net::HttpResponse Respond(const net::HttpRequest& request) const;

  std::shared_ptr<const World> world_;
  size_t index_;
  obs::JobTelemetry* telemetry_;
  uint64_t hits_ = 0;
};

// Serves one third-party service's endpoints: bid responses for ad
// slots, pixels for analytics, script bodies for CDNs/social, font
// bytes. Body sizes are deterministic per path. Scripts, fonts and the
// bids' ad creatives are sized; only a bid's JSON head is held.
class ThirdPartyServer : public net::Server {
 public:
  explicit ThirdPartyServer(ThirdPartyService service,
                            obs::JobTelemetry* telemetry = nullptr);

  net::HttpResponse Handle(const net::HttpRequest& request,
                           const net::ConnectionMeta& meta) override;

  const ThirdPartyService& service() const { return service_; }
  uint64_t hits() const { return hits_; }

 private:
  net::HttpResponse Respond(const net::HttpRequest& request) const;

  ThirdPartyService service_;
  obs::JobTelemetry* telemetry_;
  uint64_t hits_ = 0;
};

}  // namespace panoptes::web
