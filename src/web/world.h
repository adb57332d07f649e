// The generated web as one immutable value: the site catalog plus every
// site's rendered landing HTML.
//
// Everything in a World is a pure function of (catalog seed,
// CatalogOptions), so any number of testbeds can serve the same web
// from one copy. A World is only ever handed out as
// `shared_ptr<const World>`: once built nothing writes to it, which is
// what lets a fleet's worker threads read one concurrently. Where its
// hosts sit (addresses, DNS answers, certificates) is planned once into
// a shared net::HostTable by PlanWeb; per-job state (the servers and
// their request counters, chaos hooks) lives in the servers BindWeb
// attaches to each job's network, never here.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "net/ipalloc.h"
#include "obs/telemetry.h"
#include "web/catalog.h"

namespace panoptes::web {

class World {
 public:
  // Generates the catalog from `seed` and renders each landing page.
  static std::shared_ptr<const World> Build(uint64_t seed,
                                            const CatalogOptions& options);

  // Wraps sites built elsewhere (a site-list file, a test fixture). Such
  // a world has no generator identity: Matches() is false for it.
  static std::shared_ptr<const World> FromSites(std::vector<Site> sites);

  const SiteCatalog& catalog() const { return catalog_; }
  size_t size() const { return catalog_.sites().size(); }
  const Site& site(size_t index) const { return catalog_.sites()[index]; }
  const std::string& landing_html(size_t index) const {
    return landing_html_[index];
  }

  // True when this world is exactly what Build(seed, options) returns.
  bool Matches(uint64_t seed, const CatalogOptions& options) const;

 private:
  struct Identity {
    uint64_t seed = 0;
    CatalogOptions options;
  };

  World(SiteCatalog catalog, std::optional<Identity> identity);

  SiteCatalog catalog_;
  std::vector<std::string> landing_html_;  // indexed like catalog_.sites()
  std::optional<Identity> identity_;
};

// Where a world's hosts sit in a host table: one slot per site (indexed
// like the catalog) and one per third-party service (indexed like
// ThirdPartyPool()).
struct WebPlan {
  std::vector<uint32_t> site_slots;
  std::vector<uint32_t> service_slots;
};

// Registers every site of `world` and every third-party service in
// `table`. Origin addresses are drawn from `origin_blocks` round-robin
// (so the dataset spans hosting regions); third parties from
// `thirdparty_block`. Done once per testbed.
WebPlan PlanWeb(const World& world, net::HostTable& table,
                std::vector<net::IpAllocator>& origin_blocks,
                net::IpAllocator& thirdparty_block);

// Binds a fresh origin server for every site and a generic server for
// every third-party service into `network`, at the slots `plan` holds.
// The origin servers share `world`, which stays alive as long as any of
// them is bound. Every server counts the body bytes it allocates into
// `telemetry` when one is given.
void BindWeb(const std::shared_ptr<const World>& world, const WebPlan& plan,
             net::Network& network, obs::JobTelemetry* telemetry = nullptr);

}  // namespace panoptes::web
