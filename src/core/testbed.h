// The immutable half of a Panoptes testbed: the generated web, the
// table of every host (addresses, DNS answers, genuine leaf
// certificates), the address plan and the vantage point's latency
// table.
//
// Everything in a Testbed is a pure function of (catalog seed,
// CatalogOptions): the web draws from the catalog seed, addresses come
// from the fixed GeoPlan in a fixed order, and the leaves are issued by
// a web CA seeded from the catalog seed. So any number of frameworks can
// run on one copy. It is only ever handed out as
// `shared_ptr<const Testbed>`, which is what lets a fleet's worker
// threads read one concurrently. Each framework keeps the mutable half
// itself: a net::Network that binds its own servers to the table's
// slots, its vendor servers, chaos hooks and counters.
#pragma once

#include <cstdint>
#include <memory>

#include "net/host_table.h"
#include "net/latency.h"
#include "vendors/geo_plan.h"
#include "vendors/world.h"
#include "web/catalog.h"
#include "web/world.h"

namespace panoptes::core {

class Testbed {
 public:
  // Generates the web and plans every web, third-party and vendor host,
  // publishing the host-table size to the default metrics registry.
  static std::shared_ptr<const Testbed> Build(
      uint64_t catalog_seed, const web::CatalogOptions& options);

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  // True when this testbed is exactly what Build(catalog_seed, options)
  // returns.
  bool Matches(uint64_t catalog_seed,
               const web::CatalogOptions& options) const {
    return world_->Matches(catalog_seed, options);
  }

  const std::shared_ptr<const web::World>& world() const { return world_; }
  const net::HostTable& hosts() const { return hosts_; }
  const web::WebPlan& web_plan() const { return web_plan_; }
  const vendors::VendorPlan& vendor_plan() const { return vendor_plan_; }
  // The address plan, after every host's address was drawn from it.
  const vendors::GeoPlan& geo_plan() const { return geo_plan_; }
  // Per-destination RTTs from the Greek vantage point.
  const net::GeoLatencyModel& latency() const { return latency_; }

 private:
  Testbed(std::shared_ptr<const web::World> world, uint64_t catalog_seed);

  std::shared_ptr<const web::World> world_;
  vendors::GeoPlan geo_plan_;
  net::GeoLatencyModel latency_;
  net::HostTable hosts_;
  web::WebPlan web_plan_;
  vendors::VendorPlan vendor_plan_;
};

}  // namespace panoptes::core
