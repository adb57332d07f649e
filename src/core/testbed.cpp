#include "core/testbed.h"

#include <vector>

namespace panoptes::core {

std::shared_ptr<const Testbed> Testbed::Build(
    uint64_t catalog_seed, const web::CatalogOptions& options) {
  return std::shared_ptr<const Testbed>(
      new Testbed(web::World::Build(catalog_seed, options), catalog_seed));
}

Testbed::Testbed(std::shared_ptr<const web::World> world,
                 uint64_t catalog_seed)
    : world_(std::move(world)),
      geo_plan_(vendors::GeoPlan::Default()),
      latency_(net::GeoLatencyModel::FromVantageGreece(geo_plan_.ranges())),
      hosts_(catalog_seed ^ 0xFAB51Cull) {
  // Origins draw round-robin from copies of the hosting blocks (the geo
  // ranges, not the offsets, drive geolocation); third parties and
  // vendors draw from the plan's own allocators.
  std::vector<net::IpAllocator> origin_blocks = {
      geo_plan_.Allocator("US-HOSTING"),
      geo_plan_.Allocator("DE-HOSTING"),
      geo_plan_.Allocator("NL-HOSTING"),
  };
  web_plan_ = web::PlanWeb(*world_, hosts_, origin_blocks,
                           geo_plan_.Allocator("US-ADTECH"));
  vendor_plan_ = vendors::PlanVendors(hosts_, geo_plan_);
}

}  // namespace panoptes::core
