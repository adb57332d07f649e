// The per-job network install that core::Testbed replaced: every web,
// third-party and vendor host registered into a fresh net::Network
// through Host(), so each job folded every name, issued every leaf from
// its own web CA and added every DNS record itself. Production code
// never calls this — it exists so the differential tests can check that
// a framework's network over the shared host table answers exactly like
// such a per-job install.
#pragma once

#include <cstdint>
#include <memory>

#include "net/fabric.h"
#include "vendors/geo_plan.h"
#include "vendors/world.h"
#include "web/world.h"

namespace panoptes::oracle {

struct PerJobNetwork {
  std::unique_ptr<net::Network> network;
  vendors::GeoPlan geo = vendors::GeoPlan::Default();
  vendors::VendorWorld vendors;
};

// Installs `world`'s origins and third parties, then the vendor hosts,
// into a fresh network whose web CA draws from `seed`, in the order and
// from the address blocks a framework used.
PerJobNetwork InstallPerJobNetwork(
    const std::shared_ptr<const web::World>& world, uint64_t seed);

}  // namespace panoptes::oracle
