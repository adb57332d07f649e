// The per-job network install that core::Testbed replaced: every web,
// third-party and vendor host registered by the job itself, into a
// fresh host table of its own, so each job folded every name, issued
// every leaf from its own web CA and answered every DNS query from its
// own records. Production code never calls this — it exists so the
// differential tests can check that a framework's network over the
// shared host table answers exactly like such a per-job install.
#pragma once

#include <cstdint>
#include <memory>

#include "net/fabric.h"
#include "net/host_table.h"
#include "vendors/geo_plan.h"
#include "vendors/world.h"
#include "web/world.h"

namespace panoptes::oracle {

struct PerJobNetwork {
  std::unique_ptr<net::HostTable> table;
  std::unique_ptr<net::Network> network;  // over `table`
  vendors::GeoPlan geo = vendors::GeoPlan::Default();
  vendors::VendorWorld vendors;
};

// Registers `world`'s origins and third parties, then the vendor hosts,
// into a fresh table whose web CA draws from `seed`, in the order and
// from the address blocks a framework used, and binds their servers in
// a network over it.
PerJobNetwork InstallPerJobNetwork(
    const std::shared_ptr<const web::World>& world, uint64_t seed);

}  // namespace panoptes::oracle
