// Wires the vendor side of the simulated internet: every backend the
// 15 browsers natively talk to. PlanVendors registers their hostnames
// once into a shared host table, with addresses drawn from
// country-labelled blocks (so §3.4's geolocation analysis reproduces:
// Yandex→RU, QQ→CN, UC International→CA); BindVendors gives one
// network its own servers at those slots.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "net/fabric.h"
#include "vendors/geo_plan.h"
#include "vendors/servers.h"

namespace panoptes::vendors {

struct VendorWorld {
  // Specialised servers, exposed so tests and benches can assert on
  // what actually arrived.
  std::shared_ptr<SbaYandexServer> sba_yandex;
  std::shared_ptr<YandexApiServer> yandex_api;
  std::shared_ptr<OleadsServer> oleads;
  std::shared_ptr<DohServer> cloudflare_doh;
  std::shared_ptr<DohServer> google_doh;
  std::shared_ptr<BingApiServer> bing;
  std::shared_ptr<OperaSitecheckServer> sitecheck;

  // Generic telemetry backends, indexed like TelemetryHosts().
  std::vector<std::shared_ptr<TelemetryServer>> telemetry;

  const TelemetryServer* Telemetry(std::string_view host) const {
    auto it = std::find_if(
        telemetry.begin(), telemetry.end(),
        [host](const auto& server) { return server->name() == host; });
    return it == telemetry.end() ? nullptr : it->get();
  }
};

// A generic vendor backend: its hostname, the GeoPlan block it is
// hosted in, and whether it speaks HTTP/3.
struct VendorHostSpec {
  const char* hostname;
  const char* country;  // GeoPlan block code
  bool h3 = false;
};

// Every generic vendor backend, in plan order.
std::span<const VendorHostSpec> TelemetryHosts();

// Where the vendor hosts sit in a host table.
struct VendorPlan {
  std::vector<uint32_t> telemetry;  // indexed like TelemetryHosts()
  uint32_t sba_yandex = 0;
  uint32_t yandex_api = 0;
  uint32_t oleads = 0;
  uint32_t oleads_amer = 0;  // the same ad backend's Americas front
  uint32_t bing = 0;
  uint32_t sitecheck = 0;
  uint32_t cloudflare_doh = 0;
  uint32_t google_doh = 0;
};

// Registers every vendor host in `table`; allocates their addresses out
// of `geo`. Done once per testbed.
VendorPlan PlanVendors(net::HostTable& table, GeoPlan& geo);

// Binds fresh vendor servers into `network` at the slots `plan` holds.
VendorWorld BindVendors(const VendorPlan& plan, net::Network& network);

}  // namespace panoptes::vendors
