#include "oracle/per_job_network.h"

#include <string_view>
#include <utility>
#include <vector>

#include "vendors/servers.h"
#include "web/origin_server.h"
#include "web/thirdparty.h"

namespace panoptes::oracle {

namespace {

// Registers each host into the job's table as it comes, and keeps the
// server to bind at its slot once the table is complete.
struct Install {
  net::HostTable& table;
  std::vector<std::pair<uint32_t, std::shared_ptr<net::Server>>> servers;

  uint32_t Host(std::string_view hostname, net::IpAddress ip,
                std::shared_ptr<net::Server> server,
                bool supports_h3 = false) {
    uint32_t slot = table.Add(hostname, ip, supports_h3).slot;
    servers.emplace_back(slot, std::move(server));
    return slot;
  }
};

void InstallWeb(const std::shared_ptr<const web::World>& world,
                Install& install,
                std::vector<net::IpAllocator>& origin_blocks,
                net::IpAllocator& thirdparty_block) {
  for (size_t i = 0; i < world->size(); ++i) {
    const web::Site& site = world->site(i);
    auto& block = origin_blocks[i % origin_blocks.size()];
    install.Host(site.hostname, block.Next(),
                 std::make_shared<web::OriginServer>(world, i),
                 site.supports_h3);
  }
  for (const auto& service : web::ThirdPartyPool()) {
    install.Host(service.request_host, thirdparty_block.Next(),
                 std::make_shared<web::ThirdPartyServer>(service),
                 /*supports_h3=*/true);
  }
}

// The DoH servers answer from the network's zone, so they are made
// once the network exists; these are their slots.
struct DohSlots {
  uint32_t cloudflare = 0;
  uint32_t google = 0;
};

DohSlots InstallVendors(Install& install, vendors::GeoPlan& plan,
                        vendors::VendorWorld& world) {
  using namespace vendors;

  for (const auto& spec : TelemetryHosts()) {
    auto server = std::make_shared<TelemetryServer>(spec.hostname);
    install.Host(spec.hostname, plan.Allocator(spec.country).Next(), server,
                 spec.h3);
    world.telemetry.push_back(std::move(server));
  }

  world.sba_yandex = std::make_shared<SbaYandexServer>();
  install.Host("sba.yandex.net", plan.Allocator("RU").Next(),
               world.sba_yandex);

  world.yandex_api = std::make_shared<YandexApiServer>();
  install.Host("api.browser.yandex.ru", plan.Allocator("RU").Next(),
               world.yandex_api);

  world.oleads = std::make_shared<OleadsServer>();
  install.Host("s-odx.oleads.com", plan.Allocator("NO").Next(),
               world.oleads);
  install.Host("s-odx-amer.oleads.com", plan.Allocator("US").Next(),
               world.oleads);

  world.bing = std::make_shared<BingApiServer>();
  install.Host("www.bing.com", plan.Allocator("US").Next(), world.bing,
               /*supports_h3=*/true);

  world.sitecheck = std::make_shared<OperaSitecheckServer>();
  install.Host("sitecheck2.opera.com", plan.Allocator("NO").Next(),
               world.sitecheck);

  DohSlots doh;
  doh.cloudflare = install.Host("cloudflare-dns.com",
                                plan.Allocator("US-ANYCAST-CF").Next(),
                                nullptr, /*supports_h3=*/true);
  doh.google = install.Host("dns.google",
                            plan.Allocator("US-ANYCAST-GOOG").Next(),
                            nullptr, /*supports_h3=*/true);
  return doh;
}

}  // namespace

PerJobNetwork InstallPerJobNetwork(
    const std::shared_ptr<const web::World>& world, uint64_t seed) {
  PerJobNetwork out;
  out.table = std::make_unique<net::HostTable>(seed);
  Install install{*out.table, {}};
  std::vector<net::IpAllocator> origin_blocks = {
      out.geo.Allocator("US-HOSTING"),
      out.geo.Allocator("DE-HOSTING"),
      out.geo.Allocator("NL-HOSTING"),
  };
  InstallWeb(world, install, origin_blocks, out.geo.Allocator("US-ADTECH"));
  DohSlots doh = InstallVendors(install, out.geo, out.vendors);

  out.network = std::make_unique<net::Network>(out.table.get());
  for (auto& [slot, server] : install.servers) {
    out.network->Bind(slot, std::move(server));
  }
  out.vendors.cloudflare_doh =
      std::make_shared<vendors::DohServer>(out.network.get());
  out.network->Bind(doh.cloudflare, out.vendors.cloudflare_doh);
  out.vendors.google_doh =
      std::make_shared<vendors::DohServer>(out.network.get());
  out.network->Bind(doh.google, out.vendors.google_doh);
  return out;
}

}  // namespace panoptes::oracle
