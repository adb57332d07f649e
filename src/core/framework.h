// Panoptes: the top-level framework (paper Fig 1).
//
// Runs one testbed — simulated clock, network fabric with the generated
// web's servers and the vendor backends, the Android device, the
// transparent MITM proxy with the taint-filter addon — and exposes the
// two campaign types of the evaluation: crawls (§3.1-3.4) and idle runs
// (§3.5). The testbed's immutable half (core::Testbed: the generated
// web, every host's address, DNS answer and leaf, the address plan and
// latency table) may be shared with other frameworks; see the fleet
// executor. What a framework owns is the mutable half: its network's
// servers and counters, the device, the proxy and the chaos injector.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "browser/runtime.h"
#include "browser/spec.h"
#include "chaos/injector.h"
#include "chaos/profile.h"
#include "core/taint_addon.h"
#include "core/testbed.h"
#include "device/device.h"
#include "device/netstack.h"
#include "net/fabric.h"
#include "obs/telemetry.h"
#include "proxy/mitm.h"
#include "util/clock.h"
#include "vendors/world.h"
#include "web/catalog.h"

namespace panoptes::obs {
class Journal;
}  // namespace panoptes::obs

namespace panoptes::core {

struct FrameworkOptions {
  uint64_t seed = 20231024;  // IMC'23 first day
  // The simulated device this framework's testbed runs on. Defaults to
  // the paper's Samsung SM-T580; population campaigns substitute a
  // synthesized cohort profile here, which changes the PII payloads,
  // request cadence and vendor endpoints the browsers produce.
  device::DeviceProfile device_profile = device::DeviceProfile::PaperTestbed();
  // When set, the generated web (site catalog) draws from this seed
  // instead of `seed`. Fleet jobs set it to the campaign's base seed so
  // every shard of a sharded crawl sees the *same* web while their
  // runtime streams (derived per-job seeds) stay decorrelated.
  std::optional<uint64_t> catalog_seed;
  web::CatalogOptions catalog;
  // Per-exchange simulated latency (used when use_geo_latency is off).
  util::Duration latency = util::Duration::Millis(25);
  // Model per-destination RTTs from the Greek vantage point instead of
  // a flat latency (affects timing only, never counts or bytes).
  bool use_geo_latency = true;
  // Install the HTTP/3-blocking iptables rule (the paper always does;
  // switching it off is the A2 ablation).
  bool block_quic = true;
  // Install the Panoptes CA into the device trust store (switching it
  // off demonstrates that interception then fails).
  bool install_mitm_ca = true;
  // Fault profile for the chaos injector. The default ("none") disables
  // injection entirely; any enabled profile builds a per-framework
  // injector seeded from (seed, profile), so identical seeds replay
  // identical fault timelines.
  chaos::FaultProfile chaos;
  // Observatory journal this framework's layers (proxy, chaos, flow
  // stores, campaigns, battery) emit structured events into. Not owned;
  // must outlive the framework. Null disables journaling — strictly
  // additive either way, no report byte depends on it. The fleet wires
  // one private journal per job here.
  obs::Journal* journal = nullptr;

  // The seed the generated web draws from: catalog_seed when set, else
  // seed.
  uint64_t CatalogSeed() const { return catalog_seed.value_or(seed); }
};

class Framework {
 public:
  // Builds its own testbed (Testbed::Build over the options' catalog
  // seed and CatalogOptions).
  explicit Framework(FrameworkOptions options = {});

  // Runs on a prebuilt, shared testbed instead. It must be exactly the
  // one the options describe — same catalog seed, same CatalogOptions —
  // or the constructor throws std::invalid_argument: the result cache
  // fingerprints a job by its options, so a framework serving any other
  // web would file results under a false identity.
  Framework(FrameworkOptions options, std::shared_ptr<const Testbed> testbed);

  Framework(const Framework&) = delete;
  Framework& operator=(const Framework&) = delete;

  const FrameworkOptions& options() const { return options_; }
  util::SimClock& clock() { return clock_; }
  net::Network& network() { return network_; }
  const web::SiteCatalog& catalog() const {
    return testbed_->world()->catalog();
  }
  const std::shared_ptr<const Testbed>& testbed() const { return testbed_; }
  const std::shared_ptr<const web::World>& world() const {
    return testbed_->world();
  }
  const vendors::GeoPlan& geo_plan() const { return testbed_->geo_plan(); }
  vendors::VendorWorld& vendor_world() { return vendor_world_; }
  device::AndroidDevice& device() { return device_; }
  device::NetworkStack& netstack() { return netstack_; }
  proxy::MitmProxy& proxy() { return *proxy_; }
  TaintFilterAddon& taint_addon() { return *taint_addon_; }
  // Null when the chaos profile is disabled.
  chaos::Injector* chaos() { return chaos_.get(); }
  // Null when no journal was configured (FrameworkOptions::journal).
  obs::Journal* journal() { return options_.journal; }
  // The job's telemetry scope its layers count into (never null).
  obs::JobTelemetry* telemetry() { return &telemetry_; }
  // The scope with the counts this framework's layers keep themselves
  // filled in: DNS/TLS failures, proxy flows, forged certificates,
  // blocked flows and faults injected. Read once, when the campaign is
  // done: the DNS/TLS counts are the netstack's since its last
  // ResetStats, which RunCrawl calls as it starts.
  obs::JobTelemetry Accounting() const;

  // Prepares a browser for a campaign: factory-resets the app (Appium
  // reset in the paper), builds a fresh runtime, installs the per-UID
  // divert rule and labels the proxy's flows. The returned runtime is
  // valid until the next Prepare/teardown.
  browser::BrowserRuntime& PrepareBrowser(const browser::BrowserSpec& spec,
                                          bool factory_reset = true);

  // Removes the divert rule for the current browser and drops it.
  void TeardownBrowser();

  browser::BrowserRuntime* current_browser() { return runtime_.get(); }

 private:
  // Both public constructors end here. `options` is taken by reference
  // so the one that builds its own testbed can read it first.
  Framework(std::shared_ptr<const Testbed> testbed,
            FrameworkOptions&& options);

  std::shared_ptr<const Testbed> testbed_;  // before network_: it reads it
  FrameworkOptions options_;
  obs::JobTelemetry telemetry_;  // before the layers that point at it
  util::SimClock clock_;
  std::unique_ptr<chaos::Injector> chaos_;
  net::Network network_;
  vendors::VendorWorld vendor_world_;
  device::AndroidDevice device_;
  device::NetworkStack netstack_;
  std::unique_ptr<proxy::MitmProxy> proxy_;
  std::shared_ptr<TaintFilterAddon> taint_addon_;
  std::unique_ptr<browser::BrowserRuntime> runtime_;
  uint64_t browser_counter_ = 0;
};

}  // namespace panoptes::core
