#include "core/framework.h"

#include <stdexcept>

#include "util/rng.h"

namespace panoptes::core {

namespace {

// The testbed a framework is handed, once it is known to be the one its
// options describe.
std::shared_ptr<const Testbed> Checked(std::shared_ptr<const Testbed> testbed,
                                       const FrameworkOptions& options) {
  if (testbed == nullptr ||
      !testbed->Matches(options.CatalogSeed(), options.catalog)) {
    throw std::invalid_argument(
        "Framework: the testbed does not match the options' catalog seed "
        "and CatalogOptions");
  }
  return testbed;
}

}  // namespace

Framework::Framework(FrameworkOptions options)
    : Framework(Testbed::Build(options.CatalogSeed(), options.catalog),
                std::move(options)) {}

Framework::Framework(FrameworkOptions options,
                     std::shared_ptr<const Testbed> testbed)
    : Framework(std::move(testbed), std::move(options)) {}

Framework::Framework(std::shared_ptr<const Testbed> testbed,
                     FrameworkOptions&& options)
    : testbed_(Checked(std::move(testbed), options)),
      options_(std::move(options)),
      network_(&testbed_->hosts(), options_.seed ^ 0xFAB51Cull),
      device_(options_.device_profile),
      netstack_(&device_, &network_, &clock_) {
  // This testbed's own servers at the shared table's slots: an origin
  // per site over the shared world, and the vendor backends.
  web::BindWeb(testbed_->world(), testbed_->web_plan(), network_);
  vendor_world_ = vendors::BindVendors(testbed_->vendor_plan(), network_);

  // The proxy and its addon chain.
  proxy_ = std::make_unique<proxy::MitmProxy>(&network_,
                                              options_.seed ^ 0x917Full);
  taint_addon_ = std::make_shared<TaintFilterAddon>();
  proxy_->AddAddon(taint_addon_);
  proxy_->SetJournal(options_.journal);
  netstack_.SetDiverter(proxy_.get());
  netstack_.SetLatency(options_.latency);

  // Chaos fabric: one injector per framework, seeded from
  // (seed, profile) so the same job replays the same fault timeline
  // regardless of scheduling. A disabled profile leaves every hook
  // detached — the default path is bit-identical to a build without
  // chaos.
  if (options_.chaos.Enabled()) {
    chaos_ = std::make_unique<chaos::Injector>(options_.seed, options_.chaos,
                                               &clock_);
    chaos_->SetJournal(options_.journal);
    network_.SetChaos(chaos_.get());
    netstack_.SetChaos(chaos_.get());
    proxy_->SetChaos(chaos_.get());
  }

  // Per-destination latency: geo RTTs from the Greek vantage point, or
  // the flat latency, with chaos jitter layered on top when enabled.
  // The geo table is the testbed's: the stack shares it, keeping the
  // testbed alive.
  std::shared_ptr<const net::LatencyModel> latency;
  if (options_.use_geo_latency) {
    latency = std::shared_ptr<const net::LatencyModel>(testbed_,
                                                       &testbed_->latency());
  }
  if (chaos_ != nullptr) {
    if (latency == nullptr) {
      latency = std::make_shared<net::FixedLatency>(options_.latency);
    }
    latency = std::make_shared<net::ChaosLatencyModel>(std::move(latency),
                                                       chaos_.get());
  }
  if (latency != nullptr) netstack_.SetLatencyModel(std::move(latency));

  // Device trust: the public web PKI always; the Panoptes CA when
  // interception is wanted.
  device_.trust_store().Trust(network_.web_ca().name());
  if (options_.install_mitm_ca) {
    device_.trust_store().Trust(proxy_->ca_name());
  }

  // HTTP/3 blocking (mitmproxy cannot intercept QUIC — §2.2).
  if (options_.block_quic) {
    device_.iptables().Append(device::Iptables::BlockQuic());
  }
}

browser::BrowserRuntime& Framework::PrepareBrowser(
    const browser::BrowserSpec& spec, bool factory_reset) {
  TeardownBrowser();

  if (factory_reset) {
    device_.FactoryResetApp(spec.package);  // no-op if not yet installed
  }

  uint64_t seed = util::HashString(spec.name) ^ options_.seed ^
                  (++browser_counter_ * 0x9E3779B97F4A7C15ull);
  runtime_ = std::make_unique<browser::BrowserRuntime>(
      spec, &device_, &netstack_, &network_, &clock_, seed);

  int uid = runtime_->context().app().uid;
  device_.iptables().Append(device::Iptables::DivertUidTcp(uid));
  proxy_->SetBrowserLabel(spec.name);
  return *runtime_;
}

void Framework::TeardownBrowser() {
  if (runtime_ == nullptr) return;
  int uid = runtime_->context().app().uid;
  device_.iptables().DeleteByComment("panoptes-divert-uid-" +
                                     std::to_string(uid));
  runtime_.reset();
}

}  // namespace panoptes::core
