// Core framework unit tests: taint addon semantics and framework
// wiring.
#include <gtest/gtest.h>

#include "core/framework.h"
#include "core/taint_addon.h"

namespace panoptes::core {
namespace {

proxy::Flow MakeFlow() {
  proxy::Flow flow;
  flow.url = net::Url::MustParse("https://example.com/x");
  return flow;
}

TEST(TaintAddon, ClassifiesAndStrips) {
  TaintFilterAddon addon;
  proxy::FlowStore engine_store, native_store;
  addon.SetSinks(&engine_store, &native_store);

  // Tainted request → engine, header stripped.
  proxy::Flow tainted_flow = MakeFlow();
  net::HttpRequest tainted;
  tainted.url = tainted_flow.url;
  tainted.headers.Add("X-Panoptes-Taint", "cdp-abc");
  addon.OnRequest(tainted_flow, tainted);
  EXPECT_EQ(tainted_flow.origin, proxy::TrafficOrigin::kEngine);
  EXPECT_EQ(tainted_flow.taint, "cdp-abc");
  EXPECT_FALSE(tainted.headers.Has("x-panoptes-taint"));
  addon.OnFlowComplete(tainted_flow);

  // Untainted request → native, untouched.
  proxy::Flow native_flow = MakeFlow();
  net::HttpRequest native;
  native.url = native_flow.url;
  native.headers.Add("User-Agent", "ua");
  addon.OnRequest(native_flow, native);
  EXPECT_EQ(native_flow.origin, proxy::TrafficOrigin::kNative);
  EXPECT_TRUE(native_flow.taint.empty());
  EXPECT_TRUE(native.headers.Has("User-Agent"));
  addon.OnFlowComplete(native_flow);

  EXPECT_EQ(engine_store.size(), 1u);
  EXPECT_EQ(native_store.size(), 1u);
  EXPECT_EQ(addon.engine_flows(), 1u);
  EXPECT_EQ(addon.native_flows(), 1u);
}

TEST(TaintAddon, CountsWithoutStores) {
  TaintFilterAddon addon;  // no stores attached
  proxy::Flow flow = MakeFlow();
  net::HttpRequest request;
  request.url = flow.url;
  addon.OnRequest(flow, request);
  addon.OnFlowComplete(flow);
  EXPECT_EQ(addon.native_flows(), 1u);
  addon.ResetCounters();
  EXPECT_EQ(addon.native_flows(), 0u);
}

TEST(Framework, WiresTheWholeTestbed) {
  FrameworkOptions options;
  options.catalog.popular_count = 5;
  options.catalog.sensitive_count = 5;
  Framework framework(options);

  // Catalog generated and installed.
  EXPECT_EQ(framework.catalog().sites().size(), 10u);
  for (const auto& site : framework.catalog().sites()) {
    EXPECT_TRUE(framework.network().zone().Has(site.hostname));
  }
  // Vendor world reachable.
  EXPECT_TRUE(framework.network().zone().Has("sba.yandex.net"));
  EXPECT_TRUE(framework.network().zone().Has("cloudflare-dns.com"));
  // Trust: web CA and Panoptes CA both installed.
  EXPECT_TRUE(framework.device().trust_store().Trusts(
      framework.network().web_ca().name()));
  EXPECT_TRUE(
      framework.device().trust_store().Trusts(framework.proxy().ca_name()));
  // QUIC block present.
  EXPECT_EQ(framework.device().iptables().Evaluate(
                12345, device::Protocol::kUdp, 443),
            device::RuleAction::kReject);
}

TEST(Framework, OptionsControlQuicAndCa) {
  FrameworkOptions options;
  options.catalog.popular_count = 2;
  options.catalog.sensitive_count = 0;
  options.block_quic = false;
  options.install_mitm_ca = false;
  Framework framework(options);
  EXPECT_EQ(framework.device().iptables().Evaluate(
                12345, device::Protocol::kUdp, 443),
            device::RuleAction::kAccept);
  EXPECT_FALSE(
      framework.device().trust_store().Trusts(framework.proxy().ca_name()));
}

}  // namespace
}  // namespace panoptes::core
