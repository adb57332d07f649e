// MITM proxy + flow store tests.
#include <gtest/gtest.h>

#include <stdexcept>

#include "chaos/injector.h"
#include "core/blocker.h"
#include "core/taint_addon.h"
#include "net/fabric.h"
#include "proxy/flowstore.h"
#include "proxy/mitm.h"
#include "test_hosts.h"

namespace panoptes::proxy {
namespace {

net::HttpRequest Get(std::string_view url) {
  net::HttpRequest request;
  request.url = net::Url::MustParse(url);
  return request;
}

Flow MakeFlow(std::string_view url, size_t req_bytes = 100,
              size_t resp_bytes = 200) {
  Flow flow;
  flow.url = net::Url::MustParse(url);
  flow.request_bytes = req_bytes;
  flow.response_bytes = resp_bytes;
  return flow;
}

TEST(FlowStore, CountsAndBytes) {
  FlowStore store;
  store.Add(MakeFlow("https://a.com/x", 100, 200));
  store.Add(MakeFlow("https://b.com/y", 50, 70));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.TotalBytes(), 420u);
  EXPECT_EQ(store.RequestBytes(), 150u);
  store.Clear();
  EXPECT_TRUE(store.empty());
}

TEST(FlowStore, DistinctHostsAndDomains) {
  FlowStore store;
  store.Add(MakeFlow("https://a.x.com/1"));
  store.Add(MakeFlow("https://a.x.com/2"));
  store.Add(MakeFlow("https://b.x.com/3"));
  store.Add(MakeFlow("https://c.org/4"));
  EXPECT_EQ(store.DistinctHosts().size(), 3u);
  auto domains = store.DistinctDomains();
  EXPECT_EQ(domains.size(), 2u);
  EXPECT_TRUE(domains.count("x.com"));
  EXPECT_TRUE(domains.count("c.org"));
}

TEST(FlowStore, QueriesByHostAndDomain) {
  FlowStore store;
  store.Add(MakeFlow("https://sba.yandex.net/report"));
  store.Add(MakeFlow("https://api.browser.yandex.ru/track"));
  EXPECT_EQ(store.ToHost("sba.yandex.net").size(), 1u);
  EXPECT_EQ(store.ToDomain("yandex.net").size(), 1u);
  EXPECT_EQ(store.ToDomain("yandex.ru").size(), 1u);
  EXPECT_TRUE(store.ToHost("other.com").empty());
  EXPECT_EQ(store
                .Where([](const FlowView& flow) {
                  return flow.url.path() == "/track";
                })
                .size(),
            1u);
}

TEST(FlowStore, CompactDropsHeadersAndBody) {
  FlowStore store(/*compact=*/true);
  Flow flow = MakeFlow("https://a.com/x");
  flow.request_headers.Add("User-Agent", "big string");
  flow.request_body = std::string(4096, 'x');
  store.Add(flow);
  EXPECT_TRUE(store.flows().front().request_headers.empty());
  EXPECT_TRUE(store.flows().front().request_body.empty());
  // Sizes survive (the figures need them).
  EXPECT_EQ(store.flows().front().request_bytes, 100u);
}

// A merge consumes its source, so a store cannot be appended onto
// itself: the call throws and leaves the store, payloads included,
// exactly as it was. Enough flows to span several arena chunks.
TEST(FlowStore, SelfAppendIsRejected) {
  FlowStore store;
  for (int i = 0; i < 100; ++i) {
    Flow flow = MakeFlow("https://a.com/" + std::to_string(i));
    flow.request_body = "body-" + std::to_string(i);
    store.Add(flow);
  }
  EXPECT_THROW(store.Append(std::move(store)), std::invalid_argument);
  ASSERT_EQ(store.size(), 100u);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(store.flows()[i].url.Serialize(),
              "https://a.com/" + std::to_string(i));
    EXPECT_EQ(store.flows()[i].request_body, "body-" + std::to_string(i));
  }
}

// Regression: Append used to route through the destination's
// capture-time compaction, stripping headers/bodies that the source
// (full) store had kept. Merges must move flows verbatim, both
// directions.
TEST(FlowStore, AppendCopiesVerbatimAcrossCompactionPolicies) {
  Flow full_flow = MakeFlow("https://full.com/x");
  full_flow.request_headers.Add("User-Agent", "kept");
  full_flow.request_body = "kept-body";

  FlowStore full;        // keeps headers/bodies
  full.Add(full_flow);
  FlowStore compact(/*compact=*/true);  // strips at capture
  compact.Add(full_flow);

  // full → compact: the compact destination must NOT re-strip.
  FlowStore into_compact(/*compact=*/true);
  into_compact.Append(std::move(full));
  ASSERT_EQ(into_compact.size(), 1u);
  EXPECT_EQ(into_compact.flows()[0].request_body, "kept-body");
  EXPECT_FALSE(into_compact.flows()[0].request_headers.empty());

  // compact → full: what capture already dropped stays dropped.
  FlowStore into_full;
  into_full.Append(std::move(compact));
  ASSERT_EQ(into_full.size(), 1u);
  EXPECT_TRUE(into_full.flows()[0].request_body.empty());
  EXPECT_TRUE(into_full.flows()[0].request_headers.empty());
}

TEST(FlowStore, BinaryRoundTripPreservesEverything) {
  FlowStore store(/*compact=*/false);
  Flow flow = MakeFlow("https://a.com/x?q=1");
  flow.id = 7;
  flow.time.millis = 123456;
  flow.browser = "Yandex";
  flow.app_uid = 10042;
  flow.request_headers.Add("User-Agent", "UA");
  flow.request_headers.Add("Cookie", "sid=abc");
  flow.request_body = std::string("payload\x00\x01\xff", 10);
  flow.response_status = 204;
  flow.origin = TrafficOrigin::kNative;
  flow.taint = "x-taint";
  flow.blocked = true;
  flow.blocked_by = "easylist";
  flow.fault_injected = true;
  store.Add(flow);
  store.Add(MakeFlow("https://b.com/y"));

  util::BinWriter out;
  store.WriteImage(out);
  std::string bytes = out.Take();

  auto restored = FlowStore::ReadImage(bytes);
  ASSERT_NE(restored, nullptr);
  ASSERT_EQ(restored->size(), 2u);
  const FlowView& back = restored->flows()[0];
  EXPECT_EQ(back.id, 7u);
  EXPECT_EQ(back.time.millis, 123456);
  EXPECT_EQ(back.browser, "Yandex");
  EXPECT_EQ(back.app_uid, 10042);
  EXPECT_EQ(back.url.Serialize(), flow.url.Serialize());
  EXPECT_EQ(back.request_headers.Get("Cookie").value_or(""), "sid=abc");
  EXPECT_EQ(back.request_body, flow.request_body);
  EXPECT_EQ(back.response_status, 204);
  EXPECT_EQ(back.origin, TrafficOrigin::kNative);
  EXPECT_EQ(back.taint, "x-taint");
  EXPECT_TRUE(back.blocked);
  EXPECT_EQ(back.blocked_by, "easylist");
  EXPECT_TRUE(back.fault_injected);

  // Truncated input fails soft, never throws.
  for (size_t cut : {size_t{0}, size_t{5}, bytes.size() - 1}) {
    EXPECT_EQ(FlowStore::ReadImage(std::string_view(bytes).substr(0, cut)),
              nullptr)
        << cut;
  }
}

TEST(TrafficOrigin, Names) {
  EXPECT_EQ(TrafficOriginName(TrafficOrigin::kEngine), "engine");
  EXPECT_EQ(TrafficOriginName(TrafficOrigin::kNative), "native");
  EXPECT_EQ(TrafficOriginName(TrafficOrigin::kUnknown), "unknown");
}

// ---------------------------------------------------------------------------
// MitmProxy
// ---------------------------------------------------------------------------

class RecordingAddon : public Addon {
 public:
  void OnRequest(Flow& flow, net::HttpRequest& request) override {
    (void)flow;
    request.headers.Set("x-addon-touched", "1");
  }
  void OnFlowComplete(const Flow& flow) override {
    flows.push_back(flow);
  }
  std::vector<Flow> flows;
};

class MitmTest : public ::testing::Test {
 protected:
  MitmTest()
      : hosts_({{"site.com", net::IpAddress(1, 0, 0, 1),
                 std::make_shared<net::FunctionServer>(
                     [this](const net::HttpRequest& request,
                            const net::ConnectionMeta& meta) {
                       last_request_ = request;
                       last_meta_ = meta;
                       return net::HttpResponse::Ok("served");
                     })}}),
        proxy_(&hosts_.network()) {}

  net::ConnectionMeta Meta() {
    net::ConnectionMeta meta;
    meta.server_ip = net::IpAddress(1, 0, 0, 1);
    meta.sni = "site.com";
    meta.app_uid = 10050;
    return meta;
  }

  fixtures::TestNetwork hosts_;
  MitmProxy proxy_;
  net::HttpRequest last_request_;
  net::ConnectionMeta last_meta_;
};

TEST_F(MitmTest, ForgedCertsSignedByPanoptesCaAndCached) {
  const auto& cert_a = proxy_.PresentCertificate("site.com");
  EXPECT_EQ(cert_a.issuer, proxy_.ca_name());
  EXPECT_TRUE(cert_a.MatchesHost("site.com"));
  const auto& cert_b = proxy_.PresentCertificate("site.com");
  EXPECT_EQ(cert_a.spki_id, cert_b.spki_id);  // cached, stable
  EXPECT_EQ(proxy_.forged_cert_count(), 1u);
  proxy_.PresentCertificate("other.com");
  EXPECT_EQ(proxy_.forged_cert_count(), 2u);
}

TEST_F(MitmTest, ForwardRunsAddonsAndDelivers) {
  auto addon = std::make_shared<RecordingAddon>();
  proxy_.AddAddon(addon);
  proxy_.SetBrowserLabel("Yandex");

  net::HttpRequest request = Get("https://site.com/p?q=1");
  auto response = proxy_.Forward(request, Meta());
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "served");

  // Addon rewrote the request before it reached the server.
  EXPECT_EQ(last_request_.headers.Get("x-addon-touched"), "1");
  EXPECT_TRUE(last_meta_.via_proxy);

  ASSERT_EQ(addon->flows.size(), 1u);
  const Flow& flow = addon->flows.front();
  EXPECT_EQ(flow.browser, "Yandex");
  EXPECT_EQ(flow.app_uid, 10050);
  EXPECT_EQ(flow.url.Serialize(), "https://site.com/p?q=1");
  EXPECT_EQ(flow.response_status, 200);
  EXPECT_GT(flow.response_bytes, 0u);
  EXPECT_EQ(flow.id, 1u);
}

TEST_F(MitmTest, FlowIdsMonotonic) {
  proxy_.Forward(Get("https://site.com/a"), Meta());
  proxy_.Forward(Get("https://site.com/b"), Meta());
  EXPECT_EQ(proxy_.flows_processed(), 2u);
}

TEST_F(MitmTest, ForwardToUnknownIpYields502Flow) {
  auto addon = std::make_shared<RecordingAddon>();
  proxy_.AddAddon(addon);
  net::ConnectionMeta meta = Meta();
  meta.server_ip = net::IpAddress(9, 9, 9, 9);
  auto response = proxy_.Forward(Get("https://site.com/a"), meta);
  EXPECT_EQ(response.status, 502);
  ASSERT_EQ(addon->flows.size(), 1u);
  EXPECT_EQ(addon->flows.front().response_status, 502);
}

// The headers and body the proxy stores are the ones it forwarded: in
// order, taint stripped, equal to what the server received. Flows that
// are never delivered (blocked, upstream reset) still record them.
TEST_F(MitmTest, StoredFlowCarriesTheForwardedRequest) {
  proxy_.AddAddon(std::make_shared<core::TaintFilterAddon>());
  auto blocker = std::make_shared<core::NativeTrackerBlocker>(
      [](std::string_view host) { return host == "blocked.com"; });
  proxy_.AddAddon(blocker);
  auto capture = std::make_shared<RecordingAddon>();
  proxy_.AddAddon(capture);

  auto make = [](std::string_view url, bool tainted) {
    net::HttpRequest request = Get(url);
    request.method = net::HttpMethod::kPost;
    request.headers.Add("Accept", "*/*");
    if (tainted) request.headers.Add("X-Panoptes-Taint", "tok");
    request.headers.Add("User-Agent", "UA/1.0");
    request.headers.Add("Cookie", "sid=1");
    request.body = "{\"k\":\"v\"}";
    return request;
  };
  const std::vector<net::HttpHeaders::Entry> forwarded = {
      {"Accept", "*/*"},
      {"User-Agent", "UA/1.0"},
      {"Cookie", "sid=1"},
      {"x-addon-touched", "1"}};

  for (bool tainted : {true, false}) {
    SCOPED_TRACE(tainted ? "engine" : "native");
    net::HttpRequest request = make("https://site.com/p?q=1", tainted);
    const size_t wire = request.WireSize();
    last_request_ = net::HttpRequest{};
    auto response = proxy_.Forward(std::move(request), Meta());
    EXPECT_EQ(response.status, 200);

    const Flow& flow = capture->flows.back();
    EXPECT_EQ(flow.origin,
              tainted ? TrafficOrigin::kEngine : TrafficOrigin::kNative);
    EXPECT_EQ(flow.taint, tainted ? "tok" : "");
    EXPECT_EQ(last_request_.headers.entries(), forwarded);
    EXPECT_EQ(flow.request_headers.entries(), last_request_.headers.entries());
    EXPECT_EQ(flow.request_body, last_request_.body);
    EXPECT_EQ(flow.request_body, "{\"k\":\"v\"}");
    // request_bytes is the size the client sent, taint included.
    EXPECT_EQ(flow.request_bytes, wire);
  }

  // Blocked: answered locally, the server never sees it.
  net::HttpRequest blocked = make("https://blocked.com/x", false);
  const size_t blocked_wire = blocked.WireSize();
  last_request_ = net::HttpRequest{};
  EXPECT_EQ(proxy_.Forward(std::move(blocked), Meta()).status, 403);
  EXPECT_TRUE(last_request_.url.host().empty());
  EXPECT_TRUE(capture->flows.back().blocked);
  EXPECT_EQ(capture->flows.back().request_headers.entries(), forwarded);
  EXPECT_EQ(capture->flows.back().request_body, "{\"k\":\"v\"}");
  EXPECT_EQ(capture->flows.back().request_bytes, blocked_wire);

  // Upstream reset: the proxy answers 502 before delivery.
  chaos::FaultProfile profile;
  profile.upstream_reset_p = 1.0;
  chaos::Injector injector(7, profile);
  proxy_.SetChaos(&injector);
  net::HttpRequest reset = make("https://site.com/r", true);
  const size_t reset_wire = reset.WireSize();
  EXPECT_EQ(proxy_.Forward(std::move(reset), Meta()).status, 502);
  proxy_.SetChaos(nullptr);
  EXPECT_TRUE(last_request_.url.host().empty());
  const Flow& reset_flow = capture->flows.back();
  EXPECT_TRUE(reset_flow.fault_injected);
  EXPECT_EQ(reset_flow.origin, TrafficOrigin::kEngine);
  EXPECT_EQ(reset_flow.request_headers.entries(), forwarded);
  EXPECT_EQ(reset_flow.request_body, "{\"k\":\"v\"}");
  EXPECT_EQ(reset_flow.request_bytes, reset_wire);
  EXPECT_EQ(capture->flows.size(), 4u);
}

}  // namespace
}  // namespace panoptes::proxy
