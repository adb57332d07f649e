#include "net/fabric.h"

#include <gtest/gtest.h>

namespace panoptes::net {
namespace {

HttpResponse Echo(const HttpRequest& request, const ConnectionMeta& meta) {
  (void)meta;
  return HttpResponse::Ok("echo:" + std::string(request.url.path()));
}

TEST(Network, HostRegistersDnsAndCert) {
  Network network;
  network.Host("example.com", IpAddress(1, 2, 3, 4),
               std::make_shared<FunctionServer>(Echo));
  EXPECT_EQ(network.zone().Lookup("example.com"), IpAddress(1, 2, 3, 4));
  const auto* leaf = network.LeafFor("example.com");
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->issuer, network.web_ca().name());
  EXPECT_TRUE(leaf->MatchesHost("example.com"));
}

TEST(Network, FindByHostAndIp) {
  Network network;
  network.Host("a.com", IpAddress(1, 0, 0, 1),
               std::make_shared<FunctionServer>(Echo));
  EXPECT_NE(network.FindByHost("a.com"), nullptr);
  EXPECT_NE(network.FindByHost("A.COM"), nullptr);
  EXPECT_EQ(network.FindByHost("b.com"), nullptr);
  EXPECT_NE(network.FindByIp(IpAddress(1, 0, 0, 1)), nullptr);
  EXPECT_EQ(network.FindByIp(IpAddress(9, 9, 9, 9)), nullptr);
}

TEST(Network, DeliverRoutesToServer) {
  Network network;
  network.Host("a.com", IpAddress(1, 0, 0, 1),
               std::make_shared<FunctionServer>(Echo));
  HttpRequest request;
  request.url = Url::MustParse("https://a.com/hello");
  ConnectionMeta meta;
  auto response = network.Deliver(IpAddress(1, 0, 0, 1), request, meta);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "echo:/hello");
  EXPECT_EQ(network.delivered_count(), 1u);
}

TEST(Network, DeliverToEmptyAddressIs502) {
  Network network;
  HttpRequest request;
  request.url = Url::MustParse("https://a.com/");
  ConnectionMeta meta;
  auto response = network.Deliver(IpAddress(9, 9, 9, 9), request, meta);
  EXPECT_EQ(response.status, 502);
}

TEST(Network, TaintLeakCounterFiresOnPanoptesHeaders) {
  Network network;
  network.Host("a.com", IpAddress(1, 0, 0, 1),
               std::make_shared<FunctionServer>(Echo));
  HttpRequest clean;
  clean.url = Url::MustParse("https://a.com/");
  ConnectionMeta meta;
  network.Deliver(IpAddress(1, 0, 0, 1), clean, meta);
  EXPECT_EQ(network.taint_leaks(), 0u);

  HttpRequest tainted = clean;
  tainted.headers.Add("X-Panoptes-Taint", "oops");
  network.Deliver(IpAddress(1, 0, 0, 1), tainted, meta);
  EXPECT_EQ(network.taint_leaks(), 1u);
}

TEST(Network, TaintLeakCanaryIsCaseInsensitive) {
  Network network;
  network.Host("a.com", IpAddress(1, 0, 0, 1),
               std::make_shared<FunctionServer>(Echo));
  ConnectionMeta meta;
  auto deliver = [&](std::vector<std::pair<std::string, std::string>>
                         headers) {
    HttpRequest request;
    request.url = Url::MustParse("https://a.com/");
    for (const auto& [name, value] : headers) request.headers.Add(name, value);
    uint64_t before = network.taint_leaks();
    network.Deliver(IpAddress(1, 0, 0, 1), request, meta);
    return network.taint_leaks() - before;
  };
  // Any header whose name starts with x-panoptes, in any case, counts.
  EXPECT_EQ(deliver({{"X-PANOPTES-TAINT", "t"}}), 1u);
  EXPECT_EQ(deliver({{"x-Panoptes-Other", "t"}}), 1u);
  EXPECT_EQ(deliver({{"x-panoptes", "t"}}), 1u);
  // Two matching headers in one request are one leak.
  EXPECT_EQ(deliver({{"Accept", "*/*"},
                     {"x-panoptes-taint", "t"},
                     {"X-Panoptes-Taint", "u"}}),
            1u);
  // Near misses and a matching value do not count.
  EXPECT_EQ(deliver({{"x-panopte", "t"}}), 0u);
  EXPECT_EQ(deliver({{"xx-panoptes", "t"}}), 0u);
  EXPECT_EQ(deliver({{"Referer", "x-panoptes-taint"}}), 0u);
  EXPECT_EQ(deliver({}), 0u);
  EXPECT_EQ(network.taint_leaks(), 4u);
}

TEST(Network, MixedCaseHostLookups) {
  Network network;
  network.Host("Mixed.Example.COM", IpAddress(1, 0, 0, 5),
               std::make_shared<FunctionServer>(Echo), /*supports_h3=*/true);
  for (std::string_view name :
       {"mixed.example.com", "MIXED.EXAMPLE.COM", "Mixed.Example.COM"}) {
    SCOPED_TRACE(std::string(name));
    const HostRecord* record = network.FindByHost(name);
    ASSERT_NE(record, nullptr);
    EXPECT_EQ(record->hostname, "mixed.example.com");
    EXPECT_NE(network.LeafFor(name), nullptr);
    EXPECT_TRUE(network.SupportsH3(name));
    EXPECT_TRUE(network.zone().Has(name));
    EXPECT_EQ(network.zone().Lookup(name), IpAddress(1, 0, 0, 5));
  }
  EXPECT_EQ(network.FindByIp(IpAddress(1, 0, 0, 5)),
            network.FindByHost("mixed.example.com"));
  EXPECT_EQ(network.FindByHost("other.example.com"), nullptr);
  EXPECT_FALSE(network.zone().Has("OTHER.example.com"));

  // A rebound name answers on its new address only; FindByIp reaches
  // it without a second name lookup.
  network.Host("MIXED.example.com", IpAddress(1, 0, 0, 6),
               std::make_shared<FunctionServer>(Echo));
  EXPECT_EQ(network.FindByIp(IpAddress(1, 0, 0, 5)), nullptr);
  EXPECT_EQ(network.FindByIp(IpAddress(1, 0, 0, 6)),
            network.FindByHost("mixed.example.com"));
  EXPECT_EQ(network.FindByIp(IpAddress(1, 0, 0, 6))->ip,
            IpAddress(1, 0, 0, 6));
  EXPECT_FALSE(network.SupportsH3("Mixed.Example.Com"));

  // The DoH cache is keyed by the folded name: "A.com" then "a.com" is
  // one transport call.
  int calls = 0;
  DohResolver doh("dns.example", [&](std::string_view query_url)
                                     -> std::optional<std::string> {
    ++calls;
    EXPECT_NE(query_url.find("name=a.com"), std::string_view::npos);
    return std::string(
        R"({"Status":0,"Answer":[{"name":"a.com","data":"9.8.7.6"}]})");
  });
  EXPECT_EQ(doh.Resolve("A.com"), IpAddress(9, 8, 7, 6));
  EXPECT_EQ(doh.Resolve("a.com"), IpAddress(9, 8, 7, 6));
  EXPECT_EQ(doh.Resolve("A.COM"), IpAddress(9, 8, 7, 6));
  EXPECT_EQ(calls, 1);
}

TEST(Network, SupportsH3Flag) {
  Network network;
  network.Host("h3.com", IpAddress(1, 0, 0, 2),
               std::make_shared<FunctionServer>(Echo), /*supports_h3=*/true);
  network.Host("h1.com", IpAddress(1, 0, 0, 3),
               std::make_shared<FunctionServer>(Echo));
  EXPECT_TRUE(network.SupportsH3("h3.com"));
  EXPECT_FALSE(network.SupportsH3("h1.com"));
  EXPECT_FALSE(network.SupportsH3("unknown.com"));
}

TEST(Network, RebindingReplaces) {
  Network network;
  network.Host("a.com", IpAddress(1, 0, 0, 1),
               std::make_shared<FunctionServer>(Echo));
  network.Host("a.com", IpAddress(1, 0, 0, 7),
               std::make_shared<FunctionServer>(Echo));
  EXPECT_EQ(network.zone().Lookup("a.com"), IpAddress(1, 0, 0, 7));
}

// A rebind gives up the old address: nothing answers there any more,
// whether the name was bound in the network itself or in a shared table
// the network's own binding now shadows.
TEST(Network, RebindingReleasesTheOldAddress) {
  HttpRequest request;
  request.url = Url::MustParse("https://a.com/");
  ConnectionMeta meta;

  Network network;
  network.Host("a.com", IpAddress(1, 0, 0, 1),
               std::make_shared<FunctionServer>(Echo));
  network.Host("a.com", IpAddress(1, 0, 0, 7),
               std::make_shared<FunctionServer>(Echo));
  EXPECT_EQ(network.FindByIp(IpAddress(1, 0, 0, 1)), nullptr);
  EXPECT_EQ(network.Deliver(IpAddress(1, 0, 0, 1), request, meta).status,
            502);
  EXPECT_EQ(network.Deliver(IpAddress(1, 0, 0, 7), request, meta).status,
            200);

  HostTable table(/*seed=*/1);
  uint32_t slot = table.Add("a.com", IpAddress(1, 0, 0, 1), false).slot;
  Network shadowing(&table, /*seed=*/2);
  Network untouched(&table, /*seed=*/3);
  for (Network* net : {&shadowing, &untouched}) {
    net->Bind(slot, std::make_shared<FunctionServer>(Echo));
  }
  EXPECT_EQ(shadowing.Deliver(IpAddress(1, 0, 0, 1), request, meta).status,
            200);
  shadowing.Host("A.com", IpAddress(1, 0, 0, 7),
                 std::make_shared<FunctionServer>(Echo));
  EXPECT_EQ(shadowing.zone().Lookup("a.com"), IpAddress(1, 0, 0, 7));
  EXPECT_EQ(shadowing.FindByIp(IpAddress(1, 0, 0, 1)), nullptr);
  EXPECT_EQ(shadowing.Deliver(IpAddress(1, 0, 0, 1), request, meta).status,
            502);
  EXPECT_EQ(shadowing.Deliver(IpAddress(1, 0, 0, 7), request, meta).status,
            200);
  EXPECT_EQ(shadowing.Hostnames(), std::vector<std::string>{"a.com"});
  // The shared table, and every other network over it, is unchanged.
  EXPECT_EQ(table.FindByIp(IpAddress(1, 0, 0, 1)), table.Find("a.com"));
  EXPECT_EQ(untouched.zone().Lookup("a.com"), IpAddress(1, 0, 0, 1));
  EXPECT_EQ(untouched.Deliver(IpAddress(1, 0, 0, 1), request, meta).status,
            200);
}

TEST(Network, HostnamesListing) {
  Network network;
  network.Host("b.com", IpAddress(1, 0, 0, 2),
               std::make_shared<FunctionServer>(Echo));
  network.Host("a.com", IpAddress(1, 0, 0, 1),
               std::make_shared<FunctionServer>(Echo));
  auto names = network.Hostnames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a.com");  // stable (sorted) order
  EXPECT_EQ(names[1], "b.com");
}

}  // namespace
}  // namespace panoptes::net
