#include "net/fabric.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "test_hosts.h"

namespace panoptes::net {
namespace {

using fixtures::TestNetwork;

HttpResponse Echo(const HttpRequest& request, const ConnectionMeta& meta) {
  (void)meta;
  return HttpResponse::Ok("echo:" + std::string(request.url.path()));
}

std::shared_ptr<Server> EchoServer() {
  return std::make_shared<FunctionServer>(Echo);
}

TEST(Network, HostRegistersDnsAndCert) {
  TestNetwork hosts({{"example.com", IpAddress(1, 2, 3, 4), EchoServer()}});
  Network& network = hosts.network();
  EXPECT_EQ(network.zone().Lookup("example.com"), IpAddress(1, 2, 3, 4));
  const auto* leaf = network.LeafFor("example.com");
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->issuer, network.web_ca().name());
  EXPECT_TRUE(leaf->MatchesHost("example.com"));
}

TEST(Network, FindByHostAndIp) {
  TestNetwork hosts({{"a.com", IpAddress(1, 0, 0, 1), EchoServer()}});
  Network& network = hosts.network();
  EXPECT_NE(network.FindByHost("a.com"), nullptr);
  EXPECT_NE(network.FindByHost("A.COM"), nullptr);
  EXPECT_EQ(network.FindByHost("b.com"), nullptr);
  EXPECT_NE(network.FindByIp(IpAddress(1, 0, 0, 1)), nullptr);
  EXPECT_EQ(network.FindByIp(IpAddress(9, 9, 9, 9)), nullptr);
}

TEST(Network, DeliverRoutesToServer) {
  TestNetwork hosts({{"a.com", IpAddress(1, 0, 0, 1), EchoServer()}});
  Network& network = hosts.network();
  HttpRequest request;
  request.url = Url::MustParse("https://a.com/hello");
  ConnectionMeta meta;
  auto response = network.Deliver(IpAddress(1, 0, 0, 1), request, meta);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "echo:/hello");
  EXPECT_EQ(network.delivered_count(), 1u);
}

TEST(Network, DeliverToEmptyAddressIs502) {
  TestNetwork hosts;
  Network& network = hosts.network();
  HttpRequest request;
  request.url = Url::MustParse("https://a.com/");
  ConnectionMeta meta;
  auto response = network.Deliver(IpAddress(9, 9, 9, 9), request, meta);
  EXPECT_EQ(response.status, 502);
}

TEST(Network, TaintLeakCounterFiresOnPanoptesHeaders) {
  TestNetwork hosts({{"a.com", IpAddress(1, 0, 0, 1), EchoServer()}});
  Network& network = hosts.network();
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
  TestNetwork hosts({{"a.com", IpAddress(1, 0, 0, 1), EchoServer()}});
  Network& network = hosts.network();
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
  TestNetwork hosts(
      {{"Mixed.Example.COM", IpAddress(1, 0, 0, 5), EchoServer(), true}});
  Network& network = hosts.network();
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
  TestNetwork hosts({{"h3.com", IpAddress(1, 0, 0, 2), EchoServer(), true},
                     {"h1.com", IpAddress(1, 0, 0, 3), EchoServer()}});
  Network& network = hosts.network();
  EXPECT_TRUE(network.SupportsH3("h3.com"));
  EXPECT_FALSE(network.SupportsH3("h1.com"));
  EXPECT_FALSE(network.SupportsH3("unknown.com"));
}

// A host the table rebinds gives up its old address: nothing answers
// there any more, and the network delivers to the new one.
TEST(Network, RebindingReleasesTheOldAddress) {
  HttpRequest request;
  request.url = Url::MustParse("https://a.com/");
  ConnectionMeta meta;

  HostTable table(/*seed=*/1);
  table.Add("a.com", IpAddress(1, 0, 0, 1), false);
  uint32_t slot = table.Add("A.com", IpAddress(1, 0, 0, 7), false).slot;
  Network network(&table);
  network.Bind(slot, EchoServer());
  EXPECT_EQ(network.zone().Lookup("a.com"), IpAddress(1, 0, 0, 7));
  EXPECT_EQ(network.FindByIp(IpAddress(1, 0, 0, 1)), nullptr);
  EXPECT_EQ(network.Deliver(IpAddress(1, 0, 0, 1), request, meta).status,
            502);
  EXPECT_EQ(network.Deliver(IpAddress(1, 0, 0, 7), request, meta).status,
            200);
  EXPECT_EQ(network.Hostnames(), std::vector<std::string>{"a.com"});
}

// A network only binds the slots its table had when it was built.
TEST(Network, BindRejectsASlotOutsideItsTable) {
  HostTable table(/*seed=*/1);
  table.Add("a.com", IpAddress(1, 0, 0, 1), false);
  Network network(&table);
  EXPECT_THROW(network.Bind(1, EchoServer()), std::out_of_range);
  // A host added after the network was built has no slot in it: it
  // cannot be bound, and nothing answers at its address.
  uint32_t late = table.Add("b.com", IpAddress(1, 0, 0, 2), false).slot;
  EXPECT_THROW(network.Bind(late, EchoServer()), std::out_of_range);
  HttpRequest request;
  request.url = Url::MustParse("https://b.com/");
  EXPECT_EQ(
      network.Deliver(IpAddress(1, 0, 0, 2), request, ConnectionMeta{})
          .status,
      502);
  network.Bind(0, EchoServer());
  EXPECT_EQ(
      network.Deliver(IpAddress(1, 0, 0, 1), request, ConnectionMeta{})
          .status,
      200);
}

TEST(Network, HostnamesListing) {
  TestNetwork hosts({{"b.com", IpAddress(1, 0, 0, 2), EchoServer()},
                     {"a.com", IpAddress(1, 0, 0, 1), EchoServer()}});
  auto names = hosts.network().Hostnames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a.com");  // stable (sorted) order
  EXPECT_EQ(names[1], "b.com");
}

// A rebind keeps the name's slot and moves it to the new address,
// leaf and HTTP/3 support; the old address finds nothing, and every
// other slot is untouched.
TEST(HostTable, RebindReleasesTheOldAddress) {
  HostTable table(/*seed=*/1);
  const HostRecord& first =
      table.Add("Mixed.Example.COM", IpAddress(1, 0, 0, 5), true);
  uint32_t slot = first.slot;
  std::string old_key = first.leaf.spki_id;
  uint32_t other = table.Add("b.com", IpAddress(1, 0, 0, 2), false).slot;

  const HostRecord& rebound =
      table.Add("MIXED.example.com", IpAddress(1, 0, 0, 6), false);
  EXPECT_EQ(rebound.slot, slot);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.FindByIp(IpAddress(1, 0, 0, 5)), nullptr);
  EXPECT_EQ(table.FindByIp(IpAddress(1, 0, 0, 6)),
            table.Find("mixed.example.com"));
  EXPECT_EQ(table.Address("Mixed.Example.Com"), IpAddress(1, 0, 0, 6));
  EXPECT_FALSE(table.Find("mixed.example.com")->supports_h3);
  EXPECT_NE(table.Find("mixed.example.com")->leaf.spki_id, old_key);

  const HostRecord* b = table.Find("b.com");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->slot, other);
  EXPECT_EQ(b->ip, IpAddress(1, 0, 0, 2));
  EXPECT_EQ(table.FindByIp(IpAddress(1, 0, 0, 2)), b);

  // An address another host has claimed since stays with that host.
  table.Add("c.com", IpAddress(1, 0, 0, 6), false);
  table.Add("mixed.example.com", IpAddress(1, 0, 0, 9), false);
  EXPECT_EQ(table.FindByIp(IpAddress(1, 0, 0, 6)), table.Find("c.com"));
  EXPECT_EQ(table.FindByIp(IpAddress(1, 0, 0, 9)),
            table.Find("mixed.example.com"));
}

}  // namespace
}  // namespace panoptes::net
