// Device model tests: app lifecycle (install / factory reset / cookie
// clear), iptables evaluation, and the network-stack send path with
// diversion, pinning and HTTP/3 fallback.
#include <gtest/gtest.h>

#include "device/device.h"
#include "device/netstack.h"
#include "net/fabric.h"
#include "test_hosts.h"

namespace panoptes::device {
namespace {

TEST(AppStorage, PutGetEraseClear) {
  AppStorage storage;
  EXPECT_FALSE(storage.Has("k"));
  storage.Put("k", "v");
  EXPECT_EQ(storage.Get("k"), "v");
  storage.Put("k", "v2");
  EXPECT_EQ(storage.Get("k"), "v2");
  EXPECT_EQ(storage.size(), 1u);
  storage.Erase("k");
  EXPECT_FALSE(storage.Has("k"));
  storage.Put("a", "1");
  storage.Put("b", "2");
  storage.Clear();
  EXPECT_EQ(storage.size(), 0u);
}

TEST(AndroidDevice, InstallAssignsSequentialUids) {
  AndroidDevice device;
  int uid_a = device.InstallApp("com.example.a");
  int uid_b = device.InstallApp("com.example.b");
  EXPECT_GE(uid_a, 10000);
  EXPECT_EQ(uid_b, uid_a + 1);
  EXPECT_EQ(device.app_count(), 2u);
  // Reinstall keeps UID but wipes storage.
  device.FindApp("com.example.a")->storage.Put("id", "persistent");
  EXPECT_EQ(device.InstallApp("com.example.a"), uid_a);
  EXPECT_FALSE(device.FindApp("com.example.a")->storage.Has("id"));
}

TEST(AndroidDevice, FactoryResetWipesEverything) {
  AndroidDevice device;
  device.InstallApp("app");
  auto* app = device.FindApp("app");
  app->storage.Put("uuid", "x");
  app->cookies.SetFromHeader("sid=1", net::Url::MustParse("https://site.com/"),
                             util::SimTime{});
  app->pins.Pin("host", "key");
  EXPECT_TRUE(device.FactoryResetApp("app"));
  EXPECT_FALSE(app->storage.Has("uuid"));
  EXPECT_EQ(app->cookies.size(), 0u);
  EXPECT_FALSE(app->pins.HasPinsFor("host"));
  EXPECT_FALSE(device.FactoryResetApp("missing"));
}

TEST(AndroidDevice, ClearCookiesKeepsStorage) {
  // This asymmetry is the heart of the Yandex persistence finding: the
  // tracking identifier lives in app storage, not cookies.
  AndroidDevice device;
  device.InstallApp("app");
  auto* app = device.FindApp("app");
  app->storage.Put("uuid", "persistent-id");
  app->cookies.SetFromHeader("sid=1", net::Url::MustParse("https://site.com/"),
                             util::SimTime{});
  EXPECT_TRUE(device.ClearCookies("app"));
  EXPECT_EQ(app->cookies.size(), 0u);
  EXPECT_EQ(app->storage.Get("uuid"), "persistent-id");
}

TEST(Iptables, FirstMatchWinsDefaultAccept) {
  Iptables iptables;
  EXPECT_EQ(iptables.Evaluate(10050, Protocol::kTcp, 443),
            RuleAction::kAccept);
  iptables.Append(Iptables::DivertUidTcp(10050));
  iptables.Append(Iptables::BlockQuic());
  EXPECT_EQ(iptables.Evaluate(10050, Protocol::kTcp, 443),
            RuleAction::kDivert);
  EXPECT_EQ(iptables.Evaluate(10050, Protocol::kTcp, 80),
            RuleAction::kDivert);
  EXPECT_EQ(iptables.Evaluate(10051, Protocol::kTcp, 443),
            RuleAction::kAccept);  // other UIDs unaffected
  EXPECT_EQ(iptables.Evaluate(10051, Protocol::kUdp, 443),
            RuleAction::kReject);  // QUIC blocked for everyone
  EXPECT_EQ(iptables.Evaluate(10051, Protocol::kUdp, 53),
            RuleAction::kAccept);
}

TEST(Iptables, DeleteByCommentAndFlush) {
  Iptables iptables;
  iptables.Append(Iptables::DivertUidTcp(10050));
  iptables.Append(Iptables::BlockQuic());
  EXPECT_EQ(iptables.DeleteByComment("panoptes-divert-uid-10050"), 1u);
  EXPECT_EQ(iptables.Evaluate(10050, Protocol::kTcp, 443),
            RuleAction::kAccept);
  EXPECT_EQ(iptables.rules().size(), 1u);
  iptables.Flush();
  EXPECT_TRUE(iptables.rules().empty());
}

// ---------------------------------------------------------------------------
// NetworkStack
// ---------------------------------------------------------------------------

class FakeDiverter : public TrafficDiverter {
 public:
  explicit FakeDiverter(net::Network* network)
      : network_(network), ca_("Fake-MITM", util::Rng(9)) {}

  const net::Certificate& PresentCertificate(std::string_view sni) override {
    cert_ = ca_.IssueLeaf(sni);
    return cert_;
  }

  net::HttpResponse Forward(net::HttpRequest request,
                            net::ConnectionMeta meta) override {
    ++forwarded_;
    meta.via_proxy = true;
    return network_->Deliver(meta.server_ip, request, meta);
  }

  const std::string& ca_name() const { return ca_.name(); }
  int forwarded() const { return forwarded_; }

 private:
  net::Network* network_;
  net::CertificateAuthority ca_;
  net::Certificate cert_;
  int forwarded_ = 0;
};

class NetStackTest : public ::testing::Test {
 protected:
  NetStackTest()
      : hosts_({{"site.com", net::IpAddress(1, 0, 0, 1),
                 fixtures::Answering(net::HttpResponse::Ok("hi"))},
                {"h3site.com", net::IpAddress(1, 0, 0, 2),
                 fixtures::Answering(net::HttpResponse::Ok("quick")),
                 /*supports_h3=*/true}}),
        network_(hosts_.network()),
        stack_(&device_, &network_, &clock_),
        diverter_(&network_) {
    device_.trust_store().Trust(network_.web_ca().name());
    uid_ = device_.InstallApp("com.example.browser");
    resolver_ = std::make_unique<net::StubResolver>(&network_.zone());
  }

  SendContext Ctx(bool wants_h3 = false) {
    SendContext ctx;
    ctx.app = device_.FindApp("com.example.browser");
    ctx.resolver = resolver_.get();
    ctx.wants_h3 = wants_h3;
    return ctx;
  }

  net::HttpRequest Get(std::string_view url) {
    net::HttpRequest request;
    request.url = net::Url::MustParse(url);
    return request;
  }

  util::SimClock clock_;
  fixtures::TestNetwork hosts_;
  net::Network& network_;
  AndroidDevice device_;
  NetworkStack stack_;
  FakeDiverter diverter_;
  std::unique_ptr<net::Resolver> resolver_;
  int uid_ = -1;
};

TEST_F(NetStackTest, DirectHttpsExchange) {
  auto outcome = stack_.Send(Get("https://site.com/"), Ctx());
  EXPECT_TRUE(outcome.ok);
  EXPECT_FALSE(outcome.via_proxy);
  EXPECT_EQ(outcome.response.body, "hi");
  EXPECT_EQ(outcome.version_used, net::HttpVersion::kHttp2);
  EXPECT_GT(outcome.request_bytes, 0u);
  EXPECT_GT(outcome.response_bytes, 0u);
}

TEST_F(NetStackTest, DnsFailure) {
  auto outcome = stack_.Send(Get("https://missing.com/"), Ctx());
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error, SendError::kDnsFailure);
  EXPECT_EQ(stack_.stats().dns_failures, 1u);
}

TEST_F(NetStackTest, DivertedThroughProxyWithTrustedCa) {
  device_.trust_store().Trust(diverter_.ca_name());
  device_.iptables().Append(Iptables::DivertUidTcp(uid_));
  stack_.SetDiverter(&diverter_);
  auto outcome = stack_.Send(Get("https://site.com/"), Ctx());
  EXPECT_TRUE(outcome.ok);
  EXPECT_TRUE(outcome.via_proxy);
  EXPECT_EQ(diverter_.forwarded(), 1);
  EXPECT_EQ(stack_.stats().diverted, 1u);
}

TEST_F(NetStackTest, DivertedWithoutMitmCaFailsHandshake) {
  // The device must trust the Panoptes CA for interception to work.
  device_.iptables().Append(Iptables::DivertUidTcp(uid_));
  stack_.SetDiverter(&diverter_);
  auto outcome = stack_.Send(Get("https://site.com/"), Ctx());
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error, SendError::kTlsUntrusted);
  EXPECT_EQ(diverter_.forwarded(), 0);
}

TEST_F(NetStackTest, PinnedHostRefusesForgedLeaf) {
  device_.trust_store().Trust(diverter_.ca_name());
  device_.iptables().Append(Iptables::DivertUidTcp(uid_));
  stack_.SetDiverter(&diverter_);
  auto* app = device_.FindApp("com.example.browser");
  app->pins.Pin("site.com", network_.LeafFor("site.com")->spki_id);

  auto outcome = stack_.Send(Get("https://site.com/"), Ctx());
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error, SendError::kTlsPinMismatch);
  EXPECT_EQ(stack_.stats().pin_failures, 1u);
  EXPECT_EQ(diverter_.forwarded(), 0);  // flow never reaches the proxy
}

TEST_F(NetStackTest, QuicBlockedFallsBackToTcp) {
  device_.iptables().Append(Iptables::BlockQuic());
  auto outcome = stack_.Send(Get("https://h3site.com/"), Ctx(true));
  EXPECT_TRUE(outcome.ok);
  EXPECT_TRUE(outcome.quic_fallback);
  EXPECT_EQ(outcome.version_used, net::HttpVersion::kHttp2);
  EXPECT_EQ(stack_.stats().quic_blocked, 1u);
}

TEST_F(NetStackTest, QuicOpenGoesDirectBypassingProxy) {
  device_.trust_store().Trust(diverter_.ca_name());
  device_.iptables().Append(Iptables::DivertUidTcp(uid_));
  stack_.SetDiverter(&diverter_);
  auto outcome = stack_.Send(Get("https://h3site.com/"), Ctx(true));
  EXPECT_TRUE(outcome.ok);
  EXPECT_FALSE(outcome.via_proxy);  // QUIC cannot be intercepted
  EXPECT_EQ(outcome.version_used, net::HttpVersion::kHttp3);
  EXPECT_EQ(stack_.stats().quic_direct, 1u);
  EXPECT_EQ(diverter_.forwarded(), 0);
}

TEST_F(NetStackTest, NonH3HostIgnoresH3Wish) {
  auto outcome = stack_.Send(Get("https://site.com/"), Ctx(true));
  EXPECT_TRUE(outcome.ok);
  EXPECT_FALSE(outcome.quic_fallback);
  EXPECT_EQ(outcome.version_used, net::HttpVersion::kHttp2);
}

TEST_F(NetStackTest, RejectRuleBlocksFlow) {
  IptablesRule rule;
  rule.uid = uid_;
  rule.protocol = Protocol::kTcp;
  rule.action = RuleAction::kReject;
  device_.iptables().Append(rule);
  auto outcome = stack_.Send(Get("https://site.com/"), Ctx());
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error, SendError::kRejected);
}

TEST_F(NetStackTest, LatencyAdvancesClock) {
  stack_.SetLatency(util::Duration::Millis(40));
  auto before = clock_.Now();
  stack_.Send(Get("https://site.com/"), Ctx());
  EXPECT_EQ((clock_.Now() - before).millis, 40);
}

TEST_F(NetStackTest, ErrorNames) {
  EXPECT_EQ(SendErrorName(SendError::kNone), "none");
  EXPECT_EQ(SendErrorName(SendError::kTlsPinMismatch), "tls-pin-mismatch");
}

}  // namespace
}  // namespace panoptes::device
