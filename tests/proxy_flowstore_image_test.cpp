// The flow-store image (FlowStore::WriteImage/ReadImage), the one form
// in which snapshots and spill segments persist a store.
//
// Below the frame digest, the decoder must still be exact: any image it
// accepts must be the one WriteImage gives for the store it decoded, so
// a bool outside 0/1, an enum past its range, a pool id out of order or
// a view outside the text block is rejected rather than normalized. And
// it must decode like the portable decoder it replaced, kept as an
// oracle in tests/oracle/store_v9.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "browser/profiles.h"
#include "core/fleet.h"
#include "oracle/store_v9.h"
#include "proxy/flowstore.h"
#include "util/binio.h"
#include "util/rng.h"

namespace panoptes::proxy {
namespace {

std::string ImageOf(const FlowStore& store) {
  util::BinWriter out;
  store.WriteImage(out);
  return out.Take();
}

std::string CanonicalOf(const FlowStore& store) {
  util::BinWriter out;
  store.SerializeTo(out);
  return out.Take();
}

// A store that uses every field: two browsers, ports, queries,
// fragments, headers, bodies, taints, blocked flows, redirect chains,
// a repeated host and a rolled-back flow whose bytes stay in the arena.
FlowStore RichStore() {
  FlowStore store;
  store.SetProvenance(0xABCD);
  const std::vector<std::string> urls = {
      "https://a.example.com/",
      "http://b.example.org:8080/p/q?x=1&y=2",
      "https://a.example.com/path#frag",
      "https://c.tracker.net/collect?id=42#top",
      "http://d.cdn.io/s.js",
  };
  for (uint64_t i = 0; i < 24; ++i) {
    Flow flow;
    flow.id = 100 + i;
    flow.time.millis = 5000 + 17 * static_cast<int64_t>(i);
    flow.browser = i % 3 == 0 ? "Opera" : "Yandex";
    flow.app_uid = i % 4 == 0 ? -1 : 10000 + static_cast<int>(i);
    flow.method = i % 2 == 0 ? net::HttpMethod::kGet : net::HttpMethod::kPost;
    flow.url = net::Url::MustParse(urls[i % urls.size()]);
    if (i % 5 != 4) {
      flow.request_headers.Add("User-Agent", "ua/" + std::to_string(i));
      flow.request_headers.Add("Cookie", "sid=" + std::to_string(i * 7));
    }
    flow.request_body = i % 3 == 1 ? "body-" + std::to_string(i) : "";
    flow.response_status = i % 7 == 0 ? 302 : 200;
    flow.request_bytes = 300 + i;
    flow.response_bytes = 4000 + 3 * i;
    flow.server_ip = net::IpAddress(0x0A000001u + static_cast<uint32_t>(i));
    flow.version = i % 2 == 0 ? net::HttpVersion::kHttp2
                              : net::HttpVersion::kHttp3;
    flow.origin = i % 2 == 0 ? TrafficOrigin::kNative : TrafficOrigin::kEngine;
    flow.taint = i % 4 == 1 ? "taint-" + std::to_string(i) : "";
    flow.blocked = i % 6 == 5;
    flow.blocked_by = flow.blocked ? "easylist" : "";
    flow.fault_injected = i % 11 == 3;
    flow.chain_id = i < 6 ? 9 : 0;
    flow.redirect_hop = i < 6 ? static_cast<uint32_t>(i) : 0;
    if (i == 12) store.BeginTransaction();
    store.Add(flow);
    if (i == 13) store.RollbackTransaction();
  }
  return store;
}

// Stores of a small real fleet: both sides of two crawls and an idle.
std::vector<std::unique_ptr<FlowStore>> FleetStores() {
  core::FleetOptions options;
  options.jobs = 2;
  options.framework.catalog.popular_count = 3;
  options.framework.catalog.sensitive_count = 1;
  std::vector<browser::BrowserSpec> specs = {*browser::FindSpec("Yandex"),
                                             *browser::FindSpec("Opera")};
  auto jobs = core::FleetExecutor::PlanCampaign(
      specs, {core::CampaignKind::kCrawl, core::CampaignKind::kIdle}, 1);
  auto results = core::FleetExecutor(options).Run(jobs);
  std::vector<std::unique_ptr<FlowStore>> stores;
  for (auto& result : results) {
    if (result.crawl.has_value()) {
      stores.push_back(std::move(result.crawl->engine_flows));
      stores.push_back(std::move(result.crawl->native_flows));
    } else {
      stores.push_back(std::move(result.idle->native_flows));
    }
  }
  return stores;
}

TEST(FlowStoreImage, RoundTripsEveryFieldByteForByte) {
  const FlowStore store = RichStore();
  ASSERT_EQ(store.size(), 22u);
  const std::string image = ImageOf(store);
  auto decoded = FlowStore::ReadImage(image);
  ASSERT_NE(decoded, nullptr);
  ASSERT_EQ(decoded->size(), store.size());
  EXPECT_EQ(ImageOf(*decoded), image);
  EXPECT_EQ(CanonicalOf(*decoded), CanonicalOf(store));
  for (size_t i = 0; i < store.size(); ++i) {
    const FlowView& a = store.flow(i);
    const FlowView& b = decoded->flow(i);
    EXPECT_EQ(a.uid, b.uid);
    EXPECT_EQ(a.redirect_of, b.redirect_of);
    EXPECT_EQ(a.url.host(), b.url.host());
    EXPECT_EQ(a.url.EffectivePort(), b.url.EffectivePort());
    EXPECT_EQ(a.url.query(), b.url.query());
    EXPECT_EQ(a.url.fragment(), b.url.fragment());
    EXPECT_EQ(decoded->hosts()[b.host_id].host, b.Host());
    EXPECT_EQ(decoded->hosts()[b.host_id].domain,
              store.hosts()[a.host_id].domain);
  }
}

// Only content reaches the image: the same flows captured into two
// stores, whose arenas sit at other addresses, write the same bytes.
TEST(FlowStoreImage, HoldsNoAddressOrPadding) {
  const FlowStore first = RichStore();
  auto second = std::make_unique<FlowStore>(RichStore());
  EXPECT_EQ(ImageOf(first), ImageOf(*second));
}

// The image decoder and the v9 portable decoder, which re-parses every
// URL and re-interns every host through Add, yield the same stores.
TEST(FlowStoreImage, DecodesLikeTheV9Oracle) {
  std::vector<std::unique_ptr<FlowStore>> stores = FleetStores();
  stores.push_back(std::make_unique<FlowStore>(RichStore()));
  for (size_t i = 0; i < stores.size(); ++i) {
    const FlowStore& store = *stores[i];
    const std::string canonical = CanonicalOf(store);
    util::BinReader in(canonical);
    auto oracle = oracle::DecodeSerializedStore(in);
    ASSERT_NE(oracle, nullptr) << i;
    auto decoded = FlowStore::ReadImage(ImageOf(store));
    ASSERT_NE(decoded, nullptr) << i;
    EXPECT_EQ(CanonicalOf(*oracle), canonical) << i;
    EXPECT_EQ(CanonicalOf(*decoded), canonical) << i;
    EXPECT_EQ(decoded->DistinctDomains(), oracle->DistinctDomains()) << i;
  }
}

// Seeded flips, byte sets and truncations fed straight to the decoder,
// with no frame digest in front: each is rejected, or decodes to a
// store whose image is the mutant itself.
TEST(FlowStoreImage, MutantsAreRejectedOrReencodeExactly) {
  const std::string image = ImageOf(RichStore());
  util::Rng rng(20231024);
  constexpr int kMutants = 2000;
  int accepted = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string mutant = image;
    const size_t at = rng.NextBelow(image.size());
    switch (i % 3) {
      case 0:
        mutant[at] = static_cast<char>(mutant[at] ^ (1 + rng.NextBelow(255)));
        break;
      case 1: {
        constexpr uint8_t kValues[] = {0x00, 0x01, 0x02, 0x7F, 0xFF};
        mutant[at] = static_cast<char>(kValues[rng.NextBelow(5)]);
        break;
      }
      default:
        mutant.resize(at);
        break;
    }
    auto decoded = FlowStore::ReadImage(mutant);
    if (decoded == nullptr) continue;
    ++accepted;
    EXPECT_EQ(ImageOf(*decoded), mutant) << "mutant " << i << " at " << at;
  }
  // Flips inside text bytes decode, so the check is not vacuous.
  RecordProperty("accepted_mutants", accepted);
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutants);
}

TEST(FlowStoreImage, EmptyStoresRoundTrip) {
  for (bool compact : {false, true}) {
    FlowStore store(compact);
    store.AccumulateDroppedWrites(3);
    const std::string image = ImageOf(store);
    auto decoded = FlowStore::ReadImage(image);
    ASSERT_NE(decoded, nullptr);
    EXPECT_TRUE(decoded->empty());
    EXPECT_EQ(decoded->compact(), compact);
    EXPECT_EQ(decoded->dropped_writes(), 3u);
    EXPECT_EQ(ImageOf(*decoded), image);
  }
}

}  // namespace
}  // namespace panoptes::proxy
