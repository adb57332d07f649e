// FlowIndex: the columnar analysis index must be a faithful, mergeable
// stand-in for rescanning the raw flow store. Three contracts are
// pinned here:
//   1. the index's tables/postings/totals agree with direct store scans;
//   2. Build(A+B) and Build(A).Append(Build(B)) serialize to the SAME
//      bytes (the fleet merges per-shard indexes instead of re-parsing
//      merged stores);
//   3. every indexed analyzer reproduces the store-scanning reference
//      (tests/oracle) field for field on a real crawl.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "analysis/dns_leakage.h"
#include "analysis/flow_index.h"
#include "analysis/geoip.h"
#include "analysis/historyleak.h"
#include "analysis/naive_split.h"
#include "analysis/pii.h"
#include "analysis/referer.h"
#include "analysis/timeline.h"
#include "browser/profiles.h"
#include "core/campaign.h"
#include "core/framework.h"
#include "oracle/store_scans.h"
#include "util/base64.h"
#include "util/binio.h"

namespace panoptes::analysis {
namespace {

proxy::Flow MakeFlow(std::string_view url, int64_t millis, int uid,
                     uint32_t ip, std::string body = {}) {
  proxy::Flow flow;
  flow.url = net::Url::MustParse(url);
  flow.time.millis = millis;
  flow.app_uid = uid;
  flow.server_ip = net::IpAddress(ip);
  flow.request_bytes = 100 + url.size();
  flow.response_bytes = 60;
  flow.request_body = std::move(body);
  return flow;
}

proxy::FlowStore SmallStore() {
  proxy::FlowStore store;
  store.Add(MakeFlow("https://a.example.com/t?x=1&y=2", 1'000, 10, 0x01020304));
  store.Add(MakeFlow("https://b.example.org/p", 4'000, 10, 0x05060708));
  store.Add(MakeFlow("https://a.example.com/t?x=3", 13'000, 11, 0x01020304));
  store.Add(MakeFlow("https://c.example.net/q?blob=" +
                         util::Base64Encode("Europe/Athens"),
                     27'500, 12, 0x090a0b0c,
                     "{\"n\": 3.5, \"s\": \"hello\", \"b\": true}"));
  return store;
}

std::string Serialized(const FlowIndex& index) {
  util::BinWriter out;
  index.SerializeTo(out);
  return out.Take();
}

TEST(FlowIndex, TablesPostingsAndTotalsMatchStoreScans) {
  proxy::FlowStore store = SmallStore();
  FlowIndex index = FlowIndex::Build(store);

  ASSERT_EQ(index.flow_count(), store.size());
  EXPECT_EQ(index.request_bytes_total(), store.RequestBytes());

  // Hosts: same distinct set, interned in first-appearance order.
  auto distinct = store.DistinctHosts();
  EXPECT_EQ(index.hosts().size(), distinct.size());
  std::vector<std::string> sorted(distinct.begin(), distinct.end());
  EXPECT_EQ(index.SortedHosts(), sorted);
  EXPECT_EQ(index.host(0).raw, "a.example.com");
  EXPECT_EQ(index.host(0).domain, "example.com");

  // Per-host postings agree with ToHost scans.
  for (const auto& host : distinct) {
    const auto* postings = index.FlowsToHost(host);
    ASSERT_NE(postings, nullptr) << host;
    EXPECT_EQ(postings->size(), store.ToHost(host).size()) << host;
    for (uint32_t flow_id : *postings) {
      EXPECT_EQ(store.flow(flow_id).Host(), host);
    }
  }
  EXPECT_EQ(index.FlowsToHost("never-contacted.example"), nullptr);
  EXPECT_FALSE(index.HostId("never-contacted.example").has_value());

  // UID postings partition the flows.
  ASSERT_EQ(index.by_uid().count(10), 1u);
  EXPECT_EQ(index.by_uid().at(10).size(), 2u);
  EXPECT_EQ(index.by_uid().at(11).size(), 1u);
  EXPECT_EQ(index.by_uid().at(12).size(), 1u);

  // Time buckets are absolute floors of kTimeBucketMillis.
  ASSERT_EQ(index.by_time_bucket().size(), 3u);
  EXPECT_EQ(index.by_time_bucket().at(0).size(), 2u);
  EXPECT_EQ(index.by_time_bucket().at(10'000).size(), 1u);
  EXPECT_EQ(index.by_time_bucket().at(20'000).size(), 1u);

  // Cumulative timeline spans first..last occupied bucket.
  EXPECT_EQ(CumulativeByBucket(index),
            (std::vector<uint64_t>{2, 3, 4}));
}

TEST(FlowIndex, ParamPoolMirrorsLegacyDecodeOrder) {
  proxy::FlowStore store;
  store.Add(MakeFlow("https://c.example.net/q?a=1&blob=" +
                         util::Base64Encode("Europe/Athens"),
                     0, 10, 1,
                     "{\"n\": 3.5, \"s\": \"hello\", \"b\": true}"));
  FlowIndex index = FlowIndex::Build(store);

  ASSERT_EQ(index.flow_count(), 1u);
  const auto& entry = index.entries()[0];
  ASSERT_EQ(entry.param_end - entry.param_begin, 6u);
  const auto* p = &index.params()[entry.param_begin];

  // Query pairs in URL order; the Base64 twin rides right after the
  // parameter it was decoded from (the PII scanner's legacy order).
  EXPECT_EQ(index.key(p[0].key_id), "a");
  EXPECT_EQ(p[0].source, FlowIndex::ParamSource::kQuery);
  EXPECT_EQ(index.key(p[1].key_id), "blob");
  EXPECT_EQ(p[1].source, FlowIndex::ParamSource::kQuery);
  EXPECT_EQ(p[2].source, FlowIndex::ParamSource::kQueryBase64);
  EXPECT_EQ(p[2].value, "Europe/Athens");
  EXPECT_EQ(index.key(p[2].key_id), "blob");

  // JSON body members in key order (the sorted-map order JsonObject
  // scanning produces), numbers carrying both text and value.
  EXPECT_EQ(index.key(p[3].key_id), "b");
  EXPECT_EQ(p[3].source, FlowIndex::ParamSource::kBodyJsonBool);
  EXPECT_EQ(index.key(p[4].key_id), "n");
  EXPECT_EQ(p[4].source, FlowIndex::ParamSource::kBodyJsonNumber);
  EXPECT_EQ(p[4].value, "3.5000");
  EXPECT_DOUBLE_EQ(p[4].number, 3.5);
  EXPECT_EQ(index.key(p[5].key_id), "s");
  EXPECT_EQ(p[5].source, FlowIndex::ParamSource::kBodyJsonString);
  EXPECT_EQ(p[5].value, "hello");
}

// Move-only, like FlowStore: a capture owns its index and a shard merge
// appends in place, so nothing needs (or gets) a copy.
static_assert(!std::is_copy_constructible_v<FlowIndex>);

// Shares a.example.com with SmallStore (must remap to the existing
// interned id) and introduces a new host and new keys.
proxy::FlowStore SecondStore() {
  proxy::FlowStore store;
  store.Add(MakeFlow("https://a.example.com/t?z=9", 31'000, 13, 0x01020304));
  store.Add(MakeFlow("https://d.example.io/r?x=7", 32'000, 10, 0x0d0e0f10));
  return store;
}

TEST(FlowIndex, AppendEqualsBuildOverConcatenatedStores) {
  // Append consumes its source, so each side builds its own copy of b.
  proxy::FlowStore ab = SmallStore();
  ab.Append(SecondStore());

  FlowIndex merged = FlowIndex::Build(SmallStore());
  merged.Append(FlowIndex::Build(SecondStore()));
  EXPECT_EQ(Serialized(merged), Serialized(FlowIndex::Build(ab)));
}

// Append adopts the source's text pool: paths and parameter values stay
// readable after the source index is destroyed, and the result equals a
// Build over the concatenated stores. The source is left empty.
TEST(FlowIndex, AppendAdoptsItsSourcePool) {
  proxy::FlowStore ab = SmallStore();
  ab.Append(SecondStore());
  const FlowIndex built = FlowIndex::Build(ab);

  FlowIndex merged = FlowIndex::Build(SmallStore());
  {
    proxy::FlowStore b = SecondStore();
    auto source = std::make_unique<FlowIndex>(FlowIndex::Build(b));
    merged.Append(std::move(*source));
    EXPECT_TRUE(source->empty());
    EXPECT_TRUE(source->hosts().empty());
    EXPECT_TRUE(source->params().empty());
  }
  EXPECT_EQ(Serialized(merged), Serialized(built));
  // SerializeTo leaves postings and totals out: they must match too.
  EXPECT_EQ(merged.by_host(), built.by_host());
  EXPECT_EQ(merged.by_uid(), built.by_uid());
  EXPECT_EQ(merged.by_time_bucket(), built.by_time_bucket());
  EXPECT_EQ(merged.request_bytes_total(), built.request_bytes_total());
  EXPECT_EQ(merged.response_bytes_total(), built.response_bytes_total());
  ASSERT_TRUE(merged.PathId("/r").has_value());
  EXPECT_EQ(merged.path(*merged.PathId("/r")), "/r");
  EXPECT_EQ(merged.params().back().value, "7");
  EXPECT_EQ(merged.host(*merged.HostId("d.example.io")).canonical,
            "d.example.io");
  EXPECT_EQ(merged.host(*merged.HostId("d.example.io")).domain, "example.io");
  ASSERT_NE(merged.FlowsToHost("a.example.com"), nullptr);
  EXPECT_EQ(merged.FlowsToHost("a.example.com")->size(), 3u);
}

TEST(FlowIndex, SelfAppendIsRejected) {
  FlowIndex index = FlowIndex::Build(SmallStore());
  const std::string before = Serialized(index);
  EXPECT_THROW(index.Append(std::move(index)), std::invalid_argument);
  EXPECT_EQ(Serialized(index), before);
}

// ---------------------------------------------------------------------------
// Indexed analyzers == store-scanning reference, on a real crawl.
// ---------------------------------------------------------------------------

struct CrawlFixture {
  std::unique_ptr<core::Framework> framework;
  core::CrawlResult result;
  std::vector<net::Url> visited;
  std::set<std::string> site_hosts;
};

const CrawlFixture& Crawl() {
  static const CrawlFixture* fixture = [] {
    auto* f = new CrawlFixture;
    core::FrameworkOptions options;
    options.catalog.popular_count = 8;
    options.catalog.sensitive_count = 4;
    f->framework = std::make_unique<core::Framework>(options);
    std::vector<const web::Site*> sites;
    for (const auto& site : f->framework->catalog().sites()) {
      sites.push_back(&site);
      f->visited.push_back(site.landing_url);
      f->site_hosts.emplace(site.landing_url.host());
    }
    core::CrawlOptions crawl_options;
    crawl_options.compact_engine_store = false;  // Referer analysis
    f->result = core::RunCrawl(*f->framework, *browser::FindSpec("Yandex"),
                               sites, crawl_options);
    return f;
  }();
  return *fixture;
}

TEST(FlowIndexAnalyzers, PiiScanMatchesLegacy) {
  const auto& f = Crawl();
  PiiScanner scanner(device::DeviceProfile::PaperTestbed());
  PiiReport legacy = oracle::ScanPii(scanner, *f.result.native_flows);
  PiiReport indexed = scanner.Scan(*f.result.native_index);
  EXPECT_EQ(indexed.leaked, legacy.leaked);
  ASSERT_EQ(indexed.evidence.size(), legacy.evidence.size());
  for (size_t i = 0; i < legacy.evidence.size(); ++i) {
    EXPECT_EQ(indexed.evidence[i].field, legacy.evidence[i].field) << i;
    EXPECT_EQ(indexed.evidence[i].host, legacy.evidence[i].host) << i;
    EXPECT_EQ(indexed.evidence[i].sample, legacy.evidence[i].sample) << i;
    EXPECT_EQ(indexed.evidence[i].value_hash, legacy.evidence[i].value_hash)
        << i;
  }
}

TEST(FlowIndexAnalyzers, HistoryLeakScanMatchesLegacy) {
  const auto& f = Crawl();
  HistoryLeakDetector detector(f.visited);
  for (bool engine : {false, true}) {
    SCOPED_TRACE(engine ? "engine" : "native");
    const auto& store = engine ? *f.result.engine_flows
                               : *f.result.native_flows;
    const auto& index = engine ? *f.result.engine_index
                               : *f.result.native_index;
    auto legacy = oracle::ScanHistoryLeaks(detector, store, engine);
    auto indexed = detector.Scan(store, index, engine);
    ASSERT_EQ(indexed.size(), legacy.size());
    for (size_t i = 0; i < legacy.size(); ++i) {
      EXPECT_EQ(indexed[i].destination_host, legacy[i].destination_host);
      EXPECT_EQ(indexed[i].granularity, legacy[i].granularity);
      EXPECT_EQ(indexed[i].encoding, legacy[i].encoding);
      EXPECT_EQ(indexed[i].report_count, legacy[i].report_count);
      EXPECT_EQ(indexed[i].persistent_identifier,
                legacy[i].persistent_identifier);
      EXPECT_EQ(indexed[i].via_engine_injection,
                legacy[i].via_engine_injection);
    }
  }
}

TEST(FlowIndexAnalyzers, GeoMatchesLegacy) {
  const auto& f = Crawl();
  GeoIpDb geo(f.framework->geo_plan().ranges());
  auto legacy = oracle::CountriesContacted(*f.result.native_flows, geo);
  auto indexed = CountriesContacted(*f.result.native_index, geo);
  ASSERT_EQ(indexed.size(), legacy.size());
  for (size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(indexed[i].country_code, legacy[i].country_code);
    EXPECT_EQ(indexed[i].flows, legacy[i].flows);
    EXPECT_EQ(indexed[i].hosts, legacy[i].hosts);
    EXPECT_EQ(indexed[i].eu_member, legacy[i].eu_member);
  }

  std::vector<std::string> hosts = f.result.native_index->SortedHosts();
  auto legacy_transfers =
      oracle::ClassifyTransfers(*f.result.native_flows, hosts, geo);
  auto indexed_transfers =
      ClassifyTransfers(*f.result.native_index, hosts, geo);
  ASSERT_EQ(indexed_transfers.size(), legacy_transfers.size());
  for (size_t i = 0; i < legacy_transfers.size(); ++i) {
    EXPECT_EQ(indexed_transfers[i].host, legacy_transfers[i].host);
    EXPECT_EQ(indexed_transfers[i].country_code,
              legacy_transfers[i].country_code);
    EXPECT_EQ(indexed_transfers[i].outside_eu, legacy_transfers[i].outside_eu);
  }
}

TEST(FlowIndexAnalyzers, DnsRefererAndSplitMatchLegacy) {
  const auto& f = Crawl();

  auto legacy_dns =
      oracle::AnalyzeDnsLeakage(*f.result.native_flows, f.site_hosts);
  auto indexed_dns = AnalyzeDnsLeakage(*f.result.native_index, f.site_hosts);
  EXPECT_EQ(indexed_dns.uses_doh, legacy_dns.uses_doh);
  EXPECT_EQ(indexed_dns.provider_host, legacy_dns.provider_host);
  EXPECT_EQ(indexed_dns.queries, legacy_dns.queries);
  EXPECT_EQ(indexed_dns.domains_leaked, legacy_dns.domains_leaked);
  EXPECT_EQ(indexed_dns.visited_site_lookups, legacy_dns.visited_site_lookups);

  auto legacy_ref = oracle::AnalyzeRefererLeakage(*f.result.engine_flows);
  auto indexed_ref =
      AnalyzeRefererLeakage(*f.result.engine_flows, *f.result.engine_index);
  EXPECT_EQ(indexed_ref.engine_requests, legacy_ref.engine_requests);
  EXPECT_EQ(indexed_ref.leaking_requests, legacy_ref.leaking_requests);
  ASSERT_EQ(indexed_ref.leaks.size(), legacy_ref.leaks.size());
  for (size_t i = 0; i < legacy_ref.leaks.size(); ++i) {
    EXPECT_EQ(indexed_ref.leaks[i].third_party_host,
              legacy_ref.leaks[i].third_party_host);
    EXPECT_EQ(indexed_ref.leaks[i].requests, legacy_ref.leaks[i].requests);
    EXPECT_EQ(indexed_ref.leaks[i].distinct_sites,
              legacy_ref.leaks[i].distinct_sites);
  }

  NaiveSplitter splitter(f.site_hosts);
  auto legacy_split = oracle::EvaluateSplit(splitter, *f.result.engine_flows,
                                            *f.result.native_flows);
  auto indexed_split =
      splitter.Evaluate(*f.result.engine_index, *f.result.native_index);
  EXPECT_EQ(indexed_split.total, legacy_split.total);
  EXPECT_EQ(indexed_split.correct, legacy_split.correct);
  EXPECT_EQ(indexed_split.native_as_engine, legacy_split.native_as_engine);
  EXPECT_EQ(indexed_split.engine_as_native, legacy_split.engine_as_native);
  EXPECT_DOUBLE_EQ(indexed_split.accuracy, legacy_split.accuracy);
}

// A size mismatch means the caller paired an index with the wrong
// store; analyzers that read store data by flow id must refuse it
// instead of reading the wrong flows or indexing out of bounds.
TEST(FlowIndexAnalyzers, MismatchedIndexIsRejected) {
  const auto& f = Crawl();
  FlowIndex empty_index;
  HistoryLeakDetector detector(f.visited);
  EXPECT_THROW(detector.Scan(*f.result.native_flows, empty_index),
               std::invalid_argument);
  // An index over the other store of the same crawl mismatches too.
  EXPECT_THROW(
      detector.Scan(*f.result.native_flows, *f.result.engine_index, true),
      std::invalid_argument);
  EXPECT_THROW(AnalyzeRefererLeakage(*f.result.engine_flows, empty_index),
               std::invalid_argument);
}

}  // namespace
}  // namespace panoptes::analysis
