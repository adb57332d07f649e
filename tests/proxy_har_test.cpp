#include "proxy/har.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/json.h"

namespace panoptes::proxy {
namespace {

Flow SampleFlow(uint64_t id) {
  Flow flow;
  flow.id = id;
  flow.time = util::SimTime{1683849600000LL + static_cast<int64_t>(id)};
  flow.browser = "Yandex";
  flow.app_uid = 10053;
  flow.method = net::HttpMethod::kPost;
  flow.url = net::Url::MustParse(
      "https://sba.yandex.net/report?url=aHR0cHM6Ly94Lm9yZy8");
  flow.request_headers.Add("User-Agent", "YaBrowser/23");
  flow.request_headers.Add("Content-Type", "application/json");
  flow.request_body = "{\"k\":1}";
  flow.response_status = 204;
  flow.request_bytes = 321;
  flow.response_bytes = 42;
  flow.server_ip = net::IpAddress(77, 88, 0, 3);
  flow.origin = TrafficOrigin::kNative;
  return flow;
}

TEST(Har, ExportShape) {
  FlowStore store;
  store.Add(SampleFlow(1));
  std::string har = ExportHar(store, "unit test");

  auto json = util::Json::Parse(har);
  ASSERT_TRUE(json.has_value());
  const auto* log = json->Find("log");
  ASSERT_NE(log, nullptr);
  EXPECT_EQ(log->Find("version")->as_string(), "1.2");
  EXPECT_EQ(log->Find("creator")->Find("comment")->as_string(), "unit test");
  const auto& entries = log->Find("entries")->as_array();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].Find("request")->Find("method")->as_string(), "POST");
  EXPECT_EQ(entries[0].Find("_origin")->as_string(), "native");
  EXPECT_EQ(entries[0].Find("_browser")->as_string(), "Yandex");
  EXPECT_EQ(entries[0].Find("startedDateTime")->as_string(),
            "2023-05-12T00:00:00.001Z");
}

TEST(Har, RoundTripPreservesEverything) {
  FlowStore store;
  store.Add(SampleFlow(1));
  Flow engine = SampleFlow(2);
  engine.origin = TrafficOrigin::kEngine;
  engine.taint = "cdp-abcdef";
  engine.request_body.clear();
  store.Add(engine);

  auto imported = ImportHar(ExportHar(store));
  ASSERT_TRUE(imported.has_value());
  ASSERT_EQ(imported->size(), 2u);

  const FlowView& a = imported->flows()[0];
  EXPECT_EQ(a.id, 1u);
  EXPECT_EQ(a.browser, "Yandex");
  EXPECT_EQ(a.app_uid, 10053);
  EXPECT_EQ(a.method, net::HttpMethod::kPost);
  EXPECT_EQ(a.url.Serialize(),
            "https://sba.yandex.net/report?url=aHR0cHM6Ly94Lm9yZy8");
  EXPECT_EQ(a.request_headers.Get("User-Agent"), "YaBrowser/23");
  EXPECT_EQ(a.request_body, "{\"k\":1}");
  EXPECT_EQ(a.response_status, 204);
  EXPECT_EQ(a.request_bytes, 321u);
  EXPECT_EQ(a.response_bytes, 42u);
  EXPECT_EQ(a.server_ip.ToString(), "77.88.0.3");
  EXPECT_EQ(a.origin, TrafficOrigin::kNative);
  EXPECT_EQ(a.time.millis, 1683849600001LL);

  const FlowView& b = imported->flows()[1];
  EXPECT_EQ(b.origin, TrafficOrigin::kEngine);
  EXPECT_EQ(b.taint, "cdp-abcdef");

  // Aggregates match after the round trip.
  EXPECT_EQ(imported->RequestBytes(), store.RequestBytes());
  EXPECT_EQ(imported->DistinctHosts(), store.DistinctHosts());
}

TEST(Har, EmptyStore) {
  FlowStore store;
  auto imported = ImportHar(ExportHar(store));
  ASSERT_TRUE(imported.has_value());
  EXPECT_TRUE(imported->empty());
}

TEST(Har, ImportRejectsGarbage) {
  EXPECT_FALSE(ImportHar("").has_value());
  EXPECT_FALSE(ImportHar("not json").has_value());
  EXPECT_FALSE(ImportHar("{}").has_value());
  EXPECT_FALSE(ImportHar("{\"log\":{}}").has_value());
  EXPECT_FALSE(
      ImportHar("{\"log\":{\"entries\":[{\"request\":{}}]}}").has_value());
  EXPECT_FALSE(
      ImportHar(
          R"({"log":{"entries":[{"request":{"url":"::bad::"},"response":{}}]}})")
          .has_value());
}

// A numeric field that is no integer in its range is read as missing,
// not cast: the entry imports with that field's default.
TEST(Har, ImportTreatsOutOfRangeNumbersAsMissing) {
  auto store = ImportHar(
      R"({"log":{"entries":[{"request":{"url":"https://a.example/"},)"
      R"("response":{"status":1e300,"bodySize":-1},)"
      R"("_id":2.5,"_appUid":1e300,"_timeMillis":-1e300}]}})");
  ASSERT_TRUE(store.has_value());
  ASSERT_EQ(store->size(), 1u);
  const FlowView& flow = store->flow(0);
  EXPECT_EQ(flow.response_status, 0);
  EXPECT_EQ(flow.response_bytes, 0u);
  EXPECT_EQ(flow.id, 0u);
  EXPECT_EQ(flow.app_uid, -1);
  EXPECT_EQ(flow.time.millis, 0);
}

// The 64-bit fields round-trip exactly or are refused: export throws on
// a value a JSON number cannot hold, and import reads a number from 2^53
// on as missing, because it may have been another integer when written.
TEST(Har, SixtyFourBitFieldsRoundTripExactlyOrAreRejected) {
  constexpr uint64_t kTwo53 = uint64_t{1} << 53;
  for (uint64_t value : {uint64_t{0}, kTwo53 - 1}) {
    SCOPED_TRACE(value);
    FlowStore store;
    Flow flow = SampleFlow(1);
    flow.id = value;
    flow.request_bytes = value;
    store.Add(flow);
    auto imported = ImportHar(ExportHar(store));
    ASSERT_TRUE(imported.has_value());
    ASSERT_EQ(imported->size(), 1u);
    EXPECT_EQ(imported->flow(0).id, value);
    EXPECT_EQ(imported->flow(0).request_bytes, value);
  }
  for (uint64_t value :
       {kTwo53, kTwo53 + 1, uint64_t{1} << 63, ~uint64_t{0}}) {
    SCOPED_TRACE(value);
    for (bool id : {true, false}) {
      FlowStore store;
      Flow flow = SampleFlow(1);
      (id ? flow.id : flow.request_bytes) = value;
      store.Add(flow);
      EXPECT_THROW(ExportHar(store), std::invalid_argument);
    }
  }
  auto store = ImportHar(
      R"({"log":{"entries":[{"request":{"url":"https://a.example/"},)"
      R"("response":{},"_id":9007199254740992,)"
      R"("_requestBytes":18446744073709551615}]}})");
  ASSERT_TRUE(store.has_value());
  ASSERT_EQ(store->size(), 1u);
  EXPECT_EQ(store->flow(0).id, 0u);
  EXPECT_EQ(store->flow(0).request_bytes, 0u);
}

}  // namespace
}  // namespace panoptes::proxy
