// Property tests for the arena-backed FlowStore (snapshot payload).
//
// The arena rewrite makes promises that plain unit tests of the query
// API cannot falsify: (1) Serialize → Deserialize → Append is a
// verbatim round trip, flow for flow, against owning deep copies taken
// before the store was touched; (2) Append adopts its source's arena
// chunks, so moved views outlive the source store, and a store cannot
// consume itself; (3) TruncateTo discards records without freeing
// payload bytes, keeping stored − rolled_back == final size AND keeping
// previously handed-out views readable. Every view dereference here runs under
// the CI ASan job, so a dangling string_view into a moved/freed arena
// chunk is a hard failure, not a silent flake.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/telemetry.h"
#include "proxy/flowstore.h"
#include "util/binio.h"

namespace panoptes::proxy {
namespace {

Flow MakeFlow(uint64_t id, const std::string& url) {
  Flow flow;
  flow.id = id;
  flow.time.millis = 1000 + id;
  flow.url = net::Url::MustParse(url);
  flow.browser = (id % 2 == 0) ? "Yandex" : "Opera";
  flow.request_headers.Add("User-Agent", "panoptes/" + std::to_string(id));
  flow.request_headers.Add("X-Probe", std::string(32 + id % 64, 'p'));
  flow.request_body = "body-" + std::to_string(id) + "-" +
                      std::string(id % 128, 'b');
  flow.request_bytes = 100 + id;
  flow.response_bytes = 200 + id;
  flow.response_status = 200;
  flow.taint = (id % 3 == 0) ? "engine-inject" : "";
  return flow;
}

void ExpectViewEqualsFlow(const FlowView& view, const Flow& expected) {
  EXPECT_EQ(view.id, expected.id);
  EXPECT_EQ(view.time.millis, expected.time.millis);
  EXPECT_EQ(view.browser, expected.browser);
  EXPECT_EQ(view.url.Serialize(), expected.url.Serialize());
  EXPECT_EQ(view.request_body, expected.request_body);
  EXPECT_EQ(view.request_bytes, expected.request_bytes);
  EXPECT_EQ(view.response_bytes, expected.response_bytes);
  EXPECT_EQ(view.taint, expected.taint);
  ASSERT_EQ(view.request_headers.size(), expected.request_headers.size());
  auto entries = view.request_headers.entries();
  for (size_t h = 0; h < entries.size(); ++h) {
    EXPECT_EQ(entries[h].name, expected.request_headers.entries()[h].first);
    EXPECT_EQ(entries[h].value, expected.request_headers.entries()[h].second);
  }
}

// Serialize → Deserialize → Append must reproduce the original flows
// verbatim, compared against owning deep copies (Materialize) taken
// before any of the three steps ran — so the comparison cannot be
// fooled by two stores aliasing the same (possibly wrong) arena bytes.
TEST(FlowStoreArena, SerializeDeserializeAppendRoundTripsDeepCopies) {
  FlowStore original;
  for (uint64_t i = 0; i < 64; ++i) {
    original.Add(MakeFlow(i, "https://h" + std::to_string(i % 7) +
                                 ".example.com/p/" + std::to_string(i) +
                                 "?id=" + std::to_string(i * 31)));
  }
  std::vector<Flow> expected;
  for (const FlowView& view : original.flows()) {
    expected.push_back(view.Materialize());
  }

  util::BinWriter out;
  original.SerializeTo(out);
  std::string bytes = out.Take();

  util::BinReader in(bytes);
  auto decoded = FlowStore::Deserialize(in);
  ASSERT_NE(decoded, nullptr);
  ASSERT_EQ(decoded->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ExpectViewEqualsFlow(decoded->flows()[i], expected[i]);
  }

  // The decoded store's views live in ITS arena: appending it onto a
  // fresh store hands those chunks over, so they outlive the decoded
  // store object.
  FlowStore merged;
  merged.Append(std::move(*decoded));
  decoded.reset();
  ASSERT_EQ(merged.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ExpectViewEqualsFlow(merged.flows()[i], expected[i]);
  }

  // And the round trip is byte-stable: re-serializing the merged store
  // yields the exact original encoding.
  util::BinWriter again;
  merged.SerializeTo(again);
  EXPECT_EQ(again.Take(), bytes);
}

// A store cannot consume itself: self-append throws and leaves every
// record, and every view taken before the call, reading the original
// bytes.
TEST(FlowStoreArena, SelfAppendIsRejectedAndPreservesViews) {
  FlowStore store;
  for (uint64_t i = 0; i < 50; ++i) {
    store.Add(MakeFlow(i, "https://dup.example.com/" + std::to_string(i)));
  }
  std::vector<FlowView> before(store.flows().begin(), store.flows().end());
  std::vector<Flow> expected;
  for (const FlowView& view : before) expected.push_back(view.Materialize());

  EXPECT_THROW(store.Append(std::move(store)), std::invalid_argument);
  ASSERT_EQ(store.size(), 50u);
  for (size_t i = 0; i < 50; ++i) {
    ExpectViewEqualsFlow(store.flows()[i], expected[i]);
    ExpectViewEqualsFlow(before[i], expected[i]);
  }
}

// Append moves the source's chunks instead of copying bytes: views
// taken from the source, and the appended records, read back after the
// source store is destroyed. The source is left empty and takes new
// flows into an arena of its own.
TEST(FlowStoreArena, AppendAdoptsChunksAndOutlivesItsSource) {
  FlowStore into;
  for (uint64_t i = 0; i < 20; ++i) {
    into.Add(MakeFlow(i, "https://into.example.com/" + std::to_string(i)));
  }
  auto source = std::make_unique<FlowStore>();
  for (uint64_t i = 20; i < 120; ++i) {
    Flow flow = MakeFlow(i, "https://h" + std::to_string(i % 5) +
                                ".example.com/" + std::to_string(i));
    flow.request_body = std::string(2048, static_cast<char>('a' + i % 26));
    source->Add(flow);
  }
  std::vector<FlowView> source_views(source->flows().begin(),
                                     source->flows().end());
  std::vector<Flow> expected;
  for (const FlowView& view : into.flows()) {
    expected.push_back(view.Materialize());
  }
  for (const FlowView& view : source_views) {
    expected.push_back(view.Materialize());
  }

  into.Append(std::move(*source));
  EXPECT_TRUE(source->empty());
  EXPECT_TRUE(source->hosts().empty());
  // The emptied source still works, and what it stores now is its own.
  source->Add(MakeFlow(500, "https://after.example.com/x"));
  ASSERT_EQ(source->size(), 1u);
  ExpectViewEqualsFlow(source->flow(0),
                       MakeFlow(500, "https://after.example.com/x"));
  source.reset();

  ASSERT_EQ(into.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ExpectViewEqualsFlow(into.flow(i), expected[i]);
  }
  for (size_t i = 0; i < source_views.size(); ++i) {
    ExpectViewEqualsFlow(source_views[i], expected[20 + i]);
  }
  // Host ids index the destination's pool, which carries each source
  // host once, with its registrable domain.
  ASSERT_EQ(into.hosts().size(), 6u);
  for (const FlowView& view : into.flows()) {
    EXPECT_EQ(into.hosts()[view.host_id].host, view.Host());
  }
  EXPECT_EQ(into.hosts()[1].domain, "example.com");
  EXPECT_EQ(into.DistinctDomains(), std::set<std::string>{"example.com"});
}

// TruncateTo must keep the metric reconciliation invariant
// stored − rolled_back == final size in the store's telemetry scope, and
// must not free the payload bytes of discarded flows: views handed out
// before the rollback stay readable (ASan would catch the use-after-free
// otherwise).
TEST(FlowStoreArena, TruncateToReconcilesMetricsAndKeepsViewsAlive) {
  obs::JobTelemetry telemetry;
  FlowStore store;
  store.SetTelemetry(&telemetry);
  for (uint64_t i = 0; i < 30; ++i) {
    store.Add(MakeFlow(i, "https://trunc.example.com/" + std::to_string(i)));
  }
  // Views into the soon-to-be-discarded tail.
  FlowView doomed = store.flow(25);
  Flow doomed_copy = doomed.Materialize();

  store.TruncateTo(10);
  ASSERT_EQ(store.size(), 10u);
  EXPECT_EQ(telemetry.flows_stored, 30u);
  EXPECT_EQ(telemetry.flows_rolled_back, 20u);
  EXPECT_EQ(telemetry.flows_stored - telemetry.flows_rolled_back,
            store.size());

  // The discarded flow's bytes are still alive in the arena.
  ExpectViewEqualsFlow(doomed, doomed_copy);

  // A second rollback on top composes; truncating to a larger size is
  // a no-op and counts nothing.
  store.TruncateTo(10);
  EXPECT_EQ(telemetry.flows_rolled_back, 20u);
  store.TruncateTo(4);
  EXPECT_EQ(telemetry.flows_rolled_back, 26u);
  EXPECT_EQ(telemetry.flows_stored - telemetry.flows_rolled_back,
            store.size());

  // Serialization writes only live flows: a truncated store encodes
  // exactly like one that never held the discarded records.
  FlowStore fresh;
  for (uint64_t i = 0; i < 4; ++i) {
    fresh.Add(MakeFlow(i, "https://trunc.example.com/" + std::to_string(i)));
  }
  util::BinWriter truncated_out;
  store.SerializeTo(truncated_out);
  util::BinWriter fresh_out;
  fresh.SerializeTo(fresh_out);
  EXPECT_EQ(truncated_out.Take(), fresh_out.Take());
}

// Views taken early never dangle across arena growth: force many chunk
// allocations with large payloads after capturing views, then read the
// early views back. Growth appends chunks — it never moves or frees
// the bytes earlier views point into.
TEST(FlowStoreArena, ViewsSurviveArenaGrowthAndStoreMove) {
  FlowStore store;
  store.Add(MakeFlow(0, "https://first.example.com/pinned?k=v"));
  FlowView first = store.flow(0);
  Flow first_copy = first.Materialize();

  // ~4 MiB of payload across many flows — far past any initial chunk.
  for (uint64_t i = 1; i <= 256; ++i) {
    Flow big = MakeFlow(i, "https://grow.example.com/" + std::to_string(i));
    big.request_body = std::string(16 * 1024, static_cast<char>('a' + i % 26));
    store.Add(big);
  }
  ExpectViewEqualsFlow(first, first_copy);
  ExpectViewEqualsFlow(store.flow(0), first_copy);

  // Moving the store moves its arena chunks; every view stays valid.
  FlowStore moved = std::move(store);
  ExpectViewEqualsFlow(first, first_copy);
  ExpectViewEqualsFlow(moved.flow(0), first_copy);
  ASSERT_EQ(moved.size(), 257u);
  EXPECT_EQ(moved.flow(256).request_body.size(), 16u * 1024);
}

// Pre-v4 store encodings are gone: the v2 per-flow layout (leading
// Bool(compact)) and the 0xF3 tag only ever appeared inside snapshots
// older than the minimum readable schema. Each stream below is
// well-formed in its own format — one flow to https://a.example/x —
// and must now be rejected rather than decoded.
TEST(FlowStoreSerialize, PreV4EncodingsAreRejected) {
  const std::string url = "https://a.example/x";

  util::BinWriter v2;
  v2.U8(0);        // Bool(compact): the v2 stream's first byte
  v2.U64(0);       // dropped writes
  v2.U32(1);       // flow count
  v2.U64(7);       // id
  v2.I64(1000);    // time
  v2.Str("Yandex");
  v2.I64(10123);   // app uid
  v2.U8(0);        // method
  v2.Str(url);
  v2.U32(1);       // one header
  v2.Str("User-Agent");
  v2.Str("panoptes");
  v2.Str("");      // body
  v2.I64(200);     // status
  v2.U64(120);     // request bytes
  v2.U64(60);      // response bytes
  v2.U32(0x01020304);
  v2.U8(0);        // http version
  v2.U8(2);        // origin
  v2.Str("");      // taint
  v2.Bool(false);  // blocked
  v2.Str("");      // blocked_by
  v2.Bool(false);  // fault injected

  util::BinWriter v3;
  v3.U8(0xF3);
  v3.Bool(false);  // compact
  v3.U64(0);       // dropped writes
  v3.U32(2);       // label pool: browser, blocked_by
  v3.Str("Yandex");
  v3.Str("");
  v3.U32(1);       // header-name pool
  v3.Str("User-Agent");
  v3.U32(1);       // record count
  const std::string blob = url + "panoptes";
  v3.U64(blob.size());
  v3.Raw(blob);
  v3.U64(7);       // id (v3 records carry no uid)
  v3.I64(1000);    // time
  v3.U32(0);       // browser label id
  v3.I64(10123);   // app uid
  v3.U8(0);        // method
  v3.U32(static_cast<uint32_t>(url.size()));
  v3.U32(1);       // one header
  v3.U32(0);       // name id
  v3.U32(8);       // value length
  v3.U32(0);       // body length
  v3.I64(200);     // status
  v3.U64(120);     // request bytes
  v3.U64(60);      // response bytes
  v3.U32(0x01020304);
  v3.U8(0);        // http version
  v3.U8(2);        // origin
  v3.U32(0);       // taint length
  v3.Bool(false);  // blocked
  v3.U32(1);       // blocked_by label id
  v3.Bool(false);  // fault injected

  for (const std::string& bytes : {v2.Take(), v3.Take()}) {
    util::BinReader in(bytes);
    EXPECT_EQ(FlowStore::Deserialize(in), nullptr)
        << "leading byte " << static_cast<int>(bytes[0] & 0xFF);
  }
}

}  // namespace
}  // namespace panoptes::proxy
