// Streaming ingest (core/stream_buffer.h): the bounded-memory FlowSink
// the campaigns push into. Contracts pinned here:
//   1. the incremental FlowIndex (AddFlow / MakeCheckpoint / RewindTo)
//      serializes byte-identically to the post-hoc batch Build — with
//      rollbacks, against an oracle index that never saw the discarded
//      flows;
//   2. a budgeted, spilling StreamBuffer materializes a (store, index)
//      pair byte-identical to an unbounded capture of the same flows,
//      and fleet reports are byte-identical at any budget, any worker
//      count, spill on or off;
//   3. robustness is fail-soft and accounted: shedding under-reports
//      but never fabricates, spill write faults keep flows in memory,
//      a truncated segment salvages its valid prefix and quarantines
//      the rest, and the per-job watchdog cancels wedged campaigns into
//      the retry/quarantine path;
//   4. snapshot schema v5 round-trips the new IngestStats and watchdog
//      accounting.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/export.h"
#include "analysis/flow_index.h"
#include "browser/profiles.h"
#include "chaos/injector.h"
#include "chaos/profile.h"
#include "core/campaign.h"
#include "core/fleet.h"
#include "core/framework.h"
#include "core/run_manifest.h"
#include "core/snapshot.h"
#include "core/stream_buffer.h"
#include "obs/journal.h"
#include "util/binio.h"
#include "web/world.h"

namespace panoptes::core {
namespace {

proxy::Flow MakeFlow(std::string_view url, int64_t millis, int uid) {
  proxy::Flow flow;
  flow.url = net::Url::MustParse(url);
  flow.time.millis = millis;
  flow.app_uid = uid;
  flow.request_bytes = 100 + url.size();
  flow.response_bytes = 60;
  return flow;
}

// A varied flow sequence: several hosts, distinct paths, query params.
std::vector<proxy::Flow> SampleFlows(int count) {
  std::vector<proxy::Flow> flows;
  flows.reserve(count);
  for (int i = 0; i < count; ++i) {
    flows.push_back(
        MakeFlow("https://host" + std::to_string(i % 7) +
                     ".example.com/path/" + std::to_string(i) +
                     "?q=" + std::to_string(i * 31) + "&s=tok" +
                     std::to_string(i % 5),
                 1'000 + i * 400, 10 + (i % 3)));
  }
  return flows;
}

std::string StoreBytes(const proxy::FlowStore& store) {
  util::BinWriter out;
  store.SerializeTo(out);
  return out.Take();
}

std::string IndexBytes(const analysis::FlowIndex& index) {
  util::BinWriter out;
  index.SerializeTo(out);
  return out.Take();
}

// Per-test scratch directory under the gtest temp root.
std::filesystem::path ScratchDir(const std::string& name) {
  std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / ("panoptes_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

size_t CountSpillFiles(const std::filesystem::path& dir,
                       std::string_view extension = ".panospill") {
  size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == extension) ++count;
  }
  return count;
}

TEST(StreamIndex, IncrementalMatchesBatchBuild) {
  proxy::FlowStore store;
  store.SetProvenance(proxy::MakeProvenanceTag(42, 1));
  analysis::FlowIndex incremental;
  analysis::FlowIndex::Cursor cursor;
  for (auto& flow : SampleFlows(40)) {
    store.Add(std::move(flow));
    incremental.AddFlow(store, store.size() - 1, cursor);
  }
  EXPECT_EQ(IndexBytes(incremental),
            IndexBytes(analysis::FlowIndex::Build(store)));
}

// Satellite: rolling back a failed visit rewinds the incremental index
// to byte-equality with an oracle that never saw the discarded flows —
// and the rewound stream keeps building correctly afterwards.
TEST(StreamIndex, RewindMatchesNeverIndexedOracle) {
  auto flows = SampleFlows(30);
  proxy::FlowStore store;
  analysis::FlowIndex index;
  analysis::FlowIndex::Cursor cursor;
  for (int i = 0; i < 12; ++i) {
    store.Add(flows[i]);
    index.AddFlow(store, store.size() - 1, cursor);
  }
  const analysis::FlowIndex::Checkpoint checkpoint = index.MakeCheckpoint();
  const size_t mark = store.size();
  // A failed attempt: new hosts, new paths, new params — all of which
  // intern fresh table entries that the rewind must discard.
  for (int i = 12; i < 24; ++i) {
    store.Add(flows[i]);
    index.AddFlow(store, store.size() - 1, cursor);
  }
  store.TruncateTo(mark);
  index.RewindTo(checkpoint, &cursor);

  proxy::FlowStore oracle;
  for (int i = 0; i < 12; ++i) oracle.Add(flows[i]);
  EXPECT_EQ(IndexBytes(index), IndexBytes(analysis::FlowIndex::Build(oracle)));

  // The retry then lands different flows; the stream must continue as
  // if the rolled-back attempt never happened.
  for (int i = 24; i < 30; ++i) {
    store.Add(flows[i]);
    index.AddFlow(store, store.size() - 1, cursor);
  }
  EXPECT_EQ(IndexBytes(index), IndexBytes(analysis::FlowIndex::Build(store)));
}

TEST(StreamBuffer, UnboundedMatchesPlainStore) {
  auto flows = SampleFlows(25);
  StreamBuffer::Config config;
  config.provenance_tag = proxy::MakeProvenanceTag(7, 1);
  StreamBuffer buffer(config);
  for (const auto& flow : flows) EXPECT_TRUE(buffer.Push(flow));
  EXPECT_EQ(buffer.FlowCount(), flows.size());
  EXPECT_EQ(buffer.stats().spill_segments, 0u);
  EXPECT_EQ(buffer.stats().backpressure_stalls, 0u);

  auto out = buffer.Materialize();
  ASSERT_NE(out.store, nullptr);
  EXPECT_FALSE(out.salvaged);
  proxy::FlowStore batch;
  batch.SetProvenance(config.provenance_tag);
  for (const auto& flow : flows) batch.Add(flow);
  EXPECT_EQ(StoreBytes(*out.store), StoreBytes(batch));
  EXPECT_EQ(IndexBytes(out.index),
            IndexBytes(analysis::FlowIndex::Build(batch)));
}

TEST(StreamBuffer, SpillRoundTripMatchesUnbounded) {
  const auto dir = ScratchDir("spill_roundtrip");
  auto flows = SampleFlows(80);
  StreamBuffer::Config config;
  config.provenance_tag = proxy::MakeProvenanceTag(11, 1);
  config.seed = 11;
  config.stream.memory_budget_bytes = 4096;
  config.stream.spill_dir = dir.string();
  StreamBuffer buffer(config);
  for (const auto& flow : flows) EXPECT_TRUE(buffer.Push(flow));
  EXPECT_GE(buffer.stats().spill_segments, 2u);
  EXPECT_EQ(buffer.stats().flows_shed, 0u);
  // Peak live memory is bounded by the budget plus at most one flow's
  // footprint (spill happens on the push that finds the store full).
  EXPECT_LT(buffer.stats().peak_live_bytes,
            2 * config.stream.memory_budget_bytes);

  auto out = buffer.Materialize();
  EXPECT_FALSE(out.salvaged);
  proxy::FlowStore batch;
  batch.SetProvenance(config.provenance_tag);
  for (const auto& flow : flows) batch.Add(flow);
  EXPECT_EQ(StoreBytes(*out.store), StoreBytes(batch));
  EXPECT_EQ(IndexBytes(out.index),
            IndexBytes(analysis::FlowIndex::Build(batch)));
  // Consumed segments are deleted; nothing is left behind.
  EXPECT_EQ(CountSpillFiles(dir), 0u);
}

TEST(StreamBuffer, RollbackSpansStoreAndIndexAcrossSpills) {
  const auto dir = ScratchDir("spill_rollback");
  auto flows = SampleFlows(60);
  StreamBuffer::Config config;
  config.provenance_tag = proxy::MakeProvenanceTag(13, 0);
  config.stream.memory_budget_bytes = 4096;
  config.stream.spill_dir = dir.string();
  StreamBuffer buffer(config);
  for (int i = 0; i < 40; ++i) buffer.Push(flows[i]);

  // A failed attempt inside a transaction: spilling is deferred while
  // it is open, so the rollback finds every attempt flow still live.
  buffer.BeginTransaction();
  for (int i = 40; i < 50; ++i) buffer.Push(flows[i]);
  buffer.RollbackTransaction();
  for (int i = 50; i < 60; ++i) buffer.Push(flows[i]);
  buffer.CommitTransaction();

  auto out = buffer.Materialize();
  EXPECT_FALSE(out.salvaged);
  proxy::FlowStore batch;
  batch.SetProvenance(config.provenance_tag);
  for (int i = 0; i < 40; ++i) batch.Add(flows[i]);
  for (int i = 50; i < 60; ++i) batch.Add(flows[i]);
  EXPECT_EQ(StoreBytes(*out.store), StoreBytes(batch));
  EXPECT_EQ(IndexBytes(out.index),
            IndexBytes(analysis::FlowIndex::Build(batch)));
}

TEST(StreamBuffer, ShedsDeterministicallyAndNeverFabricates) {
  auto flows = SampleFlows(100);
  StreamBuffer::Config config;
  config.seed = 99;
  config.stream.memory_budget_bytes = 4096;  // no spill dir: must shed
  config.stream.shed_when_full = true;

  auto run = [&]() {
    StreamBuffer buffer(config);
    uint64_t accepted = 0;
    for (const auto& flow : flows) accepted += buffer.Push(flow) ? 1 : 0;
    IngestStats stats = buffer.stats();
    auto out = buffer.Materialize();
    EXPECT_EQ(out.store->size(), accepted);
    EXPECT_EQ(stats.flows_pushed, accepted);
    EXPECT_EQ(stats.flows_pushed + stats.flows_shed, flows.size());
    EXPECT_TRUE(stats.Degraded());
    return StoreBytes(*out.store);
  };
  std::string first = run();
  EXPECT_GT(first.size(), 0u);
  // Same seed ⇒ the same sample survives, byte for byte.
  EXPECT_EQ(first, run());

  // A shed run under-reports but never fabricates: every stored flow is
  // one of the pushed flows (sampled subsequence, order preserved).
  StreamBuffer buffer(config);
  for (const auto& flow : flows) buffer.Push(flow);
  auto out = buffer.Materialize();
  ASSERT_LT(out.store->size(), flows.size());
  size_t next = 0;
  for (const auto& stored : out.store->flows()) {
    while (next < flows.size() &&
           flows[next].url.Serialize() != stored.url.text()) {
      ++next;
    }
    ASSERT_LT(next, flows.size()) << "stored flow not among pushed flows";
    ++next;
  }
}

TEST(StreamBuffer, StallsButStoresWhenShedDisabled) {
  auto flows = SampleFlows(50);
  StreamBuffer::Config config;
  config.stream.memory_budget_bytes = 2048;  // over budget, no spill
  StreamBuffer buffer(config);
  for (const auto& flow : flows) EXPECT_TRUE(buffer.Push(flow));
  // The budget degrades to advisory: everything is stored (reports stay
  // byte-identical to batch) and the pressure is counted.
  EXPECT_EQ(buffer.FlowCount(), flows.size());
  EXPECT_GT(buffer.stats().backpressure_stalls, 0u);
  EXPECT_FALSE(buffer.stats().Degraded());
}

TEST(StreamBuffer, SpillWriteFaultFailsSoft) {
  const auto dir = ScratchDir("spill_fault");
  chaos::FaultProfile profile;
  profile.name = "spill-io-always";
  profile.spill_io_p = 1.0;
  chaos::Injector injector(5, profile);

  auto flows = SampleFlows(60);
  StreamBuffer::Config config;
  config.provenance_tag = proxy::MakeProvenanceTag(5, 1);
  config.stream.memory_budget_bytes = 4096;
  config.stream.spill_dir = dir.string();
  config.chaos = &injector;
  StreamBuffer buffer(config);
  for (const auto& flow : flows) EXPECT_TRUE(buffer.Push(flow));
  // Every spill attempt failed; flows stayed in memory, nothing lost.
  EXPECT_EQ(buffer.stats().spill_segments, 0u);
  EXPECT_GT(buffer.stats().spill_failures, 0u);
  EXPECT_EQ(CountSpillFiles(dir), 0u);

  auto out = buffer.Materialize();
  EXPECT_FALSE(out.salvaged);
  proxy::FlowStore batch;
  batch.SetProvenance(config.provenance_tag);
  for (const auto& flow : flows) batch.Add(flow);
  EXPECT_EQ(StoreBytes(*out.store), StoreBytes(batch));
  EXPECT_GT(injector.CountFor(chaos::FaultKind::kSpillIo), 0u);
}

TEST(StreamBuffer, TruncatedSegmentSalvagesPrefixAndQuarantines) {
  const auto dir = ScratchDir("spill_salvage");
  auto flows = SampleFlows(90);
  StreamBuffer::Config config;
  config.provenance_tag = proxy::MakeProvenanceTag(21, 1);
  config.stream.memory_budget_bytes = 4096;
  config.stream.spill_dir = dir.string();
  obs::Journal journal;
  config.journal = &journal;
  StreamBuffer buffer(config);
  for (const auto& flow : flows) buffer.Push(flow);
  ASSERT_GE(buffer.stats().spill_segments, 2u);

  // Chop the second segment mid-file: segment 0 must survive, segment 1
  // and everything after it (later segments, live flows) is lost.
  std::filesystem::path victim;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().find("-1.panospill") !=
        std::string::npos) {
      victim = entry.path();
    }
  }
  ASSERT_FALSE(victim.empty());
  std::filesystem::resize_file(victim,
                               std::filesystem::file_size(victim) / 2);

  auto out = buffer.Materialize();
  EXPECT_TRUE(out.salvaged);
  EXPECT_GT(buffer.stats().segments_quarantined, 0u);
  EXPECT_GT(buffer.stats().flows_lost, 0u);
  EXPECT_TRUE(buffer.stats().Degraded());
  EXPECT_GT(CountSpillFiles(dir, ".quarantined"), 0u);

  // The salvaged store is exactly the first segment's flows — a valid
  // prefix of the capture, never a fabrication.
  ASSERT_GT(out.store->size(), 0u);
  ASSERT_LT(out.store->size(), flows.size());
  proxy::FlowStore oracle;
  oracle.SetProvenance(config.provenance_tag);
  for (size_t i = 0; i < out.store->size(); ++i) oracle.Add(flows[i]);
  EXPECT_EQ(StoreBytes(*out.store), StoreBytes(oracle));
  EXPECT_EQ(IndexBytes(out.index),
            IndexBytes(analysis::FlowIndex::Build(oracle)));

  bool journaled = false;
  for (const auto& event : journal.events()) {
    if (event.kind == "segment_quarantine") journaled = true;
  }
  EXPECT_TRUE(journaled);
}

// --- Campaign / fleet differentials -------------------------------

FleetOptions TinyFleet(int jobs) {
  FleetOptions options;
  options.jobs = jobs;
  options.framework.catalog.popular_count = 4;
  options.framework.catalog.sensitive_count = 2;
  return options;
}

std::vector<browser::BrowserSpec> Browsers(
    std::initializer_list<std::string_view> names) {
  std::vector<browser::BrowserSpec> specs;
  for (auto name : names) specs.push_back(*browser::FindSpec(name));
  return specs;
}

std::string ReportFor(uint64_t budget, const std::string& spill_dir,
                      int jobs, const chaos::FaultProfile* chaos = nullptr) {
  FleetOptions options = TinyFleet(jobs);
  if (chaos != nullptr) {
    options.framework.chaos = *chaos;
    options.max_job_retries = 1;
  }
  CrawlOptions crawl;
  crawl.retry.max_retries = chaos != nullptr ? 1 : 0;
  crawl.stream.memory_budget_bytes = budget;
  crawl.stream.spill_dir = spill_dir;
  IdleOptions idle;
  idle.duration = util::Duration::Minutes(1);
  idle.stream = crawl.stream;
  auto jobs_list = FleetExecutor::PlanCampaign(
      Browsers({"Yandex", "Opera"}),
      {CampaignKind::kCrawl, CampaignKind::kIdle}, 2, crawl, idle);
  FleetExecutor executor(options);
  auto merged = FleetExecutor::MergeShards(executor.Run(jobs_list));
  return analysis::FleetReportJson(merged);
}

// The acceptance-criteria differential: byte-identical exported reports
// across memory budgets {tiny, medium, unlimited} × jobs {1, 8} × spill
// on/off. A tiny budget forces many spill cycles; without a spill dir
// it exercises the stall-and-store path instead.
TEST(StreamDifferential, ReportsByteIdenticalAcrossBudgetsJobsSpill) {
  const auto dir = ScratchDir("fleet_spill");
  const std::string spill = dir.string();
  const std::string baseline = ReportFor(0, "", 1);
  ASSERT_GT(baseline.size(), 2u);
  EXPECT_EQ(baseline, ReportFor(0, "", 8));
  EXPECT_EQ(baseline, ReportFor(65536, spill, 1));
  EXPECT_EQ(baseline, ReportFor(65536, spill, 8));
  EXPECT_EQ(baseline, ReportFor(4 << 20, spill, 8));
  EXPECT_EQ(baseline, ReportFor(65536, "", 1));  // backpressure path
}

// Chaos on top: with visit retries rolling transactions back across
// the streaming buffers, reports must still be byte-identical at any
// budget and worker count.
TEST(StreamDifferential, ChaoticRunsIdenticalAcrossBudgets) {
  const auto dir = ScratchDir("fleet_spill_chaos");
  auto profile = chaos::FaultProfile::Named("flaky");
  ASSERT_TRUE(profile.has_value());
  const std::string baseline = ReportFor(0, "", 1, &*profile);
  EXPECT_EQ(baseline, ReportFor(65536, dir.string(), 8, &*profile));
  EXPECT_EQ(baseline, ReportFor(65536, "", 1, &*profile));
}

TEST(Watchdog, CancelsWedgedJobIntoQuarantine) {
  FleetOptions options = TinyFleet(1);
  options.max_job_retries = 1;
  options.journal = true;
  options.watchdog_deadline = util::Duration::Millis(10);
  auto jobs = FleetExecutor::PlanCampaign(Browsers({"Yandex"}),
                                          {CampaignKind::kCrawl}, 1);
  FleetExecutor executor(options);
  auto results = executor.Run(jobs);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].crawl.has_value());
  EXPECT_TRUE(results[0].crawl->watchdog_cancelled);
  // Cancellation routes through the retry/quarantine machinery: the
  // retry hits the same deadline, so the job quarantines.
  EXPECT_EQ(results[0].attempts, 2);
  EXPECT_TRUE(results[0].quarantined);

  bool journaled = false;
  for (const auto& event : results[0].journal.events()) {
    if (event.kind == "watchdog_cancel") journaled = true;
  }
  EXPECT_TRUE(journaled);

  RunManifest manifest = BuildRunManifest(options, results);
  EXPECT_EQ(manifest.watchdog_cancelled_jobs, 1u);
  EXPECT_TRUE(manifest.Degraded());
  ASSERT_EQ(manifest.jobs.size(), 1u);
  EXPECT_TRUE(manifest.jobs[0].watchdog_cancelled);
}

TEST(Watchdog, GenerousDeadlineChangesNothing) {
  FleetOptions plain = TinyFleet(1);
  auto jobs = FleetExecutor::PlanCampaign(Browsers({"Opera"}),
                                          {CampaignKind::kCrawl}, 1);
  auto baseline = analysis::FleetReportJson(
      FleetExecutor::MergeShards(FleetExecutor(plain).Run(jobs)));

  FleetOptions guarded = TinyFleet(1);
  guarded.watchdog_deadline = util::Duration::Minutes(600);
  auto guarded_report = analysis::FleetReportJson(
      FleetExecutor::MergeShards(FleetExecutor(guarded).Run(jobs)));
  EXPECT_EQ(baseline, guarded_report);
}

TEST(Window, BudgetedWindowMatchesUnboundedIndex) {
  const auto dir = ScratchDir("window_spill");
  const auto* spec = browser::FindSpec("Yandex");
  ASSERT_NE(spec, nullptr);
  FrameworkOptions fw;
  fw.catalog.popular_count = 4;
  fw.catalog.sensitive_count = 2;

  WindowOptions unbounded;
  unbounded.window = util::Duration::Minutes(2);
  WindowOptions budgeted = unbounded;
  budgeted.stream.memory_budget_bytes = 16384;
  budgeted.stream.spill_dir = dir.string();

  Framework f1(fw);
  WindowResult r1 = RunWindow(f1, *spec, unbounded);
  Framework f2(fw);
  WindowResult r2 = RunWindow(f2, *spec, budgeted);

  EXPECT_EQ(r1.native_flows, r2.native_flows);
  EXPECT_EQ(IndexBytes(r1.native_index), IndexBytes(r2.native_index));
  const auto profile = device::DeviceProfile::PaperTestbed();
  EXPECT_EQ(analysis::WindowReportJson(spec->name, r1.native_index, profile),
            analysis::WindowReportJson(spec->name, r2.native_index, profile));
  EXPECT_GT(r1.native_flows, 0u);
}

// `fleet --window` builds the generated web once and hands it to every
// browser's framework; each browser's report and journal must match a
// run on a framework that generates its own.
TEST(Window, SharedWorldMatchesPrivateWorld) {
  FrameworkOptions fw;
  fw.catalog.popular_count = 4;
  fw.catalog.sensitive_count = 2;
  fw.catalog_seed = 20231024;
  const auto world = web::World::Build(fw.CatalogSeed(), fw.catalog);
  WindowOptions options;
  options.window = util::Duration::Minutes(2);
  const auto profile = device::DeviceProfile::PaperTestbed();

  for (const char* name : {"Yandex", "Opera"}) {
    SCOPED_TRACE(name);
    const auto* spec = browser::FindSpec(name);
    ASSERT_NE(spec, nullptr);
    FrameworkOptions job_fw = fw;
    job_fw.seed = DeriveJobSeed(20231024, name, CampaignKind::kIdle, 0);

    obs::Journal private_journal;
    job_fw.journal = &private_journal;
    Framework private_world(job_fw);
    WindowResult own = RunWindow(private_world, *spec, options);

    obs::Journal shared_journal;
    job_fw.journal = &shared_journal;
    Framework shared_world(job_fw, world);
    WindowResult shared = RunWindow(shared_world, *spec, options);

    EXPECT_GT(own.native_flows, 0u);
    EXPECT_EQ(analysis::WindowReportJson(name, own.native_index, profile),
              analysis::WindowReportJson(name, shared.native_index, profile));
    EXPECT_EQ(private_journal.Jsonl(), shared_journal.Jsonl());
  }
}

TEST(SnapshotV5, IngestAndWatchdogRoundTrip) {
  FleetJobResult result;
  result.job.spec = *browser::FindSpec("Yandex");
  result.job.kind = CampaignKind::kCrawl;
  result.seed = 77;
  result.crawl.emplace();
  result.crawl->browser = "Yandex";
  result.crawl->engine_flows = std::make_unique<proxy::FlowStore>(true);
  result.crawl->native_flows = std::make_unique<proxy::FlowStore>();
  result.crawl->engine_index = std::make_shared<const analysis::FlowIndex>(
      analysis::FlowIndex::Build(*result.crawl->engine_flows));
  result.crawl->native_index = std::make_shared<const analysis::FlowIndex>(
      analysis::FlowIndex::Build(*result.crawl->native_flows));
  result.crawl->ingest.flows_pushed = 12;
  result.crawl->ingest.flows_shed = 3;
  result.crawl->ingest.spill_segments = 2;
  result.crawl->ingest.spill_bytes = 4096;
  result.crawl->ingest.spill_failures = 1;
  result.crawl->ingest.backpressure_stalls = 5;
  result.crawl->ingest.segments_quarantined = 1;
  result.crawl->ingest.flows_lost = 4;
  result.crawl->ingest.peak_live_bytes = 65536;
  result.crawl->watchdog_cancelled = true;

  std::string bytes = snapshot::Write(result, 0xBEEF);
  auto header = snapshot::PeekHeader(bytes);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->schema, snapshot::kSchemaVersion);

  FleetJobResult restored;
  ASSERT_TRUE(snapshot::Read(bytes, result.job, &restored));
  ASSERT_TRUE(restored.crawl.has_value());
  const IngestStats& ingest = restored.crawl->ingest;
  EXPECT_EQ(ingest.flows_pushed, 12u);
  EXPECT_EQ(ingest.flows_shed, 3u);
  EXPECT_EQ(ingest.spill_segments, 2u);
  EXPECT_EQ(ingest.spill_bytes, 4096u);
  EXPECT_EQ(ingest.spill_failures, 1u);
  EXPECT_EQ(ingest.backpressure_stalls, 5u);
  EXPECT_EQ(ingest.segments_quarantined, 1u);
  EXPECT_EQ(ingest.flows_lost, 4u);
  EXPECT_EQ(ingest.peak_live_bytes, 65536u);
  EXPECT_TRUE(restored.crawl->watchdog_cancelled);
  EXPECT_TRUE(ingest.Degraded());
}

}  // namespace
}  // namespace panoptes::core
