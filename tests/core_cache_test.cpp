// Result cache + snapshot format: a completed fleet job round-trips to
// bytes and back with full fidelity, warm runs replay entirely from
// cache with byte-identical reports, and every input change invalidates
// exactly the jobs it affects — no silent reuse, no over-invalidation.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/export.h"
#include "analysis/flow_index.h"
#include "browser/profiles.h"
#include "chaos/profile.h"
#include "core/fleet.h"
#include "core/result_cache.h"
#include "core/run_manifest.h"
#include "core/snapshot.h"
#include "util/binio.h"
#include "util/rng.h"

namespace panoptes {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory per test.
fs::path ScratchDir(std::string_view name) {
  fs::path dir = fs::temp_directory_path() / "panoptes_cache_test" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<browser::BrowserSpec> Browsers(
    std::initializer_list<std::string_view> names) {
  std::vector<browser::BrowserSpec> specs;
  for (auto name : names) specs.push_back(*browser::FindSpec(name));
  return specs;
}

core::FleetOptions SmallFleet(const fs::path& cache_dir = {}) {
  core::FleetOptions options;
  options.jobs = 2;
  options.framework.catalog.popular_count = 3;
  options.framework.catalog.sensitive_count = 1;
  options.cache_dir = cache_dir.string();
  return options;
}

std::vector<core::FleetJob> SmallPlan() {
  return core::FleetExecutor::PlanCampaign(
      Browsers({"Yandex", "DuckDuckGo"}),
      {core::CampaignKind::kCrawl, core::CampaignKind::kIdle}, 2);
}

std::string ReportOf(std::vector<core::FleetJobResult> results) {
  return analysis::FleetReportJson(
      core::FleetExecutor::MergeShards(std::move(results)));
}

// What the cache did over a run: its jobs' own counts, summed.
obs::JobTelemetry CacheCounts(
    const std::vector<core::FleetJobResult>& results) {
  obs::JobTelemetry sum;
  for (const auto& result : results) sum.Accumulate(result.telemetry);
  return sum;
}

TEST(Snapshot, RoundTripIsByteFaithful) {
  core::FleetExecutor executor(SmallFleet());
  auto jobs = SmallPlan();
  auto results = executor.Run(jobs);
  ASSERT_EQ(results.size(), jobs.size());

  for (size_t i = 0; i < results.size(); ++i) {
    std::string bytes = core::snapshot::Write(results[i], /*fingerprint=*/i);
    auto header = core::snapshot::PeekHeader(bytes);
    ASSERT_TRUE(header.has_value());
    EXPECT_EQ(header->schema, core::snapshot::kSchemaVersion);
    EXPECT_EQ(header->fingerprint, i);

    core::FleetJobResult restored;
    ASSERT_TRUE(core::snapshot::Read(bytes, jobs[i], &restored)) << i;
    // Re-encoding the restored result must reproduce the exact bytes:
    // nothing in the payload was lost or normalized.
    EXPECT_EQ(core::snapshot::Write(restored, i), bytes) << i;

    // A snapshot never decodes as some *other* job.
    core::FleetJob other = jobs[(i + 1) % jobs.size()];
    EXPECT_FALSE(core::snapshot::Read(bytes, other, &restored)) << i;
  }
}

TEST(Snapshot, RejectsCorruptionAndForeignBytes) {
  core::FleetExecutor executor(SmallFleet());
  auto jobs = SmallPlan();
  auto results = executor.Run(jobs);
  std::string bytes = core::snapshot::Write(results[0], 1);

  core::FleetJobResult restored;
  EXPECT_FALSE(core::snapshot::Read("", jobs[0], &restored));
  EXPECT_FALSE(core::snapshot::Read("definitely-not-a-snapshot", jobs[0],
                                    &restored));
  // Any truncation fails soft.
  for (size_t cut : {size_t{4}, size_t{20}, bytes.size() / 2,
                     bytes.size() - 1}) {
    EXPECT_FALSE(core::snapshot::Read(std::string_view(bytes).substr(0, cut),
                                      jobs[0], &restored))
        << cut;
  }
  // Trailing garbage is corruption, not a longer snapshot.
  EXPECT_FALSE(core::snapshot::Read(bytes + "x", jobs[0], &restored));
}

core::FleetJobResult& FirstCrawl(std::vector<core::FleetJobResult>& results) {
  for (auto& result : results) {
    if (result.crawl.has_value()) return result;
  }
  ADD_FAILURE() << "plan has no crawl job";
  return results.front();
}

// Layout: magic, u32 schema, then the job frame (u32 tag, u64 length)
// whose payload opens with the u64 fingerprint and the job identity
// (length-prefixed browser name, campaign-kind byte, ...).
constexpr size_t kSchemaAt = core::snapshot::kMagic.size();

size_t KindAt(const core::FleetJobResult& result) {
  return kSchemaAt + 4 + 4 + 8 + 8 + 4 + result.job.spec.name.size();
}

// Recomputes every frame's digest after a test edits bytes inside a
// frame, so the edit reaches the decoder's own checks below the digest.
std::string Reframed(std::string bytes) {
  size_t at = kSchemaAt + 4;
  while (at + 20 <= bytes.size()) {
    util::BinReader length(std::string_view(bytes).substr(at + 4, 8));
    const size_t covered = 12 + static_cast<size_t>(length.U64());
    util::BinWriter digest;
    digest.U64(util::HashBytes64(std::string_view(bytes).substr(at, covered)));
    bytes.replace(at + covered, 8, digest.data());
    at += covered + 8;
  }
  return bytes;
}

std::string WithSchema(std::string bytes, uint32_t schema) {
  for (size_t i = 0; i < 4; ++i) {
    bytes[kSchemaAt + i] = static_cast<char>((schema >> (8 * i)) & 0xFF);
  }
  return bytes;
}

core::FleetJobResult& FirstIdle(std::vector<core::FleetJobResult>& results) {
  for (auto& result : results) {
    if (result.idle.has_value()) return result;
  }
  ADD_FAILURE() << "plan has no idle job";
  return results.front();
}

TEST(Snapshot, RejectsTheV8Schema) {
  core::FleetExecutor executor(SmallFleet());
  auto results = executor.Run(SmallPlan());
  for (const core::FleetJobResult* result :
       {&FirstCrawl(results), &FirstIdle(results)}) {
    const std::string bytes = core::snapshot::Write(*result, 1);
    core::FleetJobResult restored;
    ASSERT_TRUE(core::snapshot::Read(bytes, result->job, &restored));
    ASSERT_TRUE(core::snapshot::ReadAny(bytes, &restored));

    const std::string v8 = WithSchema(bytes, 8);
    ASSERT_EQ(core::snapshot::PeekHeader(v8)->schema, 8u);
    EXPECT_FALSE(core::snapshot::Read(v8, result->job, &restored));
    EXPECT_FALSE(core::snapshot::ReadAny(v8, &restored));
  }
}

TEST(Snapshot, RejectsAnOutOfRangeCampaignKind) {
  core::FleetExecutor executor(SmallFleet());
  auto results = executor.Run(SmallPlan());
  const core::FleetJobResult& result = FirstIdle(results);
  const std::string bytes = core::snapshot::Write(result, 1);
  ASSERT_EQ(static_cast<uint8_t>(bytes[KindAt(result)]),
            static_cast<uint8_t>(core::CampaignKind::kIdle));

  for (uint8_t kind : {uint8_t{3}, uint8_t{0xFF}}) {
    std::string mutated = bytes;
    mutated[KindAt(result)] = static_cast<char>(kind);
    mutated = Reframed(mutated);
    core::FleetJobResult restored;
    EXPECT_FALSE(core::snapshot::ReadAny(mutated, &restored)) << int{kind};
    EXPECT_FALSE(core::snapshot::Read(mutated, result.job, &restored))
        << int{kind};
  }
}

// Enum bytes read from disk are range-checked: a flow's method, HTTP
// version or traffic origin past its last enumerator is corruption, not
// a value to cast.
TEST(Snapshot, RejectsOutOfRangeFlowEnums) {
  core::FleetExecutor executor(SmallFleet());
  auto results = executor.Run(SmallPlan());
  const core::FleetJobResult& result = FirstCrawl(results);
  const std::string bytes = core::snapshot::Write(result, 1);
  const proxy::FlowView& flow = result.crawl->engine_flows->flow(0);

  // An image record opens with its id and uid; the method byte follows
  // the time, browser label id and app uid. Version and origin follow
  // the URL view and layout, host id, header count, body view, status,
  // byte counts and server IP.
  util::BinWriter key;
  key.U64(flow.id);
  key.U64(flow.uid);
  const size_t record = bytes.find(key.Take());
  ASSERT_NE(record, std::string::npos);
  const size_t method_at = record + 8 + 8 + 8 + 4 + 4;
  const size_t version_at = method_at + 1 + 8 + 3 + 12 + 4 + 4 + 8 + 4 +
                            8 + 8 + 4;
  const size_t origin_at = version_at + 1;
  ASSERT_EQ(bytes[method_at], static_cast<char>(flow.method));
  ASSERT_EQ(bytes[version_at], static_cast<char>(flow.version));
  ASSERT_EQ(bytes[origin_at], static_cast<char>(flow.origin));

  // Each byte with the value of its enum's last enumerator.
  const std::pair<size_t, int> fields[] = {
      {method_at, static_cast<int>(net::HttpMethod::kDelete)},
      {version_at, static_cast<int>(net::HttpVersion::kHttp3)},
      {origin_at, static_cast<int>(proxy::TrafficOrigin::kNative)},
  };
  core::FleetJobResult restored;
  for (const auto& [at, last] : fields) {
    std::string mutated = bytes;
    mutated[at] = static_cast<char>(last);
    EXPECT_TRUE(core::snapshot::Read(Reframed(mutated), result.job, &restored))
        << at;
    for (int bad : {last + 1, 9, 0xFF}) {
      mutated[at] = static_cast<char>(bad);
      EXPECT_FALSE(
          core::snapshot::Read(Reframed(mutated), result.job, &restored))
          << at << " " << bad;
      EXPECT_FALSE(core::snapshot::ReadAny(Reframed(mutated), &restored))
          << at << " " << bad;
    }
  }
}

TEST(Snapshot, RejectsAnOutOfRangeSiteCategory) {
  core::FleetExecutor executor(SmallFleet());
  auto results = executor.Run(SmallPlan());
  const core::FleetJobResult& result = FirstCrawl(results);
  const std::string bytes = core::snapshot::Write(result, 1);
  ASSERT_FALSE(result.crawl->visits.empty());
  const core::VisitRecord& visit = result.crawl->visits.front();

  // A visit record opens with its hostname, then the category byte.
  util::BinWriter key;
  key.Str(visit.hostname);
  key.U8(static_cast<uint8_t>(visit.category));
  key.Bool(visit.ok);
  key.Bool(visit.dom_content_loaded);
  key.Bool(visit.incognito_honored);
  key.I64(visit.engine_requests);
  const std::string prefix = key.Take();
  const size_t record = bytes.find(prefix);
  ASSERT_NE(record, std::string::npos);
  ASSERT_EQ(record, bytes.rfind(prefix));
  const size_t category_at = record + 4 + visit.hostname.size();

  core::FleetJobResult restored;
  std::string mutated = bytes;
  mutated[category_at] = static_cast<char>(web::SiteCategory::kHealth);
  EXPECT_TRUE(core::snapshot::Read(Reframed(mutated), result.job, &restored));
  for (int bad : {static_cast<int>(web::SiteCategory::kHealth) + 1, 0xFF}) {
    mutated[category_at] = static_cast<char>(bad);
    EXPECT_FALSE(core::snapshot::Read(Reframed(mutated), result.job, &restored))
        << bad;
    EXPECT_FALSE(core::snapshot::ReadAny(Reframed(mutated), &restored)) << bad;
  }
}

// The kind byte alone decides which tail follows the shared capture, so
// a header that claims the other kind must not decode its payload.
TEST(Snapshot, RejectsAPayloadOfTheOtherKind) {
  core::FleetExecutor executor(SmallFleet());
  auto results = executor.Run(SmallPlan());
  for (const core::FleetJobResult* result :
       {&FirstCrawl(results), &FirstIdle(results)}) {
    const bool idle = result->idle.has_value();
    const core::CampaignKind other =
        idle ? core::CampaignKind::kCrawl : core::CampaignKind::kIdle;
    std::string mutated = core::snapshot::Write(*result, 1);
    mutated[KindAt(*result)] = static_cast<char>(other);
    mutated = Reframed(mutated);
    core::FleetJob job = result->job;
    job.kind = other;

    core::FleetJobResult restored;
    EXPECT_FALSE(core::snapshot::ReadAny(mutated, &restored)) << idle;
    EXPECT_FALSE(core::snapshot::Read(mutated, job, &restored)) << idle;

    // Nor will the writer encode a result whose side contradicts its kind.
    core::FleetJobResult mislabeled;
    mislabeled.job = job;
    if (idle) {
      mislabeled.idle.emplace();
    } else {
      mislabeled.crawl.emplace();
    }
    EXPECT_THROW(core::snapshot::Write(mislabeled, 1), std::invalid_argument);
  }
}

// A job whose stores spilled and were merged back from their segments
// writes, replayed, the bytes it wrote cold: an image holds the store's
// content, not how its arena was filled.
TEST(Snapshot, SpilledResultsRewriteTheirColdBytes) {
  const fs::path spill = ScratchDir("spill_rewrite");
  core::CrawlOptions crawl;
  crawl.stream.memory_budget_bytes = 4096;
  crawl.stream.spill_dir = spill.string();
  core::IdleOptions idle;
  idle.stream = crawl.stream;
  auto jobs = core::FleetExecutor::PlanCampaign(
      Browsers({"Yandex", "DuckDuckGo"}),
      {core::CampaignKind::kCrawl, core::CampaignKind::kIdle}, 1, crawl,
      idle);
  auto results = core::FleetExecutor(SmallFleet()).Run(jobs);
  ASSERT_EQ(results.size(), jobs.size());
  int spilled = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    if (results[i].capture()->ingest.spill_segments > 0) ++spilled;
    const std::string bytes = core::snapshot::Write(results[i], 7);
    core::FleetJobResult restored;
    ASSERT_TRUE(core::snapshot::Read(bytes, jobs[i], &restored)) << i;
    EXPECT_EQ(core::snapshot::Write(restored, 7), bytes) << i;
  }
  EXPECT_GT(spilled, 0);
}

// Every byte past the schema sits in a checksummed frame, and the magic
// and schema must match exactly, so no single-byte flip of a crawl
// snapshot replays as a capture that never happened: seeded flips are
// all rejected.
TEST(Snapshot, AcceptedMutantsDescribeTheirOwnStores) {
  core::FleetOptions options = SmallFleet();
  options.framework.catalog.popular_count = 1;
  core::FleetExecutor executor(options);
  auto jobs = core::FleetExecutor::PlanCampaign(
      Browsers({"Yandex"}), {core::CampaignKind::kCrawl}, 1);
  auto results = executor.Run(jobs);
  ASSERT_EQ(results.size(), 1u);
  const std::string bytes = core::snapshot::Write(results[0], 1);
  RecordProperty("snapshot_bytes", static_cast<int>(bytes.size()));
  core::FleetJobResult restored;
  ASSERT_TRUE(core::snapshot::Read(bytes, jobs[0], &restored));

  util::Rng rng(20231024);
  constexpr int kMutants = 2000;
  int accepted = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string mutated = bytes;
    const size_t at = rng.NextBelow(bytes.size());
    mutated[at] = static_cast<char>(mutated[at] ^ (1 + rng.NextBelow(255)));
    if (core::snapshot::Read(mutated, jobs[0], &restored)) {
      ++accepted;
      ADD_FAILURE() << "a flip of byte " << at << " was accepted";
    }
  }
  RecordProperty("accepted_mutants", accepted);
  EXPECT_EQ(accepted, 0);
}

TEST(ResultCache, WarmRunIsAllHitsAndByteIdentical) {
  fs::path dir = ScratchDir("warm");
  auto jobs = SmallPlan();

  core::FleetExecutor cold(SmallFleet(dir));
  auto cold_results = cold.Run(jobs);
  ASSERT_NE(cold.cache(), nullptr);
  obs::JobTelemetry cold_counts = CacheCounts(cold_results);
  EXPECT_EQ(cold_counts.cache_misses, jobs.size());
  EXPECT_EQ(cold_counts.cache_writes, jobs.size());
  EXPECT_EQ(cold_counts.cache_hits, 0u);
  for (const auto& result : cold_results) EXPECT_FALSE(result.cache_hit);
  std::string cold_report = ReportOf(std::move(cold_results));

  // Warm: a new executor over the same inputs replays everything.
  core::FleetExecutor warm(SmallFleet(dir));
  auto warm_results = warm.Run(jobs);
  obs::JobTelemetry stats = CacheCounts(warm_results);
  EXPECT_EQ(stats.cache_hits, jobs.size());
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.cache_invalidations, 0u);
  EXPECT_EQ(stats.cache_writes, 0u);
  for (const auto& result : warm_results) EXPECT_TRUE(result.cache_hit);

  core::RunManifest manifest =
      core::BuildRunManifest(warm.options(), warm_results);
  EXPECT_TRUE(manifest.cache_enabled);
  EXPECT_EQ(manifest.cache_hits, jobs.size());
  EXPECT_EQ(manifest.cache_misses, 0u);
  for (const auto& job : manifest.jobs) EXPECT_TRUE(job.cache_hit);

  EXPECT_EQ(ReportOf(std::move(warm_results)), cold_report);
}

// Two jobs of one plan that differ only in their idle duration get a
// file each, so a warm run replays every job: no job finds its partner's
// snapshot, invalidates it and re-executes. Four workers run the plan,
// and every write goes through its own temp file.
TEST(ResultCache, JobsSharingASnapshotPathKeepTheirBytes) {
  fs::path dir = ScratchDir("shared_path");
  std::vector<core::FleetJob> jobs;
  for (const auto& spec : Browsers({"Opera", "Yandex", "Edge", "Brave"})) {
    for (int64_t minutes : {1, 2}) {
      core::IdleOptions idle;
      idle.duration = util::Duration::Minutes(minutes);
      auto pair = core::FleetExecutor::PlanCampaign(
          {spec}, {core::CampaignKind::kIdle}, 1, {}, idle);
      jobs.push_back(std::move(pair.front()));
    }
  }
  core::FleetOptions options = SmallFleet(dir);
  options.jobs = 4;
  const core::ResultCache cache(options.cache_dir);
  ASSERT_NE(cache.PathFor(jobs[0]), cache.PathFor(jobs[1]));

  auto cold = core::FleetExecutor(options).Run(jobs);
  auto warm = core::FleetExecutor(options).Run(jobs);
  ASSERT_EQ(cold.size(), jobs.size());
  ASSERT_EQ(warm.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(core::snapshot::Write(warm[i], 0),
              core::snapshot::Write(cold[i], 0))
        << i;
  }
  obs::JobTelemetry counts = CacheCounts(warm);
  EXPECT_EQ(counts.cache_hits, jobs.size());
  EXPECT_EQ(counts.cache_invalidations, 0u);
  EXPECT_EQ(counts.cache_misses, 0u);
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().string().find(".tmp"), std::string::npos)
        << entry.path();
  }
}

TEST(ResultCache, SpecChangeInvalidatesOnlyThatBrowsersJobs) {
  fs::path dir = ScratchDir("spec_change");
  auto jobs = SmallPlan();
  core::FleetExecutor cold(SmallFleet(dir));
  cold.Run(jobs);

  // Bump one browser's version — as a real spec update would.
  auto changed_jobs = jobs;
  size_t changed = 0;
  for (auto& job : changed_jobs) {
    if (job.spec.name == "Yandex") {
      job.spec.version += "-next";
      ++changed;
    }
  }
  ASSERT_GT(changed, 0u);
  ASSERT_LT(changed, changed_jobs.size());

  core::FleetExecutor warm(SmallFleet(dir));
  auto results = warm.Run(changed_jobs);
  obs::JobTelemetry stats = CacheCounts(results);
  EXPECT_EQ(stats.cache_invalidations, changed);
  EXPECT_EQ(stats.cache_hits, changed_jobs.size() - changed);
  EXPECT_EQ(stats.cache_misses, 0u);
  for (const auto& result : results) {
    EXPECT_EQ(result.cache_hit, result.job.spec.name != "Yandex")
        << result.job.spec.name;
  }
}

TEST(ResultCache, SeedOrChaosChangeInvalidatesEverything) {
  fs::path dir = ScratchDir("global_change");
  auto jobs = SmallPlan();
  core::FleetExecutor cold(SmallFleet(dir));
  cold.Run(jobs);

  core::FleetOptions reseeded = SmallFleet(dir);
  reseeded.base_seed += 1;
  core::FleetExecutor warm_seed(reseeded);
  obs::JobTelemetry reseeded_counts = CacheCounts(warm_seed.Run(jobs));
  EXPECT_EQ(reseeded_counts.cache_hits, 0u);
  EXPECT_EQ(reseeded_counts.cache_invalidations, jobs.size());

  // The reseeded run overwrote the snapshots; a chaos-profile change on
  // top invalidates them all again.
  core::FleetOptions chaotic = SmallFleet(dir);
  chaotic.base_seed = reseeded.base_seed;
  chaotic.framework.chaos = *chaos::FaultProfile::Named("flaky");
  core::FleetExecutor warm_chaos(chaotic);
  obs::JobTelemetry chaos_counts = CacheCounts(warm_chaos.Run(jobs));
  EXPECT_EQ(chaos_counts.cache_hits, 0u);
  EXPECT_EQ(chaos_counts.cache_invalidations, jobs.size());
}

TEST(ResultCache, MissingOrCorruptSnapshotReexecutesJustThatJob) {
  fs::path dir = ScratchDir("damage");
  auto jobs = SmallPlan();
  core::FleetExecutor cold(SmallFleet(dir));
  std::string cold_report = ReportOf(cold.Run(jobs));
  ASSERT_NE(cold.cache(), nullptr);

  // Delete one snapshot, corrupt another.
  fs::remove(cold.cache()->PathFor(jobs[0]));
  {
    std::ofstream out(cold.cache()->PathFor(jobs[1]),
                      std::ios::binary | std::ios::trunc);
    out << "garbage";
  }

  core::FleetExecutor warm(SmallFleet(dir));
  auto results = warm.Run(jobs);
  obs::JobTelemetry stats = CacheCounts(results);
  EXPECT_EQ(stats.cache_misses, 1u);         // the deleted file
  EXPECT_EQ(stats.cache_invalidations, 1u);  // the corrupt file
  EXPECT_EQ(stats.cache_hits, jobs.size() - 2);
  EXPECT_EQ(stats.cache_writes, 2u);  // both repaired
  EXPECT_EQ(ReportOf(std::move(results)), cold_report);
}

TEST(ResultCache, V8SnapshotReexecutesThatJob) {
  fs::path dir = ScratchDir("v8");
  auto jobs = SmallPlan();
  core::FleetExecutor cold(SmallFleet(dir));
  std::string cold_report = ReportOf(cold.Run(jobs));

  // Restamp one snapshot as schema 8: the cache must not replay it.
  const fs::path path = cold.cache()->PathFor(jobs[0]);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << WithSchema(bytes, 8);
  }

  core::FleetExecutor warm(SmallFleet(dir));
  auto results = warm.Run(jobs);
  obs::JobTelemetry stats = CacheCounts(results);
  EXPECT_EQ(stats.cache_invalidations, 1u);
  EXPECT_EQ(stats.cache_hits, jobs.size() - 1);
  EXPECT_EQ(stats.cache_writes, 1u);
  EXPECT_FALSE(results[0].cache_hit);
  EXPECT_EQ(ReportOf(std::move(results)), cold_report);
}

TEST(ResultCache, ResumeReexecutesCachedQuarantines) {
  fs::path dir = ScratchDir("resume_quarantine");
  auto jobs = core::FleetExecutor::PlanCampaign(
      Browsers({"Yandex"}), {core::CampaignKind::kCrawl}, 2);

  core::FleetOptions options = SmallFleet(dir);
  options.framework.chaos = *chaos::FaultProfile::Named("blackout");
  core::FleetExecutor cold(options);
  auto cold_results = cold.Run(jobs);
  for (const auto& result : cold_results) ASSERT_TRUE(result.quarantined);

  // Plain warm run: the quarantine replays as a hit (a finished run
  // stays byte-identical on re-render, failures included).
  core::FleetExecutor warm(options);
  auto warm_results = warm.Run(jobs);
  EXPECT_EQ(CacheCounts(warm_results).cache_hits, jobs.size());
  for (const auto& result : warm_results) {
    EXPECT_TRUE(result.quarantined);
    EXPECT_TRUE(result.cache_hit);
  }

  // Resume: cached quarantines don't count as done — the jobs re-run
  // (and, the world still being dead, quarantine again with fresh
  // attempt accounting rather than a replayed flag).
  core::FleetOptions resume_options = options;
  resume_options.resume = true;
  core::FleetExecutor resumed(resume_options);
  auto resumed_results = resumed.Run(jobs);
  EXPECT_EQ(CacheCounts(resumed_results).cache_hits, 0u);
  EXPECT_EQ(CacheCounts(resumed_results).cache_misses, jobs.size());
  for (const auto& result : resumed_results) {
    EXPECT_FALSE(result.cache_hit);
    EXPECT_TRUE(result.quarantined);
  }
}

TEST(ResultCache, FingerprintIsPureAndSensitive) {
  auto jobs = SmallPlan();
  core::FleetOptions options = SmallFleet();
  uint64_t fp = core::ResultCache::FingerprintJob(options, jobs[0]);
  EXPECT_EQ(core::ResultCache::FingerprintJob(options, jobs[0]), fp);
  EXPECT_NE(core::ResultCache::FingerprintJob(options, jobs[1]), fp);

  core::FleetOptions reseeded = options;
  reseeded.base_seed += 1;
  EXPECT_NE(core::ResultCache::FingerprintJob(reseeded, jobs[0]), fp);

  core::FleetOptions retried = options;
  retried.max_job_retries = 3;
  EXPECT_NE(core::ResultCache::FingerprintJob(retried, jobs[0]), fp);

  core::FleetJob respecced = jobs[0];
  respecced.spec.user_agent += "x";
  EXPECT_NE(core::ResultCache::FingerprintJob(options, respecced), fp);
}

}  // namespace
}  // namespace panoptes
