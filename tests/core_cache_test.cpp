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

// Every result carries an index per store, so a snapshot whose index
// is absent (presence byte 0, the encoding of a null index) or belongs
// to another store is corrupt: replaying it must not rebuild or trust
// it.
core::FleetJobResult& FirstCrawl(std::vector<core::FleetJobResult>& results) {
  for (auto& result : results) {
    if (result.crawl.has_value()) return result;
  }
  ADD_FAILURE() << "plan has no crawl job";
  return results.front();
}

TEST(Snapshot, RejectsAnAbsentIndex) {
  core::FleetExecutor executor(SmallFleet());
  auto jobs = SmallPlan();
  auto results = executor.Run(jobs);
  const core::FleetJobResult& result = FirstCrawl(results);
  std::string bytes = core::snapshot::Write(result, 1);

  // Locate the engine index payload: it directly follows the engine
  // store, behind its presence byte.
  util::BinWriter store_out;
  result.crawl->engine_flows->SerializeTo(store_out);
  util::BinWriter index_out;
  result.crawl->engine_index->SerializeTo(index_out);
  const std::string store_bytes = store_out.Take();
  const std::string index_bytes = index_out.Take();
  size_t at = bytes.find(store_bytes);
  ASSERT_NE(at, std::string::npos);
  at += store_bytes.size();
  ASSERT_EQ(bytes[at], 1);
  ASSERT_EQ(bytes.compare(at + 1, index_bytes.size(), index_bytes), 0);

  // The snapshot a null engine index would have produced.
  std::string absent = bytes.substr(0, at) + '\0' +
                       bytes.substr(at + 1 + index_bytes.size());
  core::FleetJobResult restored;
  ASSERT_TRUE(core::snapshot::Read(bytes, result.job, &restored));
  EXPECT_FALSE(core::snapshot::Read(absent, result.job, &restored));
}

TEST(Snapshot, RejectsAnIndexOfTheWrongStore) {
  core::FleetExecutor executor(SmallFleet());
  auto jobs = SmallPlan();
  auto results = executor.Run(jobs);
  core::FleetJobResult& result = FirstCrawl(results);
  ASSERT_NE(result.crawl->engine_flows->size(),
            result.crawl->native_flows->size());
  result.crawl->native_index = std::make_unique<analysis::FlowIndex>(
      analysis::FlowIndex::Build(*result.crawl->engine_flows));

  core::FleetJobResult restored;
  EXPECT_FALSE(core::snapshot::Read(core::snapshot::Write(result, 1),
                                    result.job, &restored));
}

// Header layout: magic, u32 schema, u64 fingerprint, then the job
// identity (length-prefixed browser name, campaign-kind byte, ...).
constexpr size_t kSchemaAt = core::snapshot::kMagic.size();

size_t KindAt(const core::FleetJobResult& result) {
  return kSchemaAt + 4 + 8 + 4 + result.job.spec.name.size();
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

TEST(Snapshot, RejectsTheV7Schema) {
  core::FleetExecutor executor(SmallFleet());
  auto results = executor.Run(SmallPlan());
  for (const core::FleetJobResult* result :
       {&FirstCrawl(results), &FirstIdle(results)}) {
    const std::string bytes = core::snapshot::Write(*result, 1);
    core::FleetJobResult restored;
    ASSERT_TRUE(core::snapshot::Read(bytes, result->job, &restored));
    ASSERT_TRUE(core::snapshot::ReadAny(bytes, &restored));

    const std::string v7 = WithSchema(bytes, 7);
    ASSERT_EQ(core::snapshot::PeekHeader(v7)->schema, 7u);
    EXPECT_FALSE(core::snapshot::Read(v7, result->job, &restored));
    EXPECT_FALSE(core::snapshot::ReadAny(v7, &restored));
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
    core::FleetJobResult restored;
    EXPECT_FALSE(core::snapshot::ReadAny(mutated, &restored)) << int{kind};
    EXPECT_FALSE(core::snapshot::Read(mutated, result.job, &restored))
        << int{kind};
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

TEST(ResultCache, WarmRunIsAllHitsAndByteIdentical) {
  fs::path dir = ScratchDir("warm");
  auto jobs = SmallPlan();

  core::FleetExecutor cold(SmallFleet(dir));
  auto cold_results = cold.Run(jobs);
  ASSERT_NE(cold.cache(), nullptr);
  EXPECT_EQ(cold.cache()->Stats().misses, jobs.size());
  EXPECT_EQ(cold.cache()->Stats().writes, jobs.size());
  EXPECT_EQ(cold.cache()->Stats().hits, 0u);
  for (const auto& result : cold_results) EXPECT_FALSE(result.cache_hit);
  std::string cold_report = ReportOf(std::move(cold_results));

  // Warm: a new executor over the same inputs replays everything.
  core::FleetExecutor warm(SmallFleet(dir));
  auto warm_results = warm.Run(jobs);
  auto stats = warm.cache()->Stats();
  EXPECT_EQ(stats.hits, jobs.size());
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.invalidated, 0u);
  EXPECT_EQ(stats.writes, 0u);
  for (const auto& result : warm_results) EXPECT_TRUE(result.cache_hit);

  core::RunManifest manifest =
      core::BuildRunManifest(warm.options(), warm_results, &stats);
  EXPECT_TRUE(manifest.cache_enabled);
  EXPECT_EQ(manifest.cache_hits, jobs.size());
  EXPECT_EQ(manifest.cache_misses, 0u);
  for (const auto& job : manifest.jobs) EXPECT_TRUE(job.cache_hit);

  EXPECT_EQ(ReportOf(std::move(warm_results)), cold_report);
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
  auto stats = warm.cache()->Stats();
  EXPECT_EQ(stats.invalidated, changed);
  EXPECT_EQ(stats.hits, changed_jobs.size() - changed);
  EXPECT_EQ(stats.misses, 0u);
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
  warm_seed.Run(jobs);
  EXPECT_EQ(warm_seed.cache()->Stats().hits, 0u);
  EXPECT_EQ(warm_seed.cache()->Stats().invalidated, jobs.size());

  // The reseeded run overwrote the snapshots; a chaos-profile change on
  // top invalidates them all again.
  core::FleetOptions chaotic = SmallFleet(dir);
  chaotic.base_seed = reseeded.base_seed;
  chaotic.framework.chaos = *chaos::FaultProfile::Named("flaky");
  core::FleetExecutor warm_chaos(chaotic);
  warm_chaos.Run(jobs);
  EXPECT_EQ(warm_chaos.cache()->Stats().hits, 0u);
  EXPECT_EQ(warm_chaos.cache()->Stats().invalidated, jobs.size());
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
  auto stats = warm.cache()->Stats();
  EXPECT_EQ(stats.misses, 1u);       // the deleted file
  EXPECT_EQ(stats.invalidated, 1u);  // the corrupt file
  EXPECT_EQ(stats.hits, jobs.size() - 2);
  EXPECT_EQ(stats.writes, 2u);  // both repaired
  EXPECT_EQ(ReportOf(std::move(results)), cold_report);
}

TEST(ResultCache, V7SnapshotReexecutesThatJob) {
  fs::path dir = ScratchDir("v7");
  auto jobs = SmallPlan();
  core::FleetExecutor cold(SmallFleet(dir));
  std::string cold_report = ReportOf(cold.Run(jobs));

  // Restamp one snapshot as schema 7: the cache must not replay it.
  const fs::path path = cold.cache()->PathFor(jobs[0]);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << WithSchema(bytes, 7);
  }

  core::FleetExecutor warm(SmallFleet(dir));
  auto results = warm.Run(jobs);
  auto stats = warm.cache()->Stats();
  EXPECT_EQ(stats.invalidated, 1u);
  EXPECT_EQ(stats.hits, jobs.size() - 1);
  EXPECT_EQ(stats.writes, 1u);
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
  EXPECT_EQ(warm.cache()->Stats().hits, jobs.size());
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
  EXPECT_EQ(resumed.cache()->Stats().hits, 0u);
  EXPECT_EQ(resumed.cache()->Stats().misses, jobs.size());
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
