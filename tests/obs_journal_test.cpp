// Run-observatory tests: the structured event journal, the baseline
// gate, and finding→flow provenance.
//
// The pinned acceptance criteria live here: (1) the merged fleet
// journal is byte-identical at any worker count (events are stamped
// with simulated time, each job records into a private journal, and
// the executor merges in plan order); (2) the journal is strictly
// additive — exported reports are byte-identical with it on or off;
// (3) every exported finding carries a resolvable flow id; (4) the
// baseline gate enforces tolerance bands, exact pins and checksum
// equality the way CI relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "analysis/battery.h"
#include "analysis/export.h"
#include "browser/profiles.h"
#include "core/fleet.h"
#include "obs/baseline.h"
#include "obs/journal.h"
#include "proxy/flowstore.h"
#include "util/json.h"

namespace panoptes::obs {
namespace {

// ---------------------------------------------------------------------------
// Journal unit behaviour.

TEST(Journal, RendersTypedFieldsInEmissionOrder) {
  Journal journal;
  journal.Emit(42, "proxy", "flow_open")
      .Str("host", "mc.yandex.ru")
      .Num("id", int64_t{-3})
      .Num("bytes", uint64_t{7})
      .U64Hex("flow", 0x0123456789abcdefull)
      .BoolF("blocked", true);
  ASSERT_EQ(journal.size(), 1u);
  EXPECT_EQ(journal.EventJson(journal.events()[0]),
            "{\"t\":42,\"layer\":\"proxy\",\"kind\":\"flow_open\","
            "\"host\":\"mc.yandex.ru\",\"id\":-3,\"bytes\":7,"
            "\"flow\":\"0x0123456789abcdef\",\"blocked\":true}");
}

TEST(Journal, EscapesStringValues) {
  Journal journal;
  journal.Emit(0, "test", "escape").Str("value", "a\"b\\c\nd");
  std::string line = journal.EventJson(journal.events()[0]);
  EXPECT_NE(line.find("\"value\":\"a\\\"b\\\\c\\nd\""), std::string::npos);
  // The rendered line parses back as JSON.
  EXPECT_TRUE(util::Json::Parse(line).has_value());
}

TEST(Journal, JsonlHeaderAndDenseSequence) {
  Journal journal;
  journal.Emit(1, "a", "x");
  journal.Emit(2, "b", "y").Num("n", int64_t{9});
  std::string jsonl = journal.Jsonl();
  EXPECT_EQ(jsonl.rfind("{\"journal_schema\":1,\"events\":2}\n", 0), 0u);
  EXPECT_NE(jsonl.find("{\"seq\":0,\"t\":1,"), std::string::npos);
  EXPECT_NE(jsonl.find("{\"seq\":1,\"t\":2,"), std::string::npos);
}

TEST(Journal, EmptyJournalRendersHeaderOnly) {
  Journal journal;
  EXPECT_TRUE(journal.empty());
  EXPECT_EQ(journal.Jsonl(), "{\"journal_schema\":1,\"events\":0}\n");
}

// Append must rebase field and character-arena offsets: merging two
// journals renders exactly like emitting the same events into one.
TEST(Journal, AppendRebasesArenaOffsets) {
  Journal a, b, combined;
  a.Emit(1, "l", "first").Str("s", "alpha").Num("n", int64_t{1});
  b.Emit(2, "l", "second").Str("s", "beta").U64Hex("h", 0xffull);
  combined.Emit(1, "l", "first").Str("s", "alpha").Num("n", int64_t{1});
  combined.Emit(2, "l", "second").Str("s", "beta").U64Hex("h", 0xffull);

  Journal merged;
  merged.Append(a);
  merged.Append(b);
  EXPECT_EQ(merged.Jsonl(), combined.Jsonl());

  merged.Clear();
  EXPECT_TRUE(merged.empty());
  EXPECT_EQ(merged.Jsonl(), "{\"journal_schema\":1,\"events\":0}\n");
}

// ---------------------------------------------------------------------------
// Fleet journal determinism and additivity.

core::FleetOptions SmallFleetOptions(int jobs, bool journal) {
  core::FleetOptions options;
  options.jobs = jobs;
  options.journal = journal;
  options.framework.catalog.popular_count = 4;
  options.framework.catalog.sensitive_count = 2;
  return options;
}

std::vector<core::FleetJob> SmallFleetJobs() {
  return core::FleetExecutor::PlanCampaign(
      {*browser::FindSpec("Yandex"), *browser::FindSpec("Opera"),
       *browser::FindSpec("DuckDuckGo")},
      {core::CampaignKind::kCrawl, core::CampaignKind::kIdle}, 2);
}

// The acceptance criterion: merged journal JSONL is byte-identical
// whether the fleet ran on one worker or eight.
TEST(JournalEndToEnd, MergedJournalIsByteIdenticalAcrossWorkerCounts) {
  auto jobs = SmallFleetJobs();

  core::FleetExecutor serial(SmallFleetOptions(1, true));
  auto serial_results = serial.Run(jobs);
  Journal serial_journal;
  core::FleetExecutor::MergeJournal(serial_results, &serial_journal);

  core::FleetExecutor parallel(SmallFleetOptions(8, true));
  auto parallel_results = parallel.Run(jobs);
  Journal parallel_journal;
  core::FleetExecutor::MergeJournal(parallel_results, &parallel_journal);

  EXPECT_FALSE(serial_journal.empty());
  EXPECT_EQ(serial_journal.Jsonl(), parallel_journal.Jsonl());

  // Every layer of the run actually journaled.
  std::string jsonl = serial_journal.Jsonl();
  for (const char* needle :
       {"\"layer\":\"fleet\",\"kind\":\"job_start\"",
        "\"layer\":\"fleet\",\"kind\":\"job_finish\"",
        "\"layer\":\"campaign\",\"kind\":\"visit_begin\"",
        "\"layer\":\"campaign\",\"kind\":\"idle_begin\"",
        "\"layer\":\"proxy\",\"kind\":\"flow_open\"",
        "\"layer\":\"store\",\"kind\":\"flow_stored\""}) {
    EXPECT_NE(jsonl.find(needle), std::string::npos) << needle;
  }
}

// The analysis battery journals one analyzer_begin/analyzer_end pair
// per task in registration order — after the concurrent run completes,
// so the schedule can never reorder (or interleave) the events.
TEST(JournalEndToEnd, BatteryJournalsAnalyzersInRegistrationOrder) {
  auto run_battery = [](int jobs) {
    Journal journal;
    analysis::AnalysisBattery battery(jobs);
    battery.SetJournal(&journal, /*sim_millis=*/1234);
    battery.AddCounted("battery.first", [] { return int64_t{3}; });
    battery.Add("battery.second", [] {});
    battery.AddCounted("battery.third", [] { return int64_t{0}; });
    battery.Run();
    return journal.Jsonl();
  };

  std::string serial = run_battery(1);
  std::string concurrent = run_battery(4);
  EXPECT_EQ(serial, concurrent);

  // Counted tasks report their finding count; plain tasks omit it.
  size_t first = serial.find(
      "\"kind\":\"analyzer_end\",\"name\":\"battery.first\",\"findings\":3");
  size_t second = serial.find(
      "\"kind\":\"analyzer_end\",\"name\":\"battery.second\"}");
  size_t third = serial.find(
      "\"kind\":\"analyzer_end\",\"name\":\"battery.third\",\"findings\":0");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  ASSERT_NE(third, std::string::npos);
  EXPECT_LT(first, second);
  EXPECT_LT(second, third);
  EXPECT_NE(serial.find("\"kind\":\"analyzer_begin\",\"name\":\"battery.first\""),
            std::string::npos);
  EXPECT_NE(serial.find("\"t\":1234,"), std::string::npos);
}

// Strictly additive: enabling the journal changes no report byte.
TEST(JournalEndToEnd, ReportsAreByteIdenticalWithJournalOnAndOff) {
  auto jobs = SmallFleetJobs();

  core::FleetExecutor off_exec(SmallFleetOptions(4, false));
  auto off = off_exec.Run(jobs);
  for (const auto& result : off) EXPECT_TRUE(result.journal.empty());

  core::FleetExecutor on_exec(SmallFleetOptions(4, true));
  auto on = on_exec.Run(jobs);

  EXPECT_EQ(analysis::FleetReportJson(off), analysis::FleetReportJson(on));
  EXPECT_EQ(analysis::FleetSummaryCsv(off), analysis::FleetSummaryCsv(on));

  auto off_merged = core::FleetExecutor::MergeShards(std::move(off));
  auto on_merged = core::FleetExecutor::MergeShards(std::move(on));
  EXPECT_EQ(analysis::FleetReportJson(off_merged),
            analysis::FleetReportJson(on_merged));
}

TEST(JournalEndToEnd, ZeroJobRunProducesHeaderOnlyJournal) {
  core::FleetExecutor executor(SmallFleetOptions(2, true));
  auto results = executor.Run({});
  Journal journal;
  core::FleetExecutor::MergeJournal(results, &journal);
  EXPECT_EQ(journal.Jsonl(), "{\"journal_schema\":1,\"events\":0}\n");
}

// ---------------------------------------------------------------------------
// Finding → flow provenance.

TEST(Provenance, ProvenanceTagsAreStableNonZeroAndRoleSeparated) {
  const uint64_t seed = 0x744b7dc294545008ull;
  uint32_t engine = proxy::MakeProvenanceTag(seed, 0);
  uint32_t native = proxy::MakeProvenanceTag(seed, 1);
  EXPECT_NE(engine, 0u);
  EXPECT_NE(native, 0u);
  EXPECT_NE(engine, native);
  EXPECT_EQ(engine, proxy::MakeProvenanceTag(seed, 0));
  EXPECT_NE(engine, proxy::MakeProvenanceTag(seed + 1, 0));
}

// Every exported finding must carry the full provenance contract —
// flow_id, job, visit, attempt, fault_injected — and its flow id must
// resolve back to a journaled flow_stored event.
TEST(Provenance, ExportedFindingsCarryResolvableFlowIds) {
  auto jobs = SmallFleetJobs();
  core::FleetExecutor executor(SmallFleetOptions(2, true));
  auto results = executor.Run(jobs);
  Journal journal;
  core::FleetExecutor::MergeJournal(results, &journal);
  std::string jsonl = journal.Jsonl();

  auto report = util::Json::Parse(analysis::FleetReportJson(results));
  ASSERT_TRUE(report.has_value());
  const util::Json* entries = report->Find("results");
  ASSERT_NE(entries, nullptr);

  size_t findings_seen = 0;
  for (const util::Json& entry : entries->as_array()) {
    const util::Json* findings = entry.Find("findings");
    if (findings == nullptr) continue;
    for (const util::Json& finding : findings->as_array()) {
      ++findings_seen;
      const util::Json* flow_id = finding.Find("flow_id");
      ASSERT_NE(flow_id, nullptr);
      const std::string& id = flow_id->as_string();
      ASSERT_EQ(id.size(), 18u);
      EXPECT_EQ(id.rfind("0x", 0), 0u);
      EXPECT_NE(id, "0x0000000000000000");
      ASSERT_NE(finding.Find("job"), nullptr);
      ASSERT_NE(finding.Find("attempt"), nullptr);
      ASSERT_NE(finding.Find("visit"), nullptr);
      const util::Json* fault = finding.Find("fault_injected");
      ASSERT_NE(fault, nullptr);
      EXPECT_TRUE(fault->is_bool());
      // The journal recorded the moment this flow was persisted.
      EXPECT_NE(jsonl.find("\"kind\":\"flow_stored\",\"flow\":\"" + id +
                           "\""),
                std::string::npos)
          << id;
    }
  }
  EXPECT_GT(findings_seen, 0u);
}

// ---------------------------------------------------------------------------
// Baseline gate.

TEST(BaselineGate, PassesWithinDefaultToleranceBand) {
  auto result = BaselineGate::Compare(
      R"({"metrics":{"crawl_us":100.0}})",
      R"({"metrics":{"crawl_us":150.0}})");
  EXPECT_TRUE(result.ok);
  ASSERT_EQ(result.checks.size(), 1u);
  EXPECT_DOUBLE_EQ(result.checks[0].allowed_max, 160.0);
  EXPECT_NE(result.Render().find("baseline-gate: PASS"), std::string::npos);
}

TEST(BaselineGate, FailsBeyondToleranceBand) {
  auto result = BaselineGate::Compare(
      R"({"metrics":{"crawl_us":100.0}})",
      R"({"metrics":{"crawl_us":200.0}})");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.Render().find("FAIL crawl_us"), std::string::npos);
}

TEST(BaselineGate, PerMetricToleranceOverridesDefault) {
  const char* baseline =
      R"({"metrics":{"a_us":100.0,"b_us":100.0},)"
      R"("tolerance":{"a_us":0.10,"*":2.0}})";
  // a_us gets the tight band, b_us the wildcard.
  EXPECT_FALSE(
      BaselineGate::Compare(baseline, R"({"metrics":{"a_us":120.0,"b_us":120.0}})")
          .ok);
  EXPECT_TRUE(
      BaselineGate::Compare(baseline, R"({"metrics":{"a_us":105.0,"b_us":250.0}})")
          .ok);
}

TEST(BaselineGate, ToleranceZeroMeansExactPin) {
  const char* baseline =
      R"({"metrics":{"jobs":12.0},"tolerance":{"jobs":0}})";
  EXPECT_TRUE(BaselineGate::Compare(baseline, R"({"metrics":{"jobs":12.0}})").ok);
  EXPECT_FALSE(
      BaselineGate::Compare(baseline, R"({"metrics":{"jobs":11.0}})").ok);
  EXPECT_FALSE(
      BaselineGate::Compare(baseline, R"({"metrics":{"jobs":13.0}})").ok);
}

TEST(BaselineGate, ChecksumsCompareExactly) {
  const char* baseline =
      R"({"metrics":{},"checksums":{"table":"0x00000000deadbeef"}})";
  EXPECT_TRUE(BaselineGate::Compare(
                  baseline,
                  R"({"metrics":{},"checksums":{"table":"0x00000000deadbeef"}})")
                  .ok);
  auto mismatch = BaselineGate::Compare(
      baseline,
      R"({"metrics":{},"checksums":{"table":"0x0000000000000000"}})");
  EXPECT_FALSE(mismatch.ok);
  EXPECT_NE(mismatch.Render().find("checksum:table"), std::string::npos);
  // A checksum vanishing from the current report is also a failure.
  EXPECT_FALSE(
      BaselineGate::Compare(baseline, R"({"metrics":{},"checksums":{}})").ok);
}

TEST(BaselineGate, MissingMetricAndExtraMetric) {
  auto missing = BaselineGate::Compare(R"({"metrics":{"gone_us":5.0}})",
                                       R"({"metrics":{}})");
  EXPECT_FALSE(missing.ok);
  EXPECT_NE(missing.Render().find("metric missing"), std::string::npos);
  // Metrics only in the current report are ignored (additions are not
  // regressions).
  EXPECT_TRUE(BaselineGate::Compare(R"({"metrics":{"a_us":5.0}})",
                                    R"({"metrics":{"a_us":5.0,"new_us":9.0}})")
                  .ok);
}

TEST(BaselineGate, MalformedInputLandsInErrors) {
  auto result = BaselineGate::Compare("{not json", R"({"metrics":{}})");
  EXPECT_FALSE(result.ok);
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_NE(result.Render().find("ERROR baseline"), std::string::npos);
  EXPECT_FALSE(BaselineGate::Compare(R"({"metrics":{}})", "[]").ok);
}

// A relative band over a zero baseline would make *any* nonzero current
// an infinite-percent regression. The gate skips the band instead of
// dividing by zero: a zero-baseline entry under tolerance admits every
// finite current.
TEST(BaselineGate, ZeroBaselineSkipsRelativeBand) {
  auto result = BaselineGate::Compare(
      R"({"metrics":{"warmup_us":0.0,"crawl_us":100.0}})",
      R"({"metrics":{"warmup_us":734.0,"crawl_us":100.0}})");
  EXPECT_TRUE(result.ok);
  ASSERT_EQ(result.checks.size(), 2u);
  const BaselineCheck* zero = nullptr;
  for (const auto& check : result.checks) {
    if (check.metric == "warmup_us") zero = &check;
  }
  ASSERT_NE(zero, nullptr);
  EXPECT_TRUE(zero->ok);
  EXPECT_TRUE(std::isinf(zero->allowed_max));
  EXPECT_NE(zero->detail.find("zero baseline"), std::string::npos);
  // An exact pin (tolerance 0) on a zero baseline still pins: the guard
  // applies only to the relative band.
  EXPECT_FALSE(BaselineGate::Compare(
                   R"({"metrics":{"warmup_us":0.0},"tolerance":{"warmup_us":0}})",
                   R"({"metrics":{"warmup_us":1.0}})")
                   .ok);
}

// ---------------------------------------------------------------------------
// Fail-soft journal validation (validate-telemetry --journal).

std::string SampleJournalJsonl() {
  Journal journal;
  journal.Emit(10, "proxy", "flow_open").Str("host", "a.example.com");
  journal.Emit(20, "proxy", "flow_close").Num("bytes", uint64_t{128});
  journal.Emit(30, "fleet", "job_start").Num("shard", int64_t{0});
  journal.Emit(40, "fleet", "job_done").Num("shard", int64_t{0});
  return journal.Jsonl();
}

TEST(JournalValidation, AcceptsIntactJournal) {
  JournalValidation validation = ValidateJournalJsonl(SampleJournalJsonl());
  EXPECT_TRUE(validation.ok);
  EXPECT_TRUE(validation.header_ok);
  EXPECT_FALSE(validation.truncated);
  EXPECT_EQ(validation.valid_events, 4u);
  EXPECT_EQ(validation.declared_events, 4u);
}

// The regression the satellite pins: a journal cut mid-event (crash,
// full disk) reports its valid prefix instead of a bare parse error.
TEST(JournalValidation, TruncationMidEventReportsValidPrefix) {
  std::string jsonl = SampleJournalJsonl();
  // Cut inside the third event line (seq 2): events 0 and 1 survive.
  size_t third = jsonl.find("{\"seq\":2,");
  ASSERT_NE(third, std::string::npos);
  JournalValidation validation =
      ValidateJournalJsonl(std::string_view(jsonl).substr(0, third + 12));
  EXPECT_FALSE(validation.ok);
  EXPECT_TRUE(validation.header_ok);
  EXPECT_TRUE(validation.truncated);
  EXPECT_EQ(validation.valid_events, 2u);
  EXPECT_EQ(validation.declared_events, 4u);
}

TEST(JournalValidation, TruncationAtLineBoundaryIsStillTruncation) {
  std::string jsonl = SampleJournalJsonl();
  size_t third = jsonl.find("{\"seq\":2,");
  ASSERT_NE(third, std::string::npos);
  // Clean cut right after event 1's newline: fewer events than declared.
  JournalValidation validation =
      ValidateJournalJsonl(std::string_view(jsonl).substr(0, third));
  EXPECT_FALSE(validation.ok);
  EXPECT_TRUE(validation.truncated);
  EXPECT_EQ(validation.valid_events, 2u);
}

TEST(JournalValidation, MidFileCorruptionIsAHardErrorNotTruncation) {
  std::string jsonl = SampleJournalJsonl();
  size_t second = jsonl.find("{\"seq\":1,");
  ASSERT_NE(second, std::string::npos);
  jsonl[second] = '#';  // garbage with intact lines after it
  JournalValidation validation = ValidateJournalJsonl(jsonl);
  EXPECT_FALSE(validation.ok);
  EXPECT_FALSE(validation.truncated);
  EXPECT_EQ(validation.valid_events, 1u);
  EXPECT_FALSE(validation.error.empty());
}

TEST(JournalValidation, BadHeaderIsAHardError) {
  JournalValidation missing = ValidateJournalJsonl("");
  EXPECT_FALSE(missing.ok);
  EXPECT_FALSE(missing.header_ok);
  JournalValidation wrong_schema =
      ValidateJournalJsonl("{\"journal_schema\":99,\"events\":0}\n");
  EXPECT_FALSE(wrong_schema.ok);
  EXPECT_FALSE(wrong_schema.header_ok);
  EXPECT_FALSE(wrong_schema.truncated);
}

}  // namespace
}  // namespace panoptes::obs
