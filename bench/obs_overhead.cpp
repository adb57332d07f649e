// Telemetry overhead: the obs:: acceptance gate.
//
// The budget is <2% overhead for metrics on a fleet crawl. Each
// benchmark runs a small fleet campaign with the instrumentation toggled
// by the benchmark argument (0 = disabled, 1 = enabled), so the
// enabled/disabled delta on the SAME binary is the true cost of the
// instrumentation. Micro-benchmarks of a single counter increment and a
// single span round out the per-event cost picture. Numbers are recorded
// in EXPERIMENTS.md.
#include <benchmark/benchmark.h>
#include <time.h>

#include <algorithm>
#include <vector>

#include "bench_common.h"
#include "browser/profiles.h"
#include "core/fleet.h"
#include "device/population.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"
#include "util/rng.h"

using namespace panoptes;

namespace {

// A fleet crawl sized like the unit-test fleets: full-ish roster work
// without making each iteration take seconds.
core::FleetOptions MakeFleetOptions() {
  core::FleetOptions options;
  options.jobs = 2;
  options.framework.catalog.popular_count = 4;
  options.framework.catalog.sensitive_count = 2;
  return options;
}

core::FleetExecutor MakeExecutor() {
  return core::FleetExecutor(MakeFleetOptions());
}

std::vector<core::FleetJob> MakeJobs() {
  return core::FleetExecutor::PlanCampaign(
      {*browser::FindSpec("Yandex"), *browser::FindSpec("Opera"),
       *browser::FindSpec("DuckDuckGo")},
      {core::CampaignKind::kCrawl}, 2);
}

// The same three browsers over 17 device cohorts: 102 small jobs, so one
// run is mostly job work rather than worker start and join.
std::vector<core::FleetJob> MakeManyJobs() {
  return core::FleetExecutor::PlanCampaign(
      {*browser::FindSpec("Yandex"), *browser::FindSpec("Opera"),
       *browser::FindSpec("DuckDuckGo")},
      device::PopulationGenerator::Generate(17, 20231024),
      {core::CampaignKind::kCrawl}, 2);
}

// arg 0: metrics disabled. arg 1: metrics enabled (the default state).
// Timed as the process's CPU time over a 102-job run: what the toggle
// gates is CPU work (per-job gauge and timer updates, one publish per
// run), and CPU time does not count the waits that make wall time on a
// shared host spread wider than the 2% budget.
void BM_MetricsOverhead(benchmark::State& state) {
  bool enabled = state.range(0) != 0;
  auto options = MakeFleetOptions();
  options.jobs = 1;
  core::FleetExecutor executor(options);
  auto jobs = MakeManyJobs();
  obs::SetMetricsEnabled(enabled);
  for (auto _ : state) {
    auto results = executor.Run(jobs);
    benchmark::DoNotOptimize(results);
  }
  obs::SetMetricsEnabled(true);
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(jobs.size()) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MetricsOverhead)
    ->ArgName("enabled")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();

// arg 0: tracer off (the default). arg 1: spans recorded for every
// fleet job, campaign, visit and report. The tracer buffer is cleared
// each iteration so memory stays bounded and record cost (not realloc
// growth) dominates.
void BM_TraceOverhead(benchmark::State& state) {
  bool enabled = state.range(0) != 0;
  auto executor = MakeExecutor();
  auto jobs = MakeJobs();
  obs::Tracer::Default().SetEnabled(enabled);
  for (auto _ : state) {
    auto results = executor.Run(jobs);
    benchmark::DoNotOptimize(results);
    if (enabled) {
      state.PauseTiming();
      obs::Tracer::Default().Clear();
      state.ResumeTiming();
    }
  }
  obs::Tracer::Default().SetEnabled(false);
  obs::Tracer::Default().Clear();
}
BENCHMARK(BM_TraceOverhead)
    ->ArgName("enabled")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// arg 0: journal off (the default). arg 1: every layer emits journal
// events into the per-job buffers and the merged run journal is
// serialized — the full observatory write path. The acceptance budget
// is <2% over the disabled run.
void BM_JournalOverhead(benchmark::State& state) {
  bool enabled = state.range(0) != 0;
  auto options = MakeFleetOptions();
  options.journal = enabled;
  core::FleetExecutor executor(options);
  auto jobs = MakeJobs();
  for (auto _ : state) {
    auto results = executor.Run(jobs);
    if (enabled) {
      obs::Journal journal;
      core::FleetExecutor::MergeJournal(results, &journal);
      auto jsonl = journal.Jsonl();
      benchmark::DoNotOptimize(jsonl);
    }
    benchmark::DoNotOptimize(results);
  }
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(jobs.size()) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_JournalOverhead)
    ->ArgName("enabled")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Per-event floor: one counter increment (the proxy does a handful per
// flow).
void BM_CounterInc(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.GetCounter("bench_events_total");
  for (auto _ : state) {
    counter.Inc();
  }
  benchmark::DoNotOptimize(counter.Value());
}
BENCHMARK(BM_CounterInc);

// What the metrics toggle gates per fleet run besides a few fleet
// gauge and timer updates per job: the one publish of the run's folded
// job scopes. Resolvable where BM_MetricsOverhead's run-to-run noise is
// not.
void BM_PublishFoldedScope(benchmark::State& state) {
  obs::JobTelemetry fold;
  for (const auto& result : MakeExecutor().Run(MakeJobs())) {
    fold.Accumulate(result.telemetry);
  }
  obs::MetricsRegistry registry;
  const obs::Families families(registry);
  for (auto _ : state) {
    families.Publish(fold);
  }
  benchmark::DoNotOptimize(
      registry.GetCounter("panoptes_proxy_flows_total").Value());
}
BENCHMARK(BM_PublishFoldedScope);

void BM_HistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram& histogram = registry.GetHistogram("bench_seconds");
  double value = 0.0;
  for (auto _ : state) {
    histogram.Observe(value);
    value += 1e-6;
  }
  benchmark::DoNotOptimize(histogram.Count());
}
BENCHMARK(BM_HistogramObserve);

// One enabled span, including the thread-buffer append.
void BM_ScopedSpan(benchmark::State& state) {
  obs::Tracer tracer;
  tracer.SetEnabled(true);
  for (auto _ : state) {
    obs::ScopedSpan span("bench.span", "bench", tracer);
    benchmark::DoNotOptimize(span.active());
  }
}
BENCHMARK(BM_ScopedSpan);

// The same span while the tracer is disabled: this is what every
// instrumented call site costs in a normal (untraced) run.
void BM_ScopedSpanDisabled(benchmark::State& state) {
  obs::Tracer tracer;
  for (auto _ : state) {
    obs::ScopedSpan span("bench.span", "bench", tracer);
    benchmark::DoNotOptimize(span.active());
  }
}
BENCHMARK(BM_ScopedSpanDisabled);

// CPU seconds this process has spent, over all its threads.
double ProcessCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + now.tv_nsec * 1e-9;
}

}  // namespace

// Custom main: after the google-benchmark pass, measure the journal
// overhead with the interleaved steady-clock median (single-shot
// gbench deltas at these run lengths are noise-bound) and write the
// observatory report. The journal checksum is a determinism pin: the
// merged run journal for this fixed fleet must serialize to the same
// bytes on every machine and at every thread count.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();

  auto jobs = MakeJobs();
  auto off_options = MakeFleetOptions();
  auto on_options = MakeFleetOptions();
  on_options.journal = true;
  core::FleetExecutor off_executor(off_options);
  core::FleetExecutor on_executor(on_options);

  // The gate number is the cost of *running* with the journal enabled
  // (per-event emission on the proxy/campaign hot paths). Merging the
  // per-job buffers and serializing the JSONL is a one-shot export step
  // (the CLI does it once, after the run, next to writing report.json)
  // and is reported separately.
  std::vector<core::FleetJobResult> on_results;
  std::string journal_bytes;
  bench::InterleavedTimer timer;
  timer.Add("journal_off", [&] {
    auto results = off_executor.Run(jobs);
    benchmark::DoNotOptimize(results);
  });
  timer.Add("journal_on", [&] {
    on_results = on_executor.Run(jobs);
    benchmark::DoNotOptimize(on_results);
  });
  timer.Add("journal_export", [&] {
    obs::Journal journal;
    core::FleetExecutor::MergeJournal(on_results, &journal);
    journal_bytes = journal.Jsonl();
    benchmark::DoNotOptimize(journal_bytes);
  });
  timer.Run(/*reps=*/9);
  std::printf("\n--- journal overhead (interleaved medians) ---\n");
  timer.Print();
  double off_s = timer.MedianSeconds("journal_off");
  double on_s = timer.MedianSeconds("journal_on");
  double overhead = off_s > 0 ? on_s / off_s - 1.0 : 0.0;
  std::printf("journal_overhead=%.2f%% (budget <2%%)\n", overhead * 100);

  // The metrics gate: the 102-job plan on one worker, metrics off and on
  // back to back (the order alternating), timed as process CPU time. A
  // slow stretch of a shared host hits both halves of a pair, so it
  // cancels in the pair's ratio; the quartiles of those ratios say
  // whether the delta is resolved against the budget.
  auto many = MakeManyJobs();
  auto serial_options = MakeFleetOptions();
  serial_options.jobs = 1;
  core::FleetExecutor serial(serial_options);
  std::vector<double> deltas;
  for (int rep = 0; rep < 25; ++rep) {
    double cpu_s[2] = {0, 0};
    for (int half = 0; half < 2; ++half) {
      const int enabled = (rep + half) % 2;
      obs::SetMetricsEnabled(enabled != 0);
      const double start = ProcessCpuSeconds();
      auto results = serial.Run(many);
      benchmark::DoNotOptimize(results);
      cpu_s[enabled] = ProcessCpuSeconds() - start;
    }
    deltas.push_back(cpu_s[1] / cpu_s[0] - 1.0);
  }
  obs::SetMetricsEnabled(true);
  std::sort(deltas.begin(), deltas.end());
  const double q1 = deltas[deltas.size() / 4];
  const double median = deltas[deltas.size() / 2];
  const double q3 = deltas[deltas.size() * 3 / 4];
  const char* verdict = q3 < 0.02    ? "within budget"
                        : q1 > 0.02 ? "over budget"
                                     : "unresolved";
  std::printf(
      "\n--- metrics overhead (%zu paired CPU-time runs of %zu jobs) ---\n"
      "metrics_overhead=%.2f%% (quartiles %.2f%%..%.2f%%, budget <2%%: "
      "%s)\n",
      deltas.size(), many.size(), median * 100, q1 * 100, q3 * 100, verdict);

  bench::BenchReport bench_report("obs_overhead");
  timer.Report(bench_report);
  bench_report.Metric("journal_overhead_fraction", overhead);
  bench_report.Metric("metrics_overhead_fraction", median);
  bench_report.Checksum("run_journal", util::HashString(journal_bytes));
  bench_report.Write();
  return 0;
}
