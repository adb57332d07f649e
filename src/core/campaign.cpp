#include "core/campaign.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string_view>

#include "analysis/flow_index.h"
#include "browser/cdp.h"
#include "obs/journal.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"
#include "util/logging.h"
#include "util/rng.h"

namespace panoptes::core {

namespace {

// Bounded exponential backoff with deterministic jitter. `failures` is
// the number of failed attempts so far (>= 1). Advances only the
// simulated clock, never the wall clock.
util::Duration BackoffDelay(const VisitRetryPolicy& policy, int failures,
                            util::Rng& rng) {
  double delay = static_cast<double>(policy.base_backoff.millis) *
                 std::pow(policy.multiplier, failures - 1);
  delay = std::min(delay, static_cast<double>(policy.max_backoff.millis));
  if (policy.jitter > 0) {
    delay *= 1.0 + policy.jitter * (2.0 * rng.NextDouble() - 1.0);
  }
  return util::Duration::Millis(static_cast<int64_t>(delay));
}

// The injected fault kind observed since `events_before`, for the
// manifest's per-visit cause. Empty when the failure was not caused by
// an injected fault.
std::string FaultCauseSince(const chaos::Injector* injector,
                            size_t events_before) {
  if (injector == nullptr) return "";
  const auto& events = injector->events();
  if (events.size() <= events_before) return "";
  return std::string(chaos::FaultKindName(events[events_before].kind));
}

// How a capture session treats the engine (tainted) side.
enum class EngineCapture { kNone, kCompact, kFull };

// The capture every campaign shares (Fig. 1); only the driver — site
// visits or idle ticks — differs between a crawl, an idle run and a
// window. The session prepares the browser and points the taint addon
// at budgeted StreamBuffers: each completed flow is pushed into one,
// which keeps the live ring, updates the incremental index, and
// spills/sheds under memory pressure. Without an engine buffer the
// engine sink stays detached (tainted flows are counted, not stored).
class CaptureSession {
 public:
  CaptureSession(Framework& framework, const browser::BrowserSpec& spec,
                 bool factory_reset, const StreamOptions& stream,
                 EngineCapture engine)
      : framework_(framework),
        browser_(spec.name),
        runtime_(framework.PrepareBrowser(spec, factory_reset)),
        // Provenance tags: every flow stored below gets a uid of
        // (tag << 32) | ordinal, resolvable across the whole fleet run.
        engine_tag_(proxy::MakeProvenanceTag(framework.options().seed,
                                             /*role=*/0)),
        native_tag_(proxy::MakeProvenanceTag(framework.options().seed,
                                             /*role=*/1)) {
    StreamBuffer::Config config;
    config.seed = framework.options().seed;
    config.stream = stream;
    config.chaos = framework.chaos();
    config.journal = framework.journal();
    config.telemetry = framework.telemetry();
    config.clock = &framework.clock();
    if (engine != EngineCapture::kNone) {
      config.compact = engine == EngineCapture::kCompact;
      config.provenance_tag = engine_tag_;
      config.role = "engine";
      engine_.emplace(config);
    }
    config.compact = false;
    config.provenance_tag = native_tag_;
    config.role = "native";
    native_.emplace(config);
    framework.taint_addon().SetSinks(engine_ ? &*engine_ : nullptr,
                                     &*native_);
    fault_flows_before_ = framework.taint_addon().fault_injected_flows();
  }

  browser::BrowserRuntime& runtime() { return runtime_; }
  uint32_t engine_tag() const { return engine_tag_; }
  uint32_t native_tag() const { return native_tag_; }
  StreamBuffer& engine() { return *engine_; }
  StreamBuffer& native() { return *native_; }

  // A "campaign" journal event stamped now and naming the browser;
  // nullopt when the job keeps no journal.
  std::optional<obs::Journal::EventRef> Event(std::string_view kind) {
    obs::Journal* journal = framework_.journal();
    if (journal == nullptr) return std::nullopt;
    obs::Journal::EventRef event =
        journal->Emit(framework_.clock().Now().millis, "campaign", kind);
    event.Str("browser", browser_);
    return event;
  }

  // Watchdog: a wedged job (chaos timeouts and retries can stretch the
  // simulated timeline arbitrarily) is cancelled once `elapsed` reaches
  // `deadline` (0 = no watchdog) and routed through the fleet's
  // retry/quarantine machinery. `progress` says how far the run got.
  bool WatchdogFired(util::Duration deadline, util::Duration elapsed,
                     std::string_view progress_key, int64_t progress) {
    if (deadline.millis <= 0 || elapsed < deadline) return false;
    watchdog_cancelled_ = true;
    if (auto event = Event("watchdog_cancel")) {
      event->Num(progress_key, progress)
          .Num("deadline_millis", deadline.millis);
    }
    return true;
  }

  // Ends the capture: detaches both sinks and stamps `result` with the
  // accounting every campaign reports.
  template <typename Result>
  void Stop(Result* result) {
    result->fault_injected_flows =
        framework_.taint_addon().fault_injected_flows() - fault_flows_before_;
    result->watchdog_cancelled = watchdog_cancelled_;
    framework_.taint_addon().SetSinks(nullptr, nullptr);
  }

 private:
  Framework& framework_;
  std::string_view browser_;
  browser::BrowserRuntime& runtime_;
  const uint32_t engine_tag_;
  const uint32_t native_tag_;
  std::optional<StreamBuffer> engine_;
  std::optional<StreamBuffer> native_;
  uint64_t fault_flows_before_ = 0;
  bool watchdog_cancelled_ = false;
};

// Drains a stopped buffer: spill segments are read back and folded, with
// the live remainder, into one store — byte-identical to an unbounded
// batch capture — and the incremental index rides along (rebuilt from
// the salvaged prefix if a segment was corrupt). The store outlives the
// job's framework, so it is cut loose from its injector, journal and
// telemetry; the writes chaos dropped, in any segment, are counted first.
void Drain(StreamBuffer& buffer, obs::JobTelemetry* telemetry,
           IngestStats* ingest, std::unique_ptr<proxy::FlowStore>* flows,
           std::unique_ptr<analysis::FlowIndex>* index) {
  telemetry->flow_writes_dropped += buffer.dropped_writes();
  auto out = buffer.Materialize();
  ingest->Accumulate(buffer.stats());
  *flows = std::move(out.store);
  (*flows)->SetChaos(nullptr);
  (*flows)->SetJournal(nullptr);
  (*flows)->SetTelemetry(nullptr);
  *index = std::make_unique<analysis::FlowIndex>(std::move(out.index));
}

// Fills the job's scope from the counts a finished capture keeps itself:
// its ingest stats, whether the watchdog cancelled it, and the native
// flows it kept.
void AccountCapture(const IngestStats& ingest, bool watchdog_cancelled,
                    uint64_t native_flows, obs::JobTelemetry* telemetry) {
  telemetry->flows_pushed += ingest.flows_pushed;
  telemetry->flows_shed += ingest.flows_shed;
  telemetry->spill_segments += ingest.spill_segments;
  telemetry->spill_bytes += ingest.spill_bytes;
  telemetry->spill_failures += ingest.spill_failures;
  telemetry->backpressure_stalls += ingest.backpressure_stalls;
  telemetry->segments_quarantined += ingest.segments_quarantined;
  telemetry->peak_live_bytes =
      std::max(telemetry->peak_live_bytes, ingest.peak_live_bytes);
  telemetry->watchdog_cancels += watchdog_cancelled ? 1 : 0;
  telemetry->native_flows += native_flows;
}

}  // namespace

double CaptureResult::ShareToHost(std::string_view host) const {
  if (native_flows->empty()) return 0;
  const auto* postings = native_index->FlowsToHost(host);
  const size_t to_host = postings != nullptr ? postings->size() : 0;
  return static_cast<double>(to_host) /
         static_cast<double>(native_flows->size());
}

double CaptureResult::ShareToDomain(std::string_view domain) const {
  if (native_flows->empty()) return 0;
  size_t to_domain = 0;
  // Registrable domains are precomputed per distinct host; summing
  // postings replaces a per-flow RegistrableDomain walk.
  for (uint32_t id = 0; id < native_index->hosts().size(); ++id) {
    if (native_index->host(id).domain == domain) {
      to_domain += native_index->by_host()[id].size();
    }
  }
  return static_cast<double>(to_domain) /
         static_cast<double>(native_flows->size());
}

int64_t VisitOfFlow(uint64_t uid, const std::vector<VisitRecord>& visits) {
  if (uid == 0) return -1;
  const uint32_t tag = static_cast<uint32_t>(uid >> 32);
  const uint32_t ord = static_cast<uint32_t>(uid);
  for (size_t v = 0; v < visits.size(); ++v) {
    const VisitRecord& rec = visits[v];
    if ((rec.native_tag == tag && ord >= rec.native_flow_begin &&
         ord < rec.native_flow_end) ||
        (rec.engine_tag == tag && ord >= rec.engine_flow_begin &&
         ord < rec.engine_flow_end)) {
      return static_cast<int64_t>(v);
    }
  }
  return -1;
}

double NativeRatio(uint64_t engine_requests, uint64_t native_requests) {
  const uint64_t total = engine_requests + native_requests;
  if (total == 0) return 0;
  return static_cast<double>(native_requests) / static_cast<double>(total);
}

std::array<CrawlResult::Side, 2> CrawlResult::Sides() const {
  return {{{*native_flows, *native_index, false},
           {*engine_flows, *engine_index, true}}};
}

CrawlResult RunCrawl(Framework& framework, const browser::BrowserSpec& spec,
                     const std::vector<const web::Site*>& sites,
                     const CrawlOptions& options) {
  obs::ScopedSpan crawl_span("campaign.crawl", "campaign");
  crawl_span.Arg("browser", spec.name);
  crawl_span.Arg("sites", static_cast<int64_t>(sites.size()));
  if (options.incognito) crawl_span.Arg("incognito", "true");

  CrawlResult result;
  result.browser = spec.name;
  result.incognito_requested = options.incognito;
  result.incognito_effective = options.incognito && spec.has_incognito;

  CaptureSession session(framework, spec, options.factory_reset,
                         options.stream,
                         options.compact_engine_store
                             ? EngineCapture::kCompact
                             : EngineCapture::kFull);
  framework.netstack().ResetStats();
  chaos::Injector* injector = framework.chaos();
  obs::Journal* journal = framework.journal();
  StreamBuffer& engine_buffer = session.engine();
  StreamBuffer& native_buffer = session.native();

  if (auto event = session.Event("crawl_begin")) {
    event->Num("sites", static_cast<uint64_t>(sites.size()))
        .Num("engine_tag", static_cast<uint64_t>(session.engine_tag()))
        .Num("native_tag", static_cast<uint64_t>(session.native_tag()))
        .BoolF("incognito", options.incognito);
  }
  // Deterministic jitter stream for retry backoff: derived from the
  // framework seed, consumed in visit order.
  util::Rng backoff_rng(framework.options().seed ^ 0xBAC0FFull);

  // Navigation is driven through CDP (Page.navigate) or, for browsers
  // without a CDP endpoint, a Frida WebView hook — never the address
  // bar, so autocomplete cannot pollute the traces (§2.1).
  auto driver = browser::MakeDriver(&session.runtime());
  driver->Attach();

  const util::SimTime campaign_start = framework.clock().Now();
  session.runtime().Startup();

  for (const web::Site* site : sites) {
    if (session.WatchdogFired(options.watchdog_deadline,
                              framework.clock().Now() - campaign_start,
                              "visits_done",
                              static_cast<int64_t>(result.visits.size()))) {
      break;
    }
    obs::ScopedSpan visit_span("campaign.visit", "campaign");
    visit_span.Arg("host", site->hostname);

    VisitRecord record;
    record.hostname = site->hostname;
    record.category = site->category;
    record.engine_tag = session.engine_tag();
    record.native_tag = session.native_tag();
    if (journal != nullptr) {
      journal->Emit(framework.clock().Now().millis, "campaign", "visit_begin")
          .Str("host", site->hostname)
          .Num("visit", static_cast<uint64_t>(result.visits.size()));
    }

    // Self-healing visit loop: a failed attempt rolls both sinks back
    // to their pre-attempt marks (retries never double-count flows —
    // store and incremental index together), backs off on the simulated
    // clock, and tries again with the same driver. With the default
    // policy (max_retries = 0) this runs the single attempt of the
    // legacy path.
    const uint64_t engine_mark = engine_buffer.FlowCount();
    const uint64_t native_mark = native_buffer.FlowCount();
    engine_buffer.BeginTransaction();
    native_buffer.BeginTransaction();
    browser::NavigateOutcome outcome;
    int failures = 0;
    for (;;) {
      const size_t events_before =
          injector != nullptr ? injector->events().size() : 0;
      outcome = driver->Navigate(site->landing_url, options.incognito);
      framework.clock().Advance(options.settle);
      record.attempts = failures + 1;
      if (outcome.page.ok) break;
      ++failures;
      record.fault_cause = FaultCauseSince(injector, events_before);
      if (record.fault_cause.empty()) record.fault_cause = "page-load-failed";
      if (failures > options.retry.max_retries) {
        if (options.retry.max_retries > 0) {
          // Final failure under an active retry policy: a degraded
          // visit contributes nothing, partial flows included.
          engine_buffer.RollbackTransaction();
          native_buffer.RollbackTransaction();
        }
        break;
      }
      engine_buffer.RollbackTransaction();
      native_buffer.RollbackTransaction();
      util::Duration delay =
          BackoffDelay(options.retry, failures, backoff_rng);
      if (journal != nullptr) {
        journal->Emit(framework.clock().Now().millis, "campaign",
                      "visit_retry")
            .Str("host", site->hostname)
            .Num("failures", static_cast<int64_t>(failures))
            .Str("cause", record.fault_cause)
            .Num("backoff_millis", delay.millis);
      }
      framework.clock().Advance(delay);
      record.backoff_millis += delay.millis;
      framework.telemetry()->backoff_millis.push_back(delay.millis);
    }

    // Close the visit transaction; commit releases the spill deferral,
    // so a budgeted buffer seals at visit boundaries.
    engine_buffer.CommitTransaction();
    native_buffer.CommitTransaction();

    record.ok = outcome.page.ok;
    record.dom_content_loaded = outcome.page.dom_content_loaded;
    record.incognito_honored = outcome.incognito_honored;
    record.engine_requests = outcome.page.requests_attempted;
    record.blocked_by_adblock = outcome.page.blocked_by_adblock;
    // Final (post-rollback) flow ordinal ranges: the uid span this
    // visit contributed to each store, for finding→visit resolution.
    // FlowCount is the global ordinal, so the ranges stay valid when
    // earlier flows have been spilled out of the live store.
    record.engine_flow_begin = static_cast<uint32_t>(engine_mark);
    record.engine_flow_end = static_cast<uint32_t>(engine_buffer.FlowCount());
    record.native_flow_begin = static_cast<uint32_t>(native_mark);
    record.native_flow_end = static_cast<uint32_t>(native_buffer.FlowCount());
    if (journal != nullptr) {
      journal->Emit(framework.clock().Now().millis, "campaign", "visit_end")
          .Str("host", site->hostname)
          .Num("visit", static_cast<uint64_t>(result.visits.size()))
          .BoolF("ok", record.ok)
          .Num("attempts", static_cast<int64_t>(record.attempts))
          .Str("fault_cause", record.fault_cause)
          .Num("engine_flows", static_cast<uint64_t>(record.engine_flow_end -
                                                     record.engine_flow_begin))
          .Num("native_flows", static_cast<uint64_t>(record.native_flow_end -
                                                     record.native_flow_begin));
    }
    result.visits.push_back(std::move(record));
  }

  result.stack_stats = framework.netstack().stats();
  session.Stop(&result);
  obs::JobTelemetry* telemetry = framework.telemetry();
  Drain(engine_buffer, telemetry, &result.ingest, &result.engine_flows,
        &result.engine_index);
  Drain(native_buffer, telemetry, &result.ingest, &result.native_flows,
        &result.native_index);
  if (auto event = session.Event("crawl_end")) {
    event
        ->Num("engine_flows",
              static_cast<uint64_t>(result.engine_flows->size()))
        .Num("native_flows",
             static_cast<uint64_t>(result.native_flows->size()));
  }
  framework.TeardownBrowser();

  AccountCapture(result.ingest, result.watchdog_cancelled,
                 result.native_flows->size(), telemetry);
  telemetry->engine_flows += result.engine_flows->size();
  telemetry->visits += result.visits.size();
  for (const VisitRecord& visit : result.visits) {
    telemetry->visit_retries += static_cast<uint64_t>(visit.attempts - 1);
  }

  PANOPTES_LOG(kInfo, "crawl")
      << spec.name << ": " << result.visits.size() << " visits, "
      << result.engine_flows->size() << " engine / "
      << result.native_flows->size() << " native flows";
  return result;
}

IdleResult RunIdle(Framework& framework, const browser::BrowserSpec& spec,
                   const IdleOptions& options) {
  obs::ScopedSpan idle_span("campaign.idle", "campaign");
  idle_span.Arg("browser", spec.name);

  IdleResult result;
  result.browser = spec.name;
  result.bucket = options.bucket;

  // Idle runs only need the native database.
  CaptureSession session(framework, spec, options.factory_reset,
                         options.stream, EngineCapture::kNone);
  if (auto event = session.Event("idle_begin")) {
    event->Num("native_tag", static_cast<uint64_t>(session.native_tag()))
        .Num("duration_millis", options.duration.millis);
  }

  util::SimTime start = framework.clock().Now();
  session.runtime().Startup();  // launch traffic is part of the idle timeline

  util::Duration elapsed{0};
  util::Duration next_bucket = options.bucket;
  while (elapsed < options.duration) {
    if (session.WatchdogFired(options.watchdog_deadline, elapsed,
                              "elapsed_millis", elapsed.millis)) {
      break;
    }
    obs::ScopedSpan tick_span("campaign.idle_tick", "campaign");
    ++framework.telemetry()->idle_ticks;
    framework.clock().Advance(options.tick);
    elapsed = framework.clock().Now() - start;
    session.runtime().IdleTick(elapsed);
    while (elapsed >= next_bucket && next_bucket <= options.duration) {
      result.cumulative_by_bucket.push_back(session.native().FlowCount());
      next_bucket = next_bucket + options.bucket;
    }
  }
  while (result.cumulative_by_bucket.size() <
         static_cast<size_t>(options.duration.millis /
                             options.bucket.millis)) {
    result.cumulative_by_bucket.push_back(session.native().FlowCount());
  }

  session.Stop(&result);
  Drain(session.native(), framework.telemetry(), &result.ingest,
        &result.native_flows, &result.native_index);
  if (auto event = session.Event("idle_end")) {
    event->Num("native_flows",
               static_cast<uint64_t>(result.native_flows->size()));
  }
  framework.TeardownBrowser();
  AccountCapture(result.ingest, result.watchdog_cancelled,
                 result.native_flows->size(), framework.telemetry());
  return result;
}

WindowResult RunWindow(Framework& framework, const browser::BrowserSpec& spec,
                       const WindowOptions& options) {
  obs::ScopedSpan window_span("campaign.window", "campaign");
  window_span.Arg("browser", spec.name);

  WindowResult result;
  result.browser = spec.name;

  CaptureSession session(framework, spec, /*factory_reset=*/true,
                         options.stream, EngineCapture::kNone);
  if (auto event = session.Event("window_begin")) {
    event->Num("native_tag", static_cast<uint64_t>(session.native_tag()))
        .Num("window_millis", options.window.millis);
  }

  util::SimTime start = framework.clock().Now();
  session.runtime().Startup();

  util::Duration elapsed{0};
  while (elapsed < options.window) {
    if (session.WatchdogFired(options.watchdog_deadline, elapsed,
                              "elapsed_millis", elapsed.millis)) {
      break;
    }
    ++framework.telemetry()->idle_ticks;
    framework.clock().Advance(options.tick);
    elapsed = framework.clock().Now() - start;
    session.runtime().IdleTick(elapsed);
  }

  session.Stop(&result);
  // Rolling-window contract: no terminal batch pass. The report is
  // answered from the live incremental index; spilled flows stay on
  // disk and are discarded with the buffer.
  result.native_flows = session.native().FlowCount();
  result.ingest = session.native().stats();
  result.native_index = session.native().TakeIndex();
  framework.telemetry()->flow_writes_dropped +=
      session.native().dropped_writes();
  if (auto event = session.Event("window_end")) {
    event->Num("native_flows", result.native_flows)
        .Num("flows_shed", result.ingest.flows_shed);
  }
  framework.TeardownBrowser();
  AccountCapture(result.ingest, result.watchdog_cancelled,
                 result.native_index.flow_count(), framework.telemetry());
  return result;
}

}  // namespace panoptes::core
