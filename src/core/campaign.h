// Crawl and idle campaigns (paper §2.1 / §3.5).
//
// A crawl campaign factory-resets the browser, launches it, then for
// every site navigates directly via CDP/Frida (never the address bar),
// waits for DOMContentLoaded (60 s budget) plus a 5-second settle
// period, and stores the engine/native flow split. An idle campaign
// launches the browser at its start page and monitors it untouched for
// 10 minutes, bucketing native requests over time (Fig 5).
#pragma once

#include <array>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/framework.h"
#include "core/stream_buffer.h"
#include "proxy/flowstore.h"
#include "web/site.h"

namespace panoptes::core {

// Self-healing knobs for a crawl. Retries are deterministic: the
// backoff delay advances the *simulated* clock only, and the jitter
// stream is derived from the framework seed, so the same (seed,
// profile) replays the same retry timeline. The default (max_retries
// = 0) reproduces the legacy single-attempt behavior bit for bit.
struct VisitRetryPolicy {
  int max_retries = 0;  // extra attempts after the first failure
  util::Duration base_backoff = util::Duration::Millis(500);
  double multiplier = 2.0;
  util::Duration max_backoff = util::Duration::Seconds(30);
  double jitter = 0.2;  // +/- fraction applied to each delay
};

struct CrawlOptions {
  bool incognito = false;
  bool factory_reset = true;
  util::Duration settle = util::Duration::Seconds(5);
  // The engine database is compact (no headers/bodies) by default to
  // bound memory over 1000-site crawls; analyses that need engine
  // headers (Referer leakage) ask for a full store.
  bool compact_engine_store = true;
  VisitRetryPolicy retry;
  // Streaming ingest knobs (memory budget / spill / shed); the default
  // is unbounded and reproduces the batch capture bit for bit.
  StreamOptions stream;
  // Cancel the campaign once this much simulated time has elapsed
  // since its start (0 = no watchdog). A cancelled job reports
  // watchdog_cancelled and is routed through the fleet's retry /
  // quarantine machinery.
  util::Duration watchdog_deadline{0};
};

struct VisitRecord {
  std::string hostname;
  web::SiteCategory category = web::SiteCategory::kPopular;
  bool ok = false;
  bool dom_content_loaded = false;
  bool incognito_honored = true;
  int engine_requests = 0;
  int blocked_by_adblock = 0;
  // Degradation accounting (run manifest): how many attempts this
  // visit took, the injected fault kind observed on the last failed
  // attempt (empty when the visit never failed), and the total
  // simulated backoff spent between attempts.
  int attempts = 1;
  std::string fault_cause;
  int64_t backoff_millis = 0;
  // Provenance: the ordinal ranges [.._flow_begin, .._flow_end) of the
  // flows this visit contributed to each store (final, post-rollback),
  // recorded so a flow uid — (store tag << 32) | ordinal — maps back to
  // the visit that captured it. The tags identify which stores the
  // ordinals refer to (engine/native of this job's crawl).
  uint32_t engine_tag = 0;
  uint32_t native_tag = 0;
  uint32_t engine_flow_begin = 0;
  uint32_t engine_flow_end = 0;
  uint32_t native_flow_begin = 0;
  uint32_t native_flow_end = 0;
};

// The visit (index into `visits`) that captured the flow with provenance
// uid `uid`: the uid's tag names the store (engine or native side of one
// job attempt) and its ordinal falls in exactly one visit's recorded
// range. -1 when no visit matches (idle traffic, or uid 0 from a store
// without provenance tags). Ranges survive MergeShards because each
// VisitRecord keeps its original tag and store-local ordinals. Every
// report and `panoptes_cli explain` resolve uids through this.
int64_t VisitOfFlow(uint64_t uid, const std::vector<VisitRecord>& visits);

// Fig 2's black line: native / (engine + native), 0 when both are 0. The
// one definition of the ratio: an idle capture (no engine side) scores 1
// once it has any flow.
double NativeRatio(uint64_t engine_requests, uint64_t native_requests);

// The capture every campaign shares (Fig. 1): one browser's native
// (untainted) flow database with its index, plus the accounting of the
// capture that filled it. Crawls add the engine side and their visits;
// idle runs add the request timeline.
struct CaptureResult {
  std::string browser;
  std::unique_ptr<proxy::FlowStore> native_flows;  // full
  // Columnar index over the store, built once at capture end (or
  // merged from shard indexes, or rebuilt from the store when the job
  // replays from its snapshot, which persists only the store).
  // Invariant: never null, and flow_count() equals its store's size() —
  // analyses consume (store, index) pairs and have no store-only path.
  // Code assembling a result by hand builds it (FlowIndex::Build).
  // Owned like the store beside it: a shard merge appends in place.
  std::unique_ptr<analysis::FlowIndex> native_index;
  // Chaos-synthesized flows observed (and excluded from the stores).
  uint64_t fault_injected_flows = 0;
  // Streaming ingest accounting (every buffer of the capture summed).
  IngestStats ingest;
  // True when the campaign watchdog cancelled the run.
  bool watchdog_cancelled = false;

  // Fraction of native requests that went to `host` (§3.5 shares).
  double ShareToHost(std::string_view host) const;
  double ShareToDomain(std::string_view domain) const;
};

struct CrawlResult : CaptureResult {
  bool incognito_requested = false;
  // True only if the browser actually has an incognito mode.
  bool incognito_effective = false;
  // The engine (tainted) store — compact unless compact_engine_store is
  // off — and its index, under the same invariant as native_index.
  std::unique_ptr<proxy::FlowStore> engine_flows;
  std::unique_ptr<analysis::FlowIndex> engine_index;
  std::vector<VisitRecord> visits;
  device::NetworkStackStats stack_stats;

  uint64_t EngineRequestCount() const { return engine_flows->size(); }
  uint64_t NativeRequestCount() const { return native_flows->size(); }
  double NativeRatio() const {
    return core::NativeRatio(EngineRequestCount(), NativeRequestCount());
  }

  // One capture side as the (store, index) pair analyses consume;
  // `engine` marks the tainted engine side.
  struct Side {
    const proxy::FlowStore& flows;
    const analysis::FlowIndex& index;
    bool engine;
  };
  // Native side first, then engine.
  std::array<Side, 2> Sides() const;
};

// Crawls `sites` with `spec`'s browser. The framework's taint addon is
// pointed at fresh stores for the duration of the run.
CrawlResult RunCrawl(Framework& framework, const browser::BrowserSpec& spec,
                     const std::vector<const web::Site*>& sites,
                     const CrawlOptions& options = {});

struct IdleOptions {
  util::Duration duration = util::Duration::Minutes(10);
  util::Duration tick = util::Duration::Seconds(1);
  util::Duration bucket = util::Duration::Seconds(10);
  bool factory_reset = true;
  StreamOptions stream;
  util::Duration watchdog_deadline{0};
};

struct IdleResult : CaptureResult {
  // Cumulative native request count at the end of each bucket.
  std::vector<uint64_t> cumulative_by_bucket;
  util::Duration bucket;
};

IdleResult RunIdle(Framework& framework, const browser::BrowserSpec& spec,
                   const IdleOptions& options = {});

// Rolling-window campaign (ROADMAP item 2): a long continuous idle-style
// run whose report is answered from the live incremental index — there
// is no terminal Materialize/batch pass, so memory stays bounded by the
// stream budget however long the window runs.
struct WindowOptions {
  util::Duration window = util::Duration::Minutes(10);
  util::Duration tick = util::Duration::Seconds(1);
  StreamOptions stream;
  util::Duration watchdog_deadline{0};
};

struct WindowResult {
  std::string browser;
  // The incremental index over every accepted native flow, taken from
  // the live buffer at window end. Reports derive from this alone.
  analysis::FlowIndex native_index;
  uint64_t native_flows = 0;
  uint64_t fault_injected_flows = 0;
  IngestStats ingest;
  bool watchdog_cancelled = false;
};

WindowResult RunWindow(Framework& framework, const browser::BrowserSpec& spec,
                       const WindowOptions& options = {});

}  // namespace panoptes::core
