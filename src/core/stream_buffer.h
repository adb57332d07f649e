// Bounded-memory streaming ingest (ROADMAP item 2).
//
// A StreamBuffer is the budgeted proxy::FlowSink a campaign points the
// MITM taint addon at. Flows are pushed as they complete; the buffer
// keeps a ring of recent flows in an arena FlowStore, folds every
// accepted flow into an incremental analysis::FlowIndex (byte-identical
// to the post-hoc batch build — pinned by differential test), and when
// the live store crosses the configured memory budget seals it into an
// PANOSPILL segment on disk and starts a fresh store whose uid
// ordinals continue where the sealed one stopped. Materialize() re-reads
// the segments in order and hands back one merged store + index that
// serialize byte-identically to what an unbounded batch capture would
// have produced.
//
// Robustness contract:
//  - Backpressure: over budget with spill disabled (or failing), the
//    producer either stalls (counted; the flow is still stored, so
//    reports stay byte-identical to batch) or — with shed_when_full —
//    sheds by seeded deterministic sampling. Every shed flow is counted
//    in IngestStats and journaled; shed flows never reach the store or
//    the index, so a degraded run under-reports but never fabricates.
//  - Transactions: the visit-retry rollback spans both the live store
//    (TruncateTo) and the incremental index (RewindTo). Spilling is
//    deferred while a transaction is open so a rollback always finds
//    the attempt's flows still live.
//  - Fail-soft spill: a failed segment write (chaos spill-io or real
//    I/O error) keeps the flows in memory and counts a spill_failure;
//    a truncated/corrupt segment at Materialize time salvages the valid
//    prefix, quarantines the rest on disk (*.quarantined) and rebuilds
//    the index over the salvaged flows — mirroring the corrupt-snapshot
//    path: degraded, accounted, never wrong.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/flow_index.h"
#include "proxy/flowsink.h"
#include "proxy/flowstore.h"
#include "util/clock.h"
#include "util/rng.h"

namespace panoptes::chaos {
class Injector;
}  // namespace panoptes::chaos

namespace panoptes::obs {
class Journal;
struct JobTelemetry;
}  // namespace panoptes::obs

namespace panoptes::core {

// Per-job streaming knobs. The defaults reproduce the unbounded batch
// behaviour bit for bit: no budget, no spill, no shedding.
struct StreamOptions {
  // Live-store byte budget (FlowStore::MemoryUsage); 0 = unbounded.
  uint64_t memory_budget_bytes = 0;
  // Directory for PANOSPILL segments; empty disables spilling.
  std::string spill_dir;
  // Over budget and unable to spill: shed flows by seeded sampling
  // (true) instead of stalling the producer and storing anyway (false).
  bool shed_when_full = false;
};

// Ingest accounting, reported per job in the RunManifest and summed
// across a job's engine/native buffers.
struct IngestStats {
  uint64_t flows_pushed = 0;
  uint64_t flows_shed = 0;
  uint64_t spill_segments = 0;
  uint64_t spill_bytes = 0;
  uint64_t spill_failures = 0;
  uint64_t backpressure_stalls = 0;
  uint64_t segments_quarantined = 0;
  // Flows discarded with quarantined segments at Materialize time.
  uint64_t flows_lost = 0;
  uint64_t peak_live_bytes = 0;

  void Accumulate(const IngestStats& other);
  bool Degraded() const {
    return flows_shed > 0 || spill_failures > 0 ||
           segments_quarantined > 0 || flows_lost > 0;
  }
};

class StreamBuffer : public proxy::FlowSink {
 public:
  struct Config {
    bool compact = false;            // engine store compaction
    uint32_t provenance_tag = 0;
    uint64_t seed = 0;               // shed-sampling stream
    StreamOptions stream;
    chaos::Injector* chaos = nullptr;
    obs::Journal* journal = nullptr;
    // Counts indexed flows, index rebuilds and every store's writes and
    // rollbacks; the IngestStats below stay the buffer's own.
    obs::JobTelemetry* telemetry = nullptr;
    const util::SimClock* clock = nullptr;
    // "engine" / "native": names the stream in journal events, chaos
    // draws and segment files. Must be a static-storage literal (the
    // journal holds the view).
    std::string_view role = "flows";
  };

  explicit StreamBuffer(const Config& config);
  // Removes any segment files Materialize did not consume.
  ~StreamBuffer() override;

  StreamBuffer(const StreamBuffer&) = delete;
  StreamBuffer& operator=(const StreamBuffer&) = delete;

  // FlowSink. Push returns false only for a shed flow.
  bool Push(const proxy::Flow& flow) override;
  uint64_t FlowCount() const override { return live_->FlowCount(); }
  void BeginTransaction() override;
  void CommitTransaction() override;
  void RollbackTransaction() override;

  // The live (most recent) store and the incremental index over every
  // accepted flow, spilled ones included — this is what rolling-window
  // reports answer from without a terminal batch pass.
  const proxy::FlowStore& live() const { return *live_; }
  const analysis::FlowIndex& index() const { return index_; }
  // Moves the live index out (window mode's terminal report — the
  // buffer itself is discarded afterwards, never Materialized).
  analysis::FlowIndex TakeIndex() { return std::move(index_); }

  const IngestStats& stats() const { return stats_; }
  // Dropped-write total across live store and sealed segments.
  uint64_t dropped_writes() const {
    return spilled_dropped_writes_ + live_->dropped_writes();
  }

  // Drains the buffer: re-reads spill segments in order, appends the
  // live remainder and returns one (store, index) pair byte-identical
  // (under SerializeTo) to an unbounded batch capture of the same
  // flows. On a corrupt/truncated segment the valid prefix is salvaged,
  // the rest quarantined (`salvaged` set, flows_lost counted) and the
  // index rebuilt over the salvaged store. The buffer is empty
  // afterwards; further Pushes start a new stream.
  struct Materialized {
    std::unique_ptr<proxy::FlowStore> store;
    analysis::FlowIndex index;
    bool salvaged = false;
  };
  Materialized Materialize();

 private:
  struct Segment {
    std::filesystem::path path;
    uint64_t flow_base = 0;
    uint64_t flows = 0;
    uint64_t bytes = 0;
  };

  std::unique_ptr<proxy::FlowStore> NewLiveStore(uint64_t ordinal_base) const;
  bool OverBudget() const;
  // Seals the live store into a segment when over budget (no-op while a
  // transaction is open, spilling is disabled, or the store is empty).
  void MaybeSpill();
  void SpillLive();
  // Validates one sealed segment (length, frame digest, provenance),
  // decodes its flow-store image and appends the flows to `into`,
  // which adopts the decoded text block. False — with `into` unchanged
  // — on a read fault or corruption.
  bool ConsumeSegment(const Segment& segment, proxy::FlowStore* into) const;
  int64_t NowMillis() const;

  Config config_;
  std::unique_ptr<proxy::FlowStore> live_;
  analysis::FlowIndex index_;
  analysis::FlowIndex::Cursor cursor_;
  analysis::FlowIndex::Checkpoint checkpoint_;
  size_t live_mark_ = 0;
  bool in_transaction_ = false;
  util::Rng shed_rng_;
  std::vector<Segment> segments_;
  uint64_t spilled_dropped_writes_ = 0;
  IngestStats stats_;
};

}  // namespace panoptes::core
