#include "core/stream_buffer.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <iterator>
#include <stdexcept>

#include "chaos/injector.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "util/binio.h"
#include "util/clock.h"
#include "util/frame.h"
#include "util/strings.h"

#include <fcntl.h>
#include <unistd.h>

namespace panoptes::core {

namespace {

// PANOSPILL segment: magic and schema, then one checksummed frame
// (util/frame.h) whose payload is the sealing store's provenance tag
// and ordinal base (so a reader can verify segments are consumed in
// capture order), the flow count and the store's flow-store image
// (FlowStore::WriteImage), the same image a snapshot holds. A segment
// whose length, prefix, frame or image does not check out is corrupt,
// and so is everything after it.
constexpr std::string_view kSpillMagic = "PANOSPILL";
constexpr uint32_t kSpillSchema = 3;
constexpr uint32_t kSegmentFrame = util::FrameTag("SPIL");

// Shed sampling: over budget with shedding enabled, 7 of 8 flows are
// shed and a seeded 1-in-8 trickle is kept, so a saturated run still
// observes a deterministic sample of late traffic.
constexpr double kShedProbability = 0.875;

// Creates `path` holding `bytes`: one open and one write. A short
// write is a failure.
bool WriteSegmentFile(const std::filesystem::path& path,
                      std::string_view bytes) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  ssize_t written;
  do {
    written = ::write(fd, bytes.data(), bytes.size());
  } while (written < 0 && errno == EINTR);
  const bool closed = ::close(fd) == 0;
  return closed && written == static_cast<ssize_t>(bytes.size());
}

}  // namespace

void IngestStats::Accumulate(const IngestStats& other) {
  flows_pushed += other.flows_pushed;
  flows_shed += other.flows_shed;
  spill_segments += other.spill_segments;
  spill_bytes += other.spill_bytes;
  spill_failures += other.spill_failures;
  backpressure_stalls += other.backpressure_stalls;
  segments_quarantined += other.segments_quarantined;
  flows_lost += other.flows_lost;
  peak_live_bytes = std::max(peak_live_bytes, other.peak_live_bytes);
}

StreamBuffer::StreamBuffer(const Config& config)
    : config_(config),
      live_(NewLiveStore(0)),
      shed_rng_(config.seed ^ util::HashString(config.role)) {}

StreamBuffer::~StreamBuffer() {
  std::error_code ec;
  for (const Segment& segment : segments_) {
    std::filesystem::remove(segment.path, ec);
  }
}

std::unique_ptr<proxy::FlowStore> StreamBuffer::NewLiveStore(
    uint64_t ordinal_base) const {
  auto store = std::make_unique<proxy::FlowStore>(config_.compact);
  store->SetProvenance(config_.provenance_tag);
  store->SetOrdinalBase(ordinal_base);
  store->SetChaos(config_.chaos);
  store->SetJournal(config_.journal);
  store->SetTelemetry(config_.telemetry);
  return store;
}

int64_t StreamBuffer::NowMillis() const {
  return config_.clock != nullptr ? config_.clock->Now().millis : 0;
}

bool StreamBuffer::OverBudget() const {
  return config_.stream.memory_budget_bytes > 0 &&
         live_->MemoryUsage() >= config_.stream.memory_budget_bytes;
}

bool StreamBuffer::Push(const proxy::Flow& flow) {
  MaybeSpill();
  if (OverBudget()) {
    // Spilling was impossible (disabled, failing, or deferred by an
    // open transaction): shed or stall. Stalling still stores the flow
    // — the budget degrades to advisory rather than corrupting the
    // capture — so reports stay byte-identical to the batch path.
    if (config_.stream.shed_when_full &&
        shed_rng_.NextBool(kShedProbability)) {
      ++stats_.flows_shed;
      if (config_.journal != nullptr) {
        config_.journal->Emit(NowMillis(), "ingest", "flow_shed")
            .Str("stream", config_.role)
            .Str("host", flow.Host())
            .Num("proxy_id", flow.id);
      }
      return false;
    }
    if (!config_.stream.shed_when_full) {
      ++stats_.backpressure_stalls;
    }
  }
  const size_t before = live_->size();
  live_->Add(flow);
  ++stats_.flows_pushed;
  // A chaos flow-write-drop inside Add leaves the store unchanged; the
  // index must mirror the store exactly, so only landed flows index.
  if (live_->size() > before) {
    index_.AddFlow(*live_, before, cursor_);
    if (config_.telemetry != nullptr) ++config_.telemetry->indexed_flows;
  }
  stats_.peak_live_bytes =
      std::max(stats_.peak_live_bytes, live_->MemoryUsage());
  return true;
}

void StreamBuffer::BeginTransaction() {
  live_mark_ = live_->size();
  checkpoint_ = index_.MakeCheckpoint();
  in_transaction_ = true;
}

void StreamBuffer::CommitTransaction() {
  in_transaction_ = false;
  MaybeSpill();
}

void StreamBuffer::RollbackTransaction() {
  live_->TruncateTo(live_mark_);
  index_.RewindTo(checkpoint_, &cursor_);
}

void StreamBuffer::MaybeSpill() {
  // Deferred while a transaction is open: a rollback must find every
  // in-flight flow still in the live store.
  if (in_transaction_ || live_->empty() || !OverBudget()) return;
  if (config_.stream.spill_dir.empty()) return;
  SpillLive();
}

void StreamBuffer::SpillLive() {
  const uint64_t segment_index = segments_.size();
  if (config_.journal != nullptr) {
    config_.journal->Emit(NowMillis(), "ingest", "spill_open")
        .Str("stream", config_.role)
        .Num("segment", segment_index)
        .Num("flows", static_cast<uint64_t>(live_->size()));
  }
  auto fail = [&]() {
    ++stats_.spill_failures;
    if (config_.journal != nullptr) {
      config_.journal->Emit(NowMillis(), "ingest", "spill_fail")
          .Str("stream", config_.role)
          .Num("segment", segment_index);
    }
  };
  if (config_.chaos != nullptr && config_.chaos->SpillIoFault(config_.role)) {
    // Injected write fault: fail soft, flows stay in memory and the
    // budget degrades to advisory until a later spill succeeds.
    fail();
    return;
  }

  util::BinWriter out;
  out.Raw(kSpillMagic);
  out.U32(kSpillSchema);
  try {
    util::WriteFrame(out, kSegmentFrame, [&] {
      out.U32(config_.provenance_tag);
      out.U64(live_->ordinal_base());
      out.U64(live_->size());
      live_->WriteImage(out);
    });
  } catch (const std::length_error&) {
    // A live store past the image's 4 GiB text limit stays in memory.
    fail();
    return;
  }

  Segment segment;
  segment.flow_base = live_->ordinal_base();
  segment.flows = live_->size();
  segment.bytes = out.size();
  char name[128];
  std::snprintf(name, sizeof(name), "seg-%.*s-%x-%llu.panospill",
                static_cast<int>(config_.role.size()), config_.role.data(),
                config_.provenance_tag,
                static_cast<unsigned long long>(segments_.size()));
  segment.path = std::filesystem::path(config_.stream.spill_dir) / name;

  std::error_code ec;
  if (segments_.empty()) {
    // One mkdir -p per stream, not per segment.
    std::filesystem::create_directories(segment.path.parent_path(), ec);
  }
  // Written in place, with no temp file and rename: only this buffer
  // reads the segment back, and it checks the length, framing and
  // digest, so a torn write reads as corrupt like any other damage.
  if (!WriteSegmentFile(segment.path, out.data())) {
    std::filesystem::remove(segment.path, ec);
    fail();
    return;
  }

  ++stats_.spill_segments;
  stats_.spill_bytes += segment.bytes;
  if (config_.journal != nullptr) {
    config_.journal->Emit(NowMillis(), "ingest", "spill_seal")
        .Str("stream", config_.role)
        .Num("segment", segment_index)
        .Num("flows", segment.flows)
        .Num("bytes", segment.bytes);
  }
  const uint64_t next_base = live_->FlowCount();
  spilled_dropped_writes_ += live_->dropped_writes();
  segments_.push_back(std::move(segment));
  // Hand the navigation-chain tails to the fresh live store so a
  // redirect chain spanning the spill boundary resolves its
  // predecessor uids exactly as the unbounded batch store would.
  auto chain_tails = live_->TakeChainTails();
  live_ = NewLiveStore(next_base);
  live_->SetChainTails(std::move(chain_tails));
  // Fresh store, fresh host pool: the cursor's store-id map is stale.
  cursor_.host_map.clear();
  cursor_.cache = {};
}

bool StreamBuffer::ConsumeSegment(const Segment& segment,
                                  proxy::FlowStore* into) const {
  // A seeded read fault breaks the segment exactly like on-disk rot.
  if (config_.chaos != nullptr && config_.chaos->SpillIoFault(config_.role)) {
    return false;
  }
  // A segment that shrank or grew since it was sealed is corrupt.
  std::string bytes;
  if (!util::ReadFileBytes(segment.path, &bytes) ||
      bytes.size() != segment.bytes) {
    return false;
  }
  util::BinReader prefix(bytes);
  if (prefix.Raw(kSpillMagic.size()) != kSpillMagic ||
      prefix.U32() != kSpillSchema || !prefix.ok()) {
    return false;
  }
  util::FrameReader frames(
      std::string_view(bytes).substr(kSpillMagic.size() + 4));
  std::string_view payload;
  if (!frames.Next(kSegmentFrame, &payload) || !frames.AtEnd()) return false;
  util::BinReader reader(payload);
  if (reader.U32() != config_.provenance_tag ||
      reader.U64() != segment.flow_base || reader.U64() != segment.flows ||
      !reader.ok()) {
    return false;
  }
  // The image decodes into a store of its own whose chunks `into` then
  // adopts, so a failure leaves `into` holding exactly the segments
  // consumed before this one. Compaction is a capture-time decision
  // (see FlowStore::Append): an image with the other policy is corrupt.
  auto store = proxy::FlowStore::ReadImage(payload.substr(4 + 8 + 8));
  if (store == nullptr || store->compact() != config_.compact ||
      store->size() != segment.flows) {
    return false;
  }
  into->AccumulateDroppedWrites(store->dropped_writes());
  into->Append(std::move(*store));
  return true;
}

StreamBuffer::Materialized StreamBuffer::Materialize() {
  Materialized out;
  if (segments_.empty()) {
    out.store = std::move(live_);
    out.index = std::move(index_);
  } else {
    auto merged = std::make_unique<proxy::FlowStore>(config_.compact);
    merged->SetProvenance(config_.provenance_tag);
    merged->SetTelemetry(config_.telemetry);
    // Sized once for every segment and the live tail, so neither the
    // replays nor the tail's append grow the record vector past them.
    uint64_t flows = live_->size();
    for (const Segment& segment : segments_) flows += segment.flows;
    merged->Reserve(static_cast<size_t>(flows));
    size_t consumed = 0;
    for (; consumed < segments_.size(); ++consumed) {
      if (!ConsumeSegment(segments_[consumed], merged.get())) break;
    }
    std::error_code ec;
    if (consumed == segments_.size()) {
      // The live tail's chunks move over; the buffer is reset below.
      merged->AccumulateDroppedWrites(live_->dropped_writes());
      merged->Append(std::move(*live_));
      out.index = std::move(index_);
      for (const Segment& segment : segments_) {
        std::filesystem::remove(segment.path, ec);
      }
    } else {
      // Corruption at segment `consumed`: salvage the prefix,
      // quarantine the rest (the broken segment and everything after
      // it, live flows included — ordinals must stay contiguous), and
      // rebuild the index over what survived.
      out.salvaged = true;
      for (size_t i = consumed; i < segments_.size(); ++i) {
        const Segment& segment = segments_[i];
        ++stats_.segments_quarantined;
        stats_.flows_lost += segment.flows;
        std::filesystem::path quarantine = segment.path;
        quarantine += ".quarantined";
        std::filesystem::rename(segment.path, quarantine, ec);
        if (ec) std::filesystem::remove(segment.path, ec);
        if (config_.journal != nullptr) {
          config_.journal->Emit(NowMillis(), "ingest", "segment_quarantine")
              .Str("stream", config_.role)
              .Num("segment", static_cast<uint64_t>(i))
              .Num("flows", segment.flows);
        }
      }
      stats_.flows_lost += live_->size();
      const int64_t start_ns = util::SteadyNowNanos();
      out.index = analysis::FlowIndex::Build(*merged);
      // A wall-clock timer is no part of the job's plan-pure scope: the
      // rebuild's owner observes it directly (a rare, salvage-only path).
      obs::Families().index_build_seconds.Observe(
          static_cast<double>(util::SteadyNowNanos() - start_ns) * 1e-9);
      if (config_.telemetry != nullptr) {
        ++config_.telemetry->index_builds;
        config_.telemetry->indexed_flows += out.index.flow_count();
      }
    }
    out.store = std::move(merged);
  }

  // Drained: further pushes start a new stream at ordinal 0.
  segments_.clear();
  spilled_dropped_writes_ = 0;
  live_ = NewLiveStore(0);
  index_ = analysis::FlowIndex();
  cursor_ = {};
  in_transaction_ = false;
  live_mark_ = 0;
  return out;
}

}  // namespace panoptes::core
