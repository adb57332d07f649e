#include "core/stream_buffer.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <iterator>

#include "chaos/injector.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "util/clock.h"
#include "util/binio.h"
#include "util/strings.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

namespace panoptes::core {

namespace {

// PANOSPILL segment framing: magic, schema, the sealing store's
// provenance tag and ordinal base (so a reader can verify segments are
// consumed in capture order), the flow count, a length-prefixed
// FlowStore::DumpRelocatable payload (the store's arena chunks and
// record array imaged verbatim, replayed by pointer rebase instead of
// a per-record re-parse) and a trailing payload digest. The image — and
// the digest, see HashBytes64 — is native-layout: segments are
// same-build, same-run scratch files, not portable snapshots. Any
// mismatch marks the segment — and everything after it — corrupt.
constexpr std::string_view kSpillMagic = "PANOSPILL";
constexpr uint32_t kSpillSchema = 2;

// Shed sampling: over budget with shedding enabled, 7 of 8 flows are
// shed and a seeded 1-in-8 trickle is kept, so a saturated run still
// observes a deterministic sample of late traffic.
constexpr double kShedProbability = 0.875;

// Creates `path` holding `parts` back to back: one open and one
// gathering write. A short write is a failure.
bool WriteSegmentFile(const std::filesystem::path& path,
                      std::initializer_list<std::string_view> parts) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  std::vector<iovec> iov;
  size_t total = 0;
  for (std::string_view part : parts) {
    iov.push_back(iovec{const_cast<char*>(part.data()), part.size()});
    total += part.size();
  }
  ssize_t written;
  do {
    written = ::writev(fd, iov.data(), static_cast<int>(iov.size()));
  } while (written < 0 && errno == EINTR);
  const bool closed = ::close(fd) == 0;
  return closed && written == static_cast<ssize_t>(total);
}

// Reads the file at `path`, which must hold exactly `size` bytes.
bool ReadSegmentFile(const std::filesystem::path& path, uint64_t size,
                     std::string& out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  // One byte of headroom tells a file that grew since it was sealed
  // from one of exactly the sealed length.
  out.resize(static_cast<size_t>(size) + 1);
  size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = ::read(fd, out.data() + got, out.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  if (got != size) return false;
  out.resize(got);
  return true;
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

  util::BinWriter payload;
  live_->DumpRelocatable(payload);
  // Header and trailer framed separately so the payload is written
  // straight from its serialization buffer instead of being copied
  // into a second one.
  util::BinWriter header;
  header.Raw(kSpillMagic);
  header.U32(kSpillSchema);
  header.U32(config_.provenance_tag);
  header.U64(live_->ordinal_base());
  header.U64(live_->size());
  header.U64(payload.data().size());
  util::BinWriter trailer;
  trailer.U64(util::HashBytes64(payload.data()));

  Segment segment;
  segment.flow_base = live_->ordinal_base();
  segment.flows = live_->size();
  segment.bytes =
      header.data().size() + payload.data().size() + trailer.data().size();
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
  if (!WriteSegmentFile(segment.path,
                        {header.data(), payload.data(), trailer.data()})) {
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
  if (!ReadSegmentFile(segment.path, segment.bytes, bytes)) return false;
  util::BinReader reader(bytes);
  if (reader.Raw(kSpillMagic.size()) != kSpillMagic) return false;
  if (reader.U32() != kSpillSchema) return false;
  if (reader.U32() != config_.provenance_tag) return false;
  if (reader.U64() != segment.flow_base) return false;
  const uint64_t flow_count = reader.U64();
  // The header is outside the checksum; cross-check it against the
  // metadata recorded when the segment was sealed.
  if (flow_count != segment.flows) return false;
  const uint64_t payload_size = reader.U64();
  if (!reader.ok() || payload_size > reader.remaining()) return false;
  std::string_view payload = reader.Raw(static_cast<size_t>(payload_size));
  if (reader.U64() != util::HashBytes64(payload) || !reader.ok()) {
    return false;
  }
  // The checksummed payload replays straight into the merge target —
  // adopted chunk bytes plus a pointer rebase per view, no re-parse.
  // AppendRelocatable is all-or-nothing, so a framing failure leaves
  // `into` holding exactly the segments consumed before this one.
  util::BinReader payload_reader(payload);
  const size_t before = into->size();
  if (!into->AppendRelocatable(payload_reader)) return false;
  if (into->size() - before != flow_count) {
    into->TruncateTo(before);
    return false;
  }
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
    size_t consumed = 0;
    for (; consumed < segments_.size(); ++consumed) {
      if (!ConsumeSegment(segments_[consumed], merged.get())) break;
    }
    std::error_code ec;
    if (consumed == segments_.size()) {
      merged->Append(*live_);
      merged->AccumulateDroppedWrites(live_->dropped_writes());
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
