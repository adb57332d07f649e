#include "core/snapshot.h"

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "analysis/flow_index.h"
#include "browser/profiles.h"
#include "util/binio.h"
#include "util/frame.h"

namespace panoptes::core::snapshot {

namespace {

// The frame holding the fingerprint, the job identity and every field
// of the result but its stores, and the frame holding one store's image.
constexpr uint32_t kJobFrame = util::FrameTag("JOB ");
constexpr uint32_t kStoreFrame = util::FrameTag("STOR");
constexpr size_t kPrefixBytes = 8 + 4;  // magic, schema

// An index is derived from its store, so it is built over the store
// just decoded, never read from disk: a replayed result meets the
// CaptureResult index invariant by construction. Counts one build.
void BuildIndex(const proxy::FlowStore& store,
                std::unique_ptr<analysis::FlowIndex>* index,
                obs::JobTelemetry* telemetry) {
  *index = std::make_unique<analysis::FlowIndex>(
      analysis::FlowIndex::Build(store));
  ++telemetry->index_builds;
}

void WriteStackStats(const device::NetworkStackStats& stats,
                     util::BinWriter& out) {
  out.U64(stats.sends);
  out.U64(stats.ok);
  out.U64(stats.dns_failures);
  out.U64(stats.tls_failures);
  out.U64(stats.pin_failures);
  out.U64(stats.timeouts);
  out.U64(stats.quic_blocked);
  out.U64(stats.quic_direct);
  out.U64(stats.diverted);
}

void ReadStackStats(util::BinReader& in, device::NetworkStackStats* stats) {
  stats->sends = in.U64();
  stats->ok = in.U64();
  stats->dns_failures = in.U64();
  stats->tls_failures = in.U64();
  stats->pin_failures = in.U64();
  stats->timeouts = in.U64();
  stats->quic_blocked = in.U64();
  stats->quic_direct = in.U64();
  stats->diverted = in.U64();
}

void WriteIngest(const IngestStats& ingest, util::BinWriter& out) {
  out.U64(ingest.flows_pushed);
  out.U64(ingest.flows_shed);
  out.U64(ingest.spill_segments);
  out.U64(ingest.spill_bytes);
  out.U64(ingest.spill_failures);
  out.U64(ingest.backpressure_stalls);
  out.U64(ingest.segments_quarantined);
  out.U64(ingest.flows_lost);
  out.U64(ingest.peak_live_bytes);
}

void ReadIngest(util::BinReader& in, IngestStats* ingest) {
  ingest->flows_pushed = in.U64();
  ingest->flows_shed = in.U64();
  ingest->spill_segments = in.U64();
  ingest->spill_bytes = in.U64();
  ingest->spill_failures = in.U64();
  ingest->backpressure_stalls = in.U64();
  ingest->segments_quarantined = in.U64();
  ingest->flows_lost = in.U64();
  ingest->peak_live_bytes = in.U64();
}

void WriteVisit(const VisitRecord& visit, util::BinWriter& out) {
  out.Str(visit.hostname);
  out.U8(static_cast<uint8_t>(visit.category));
  out.Bool(visit.ok);
  out.Bool(visit.dom_content_loaded);
  out.Bool(visit.incognito_honored);
  out.I64(visit.engine_requests);
  out.I64(visit.blocked_by_adblock);
  out.I64(visit.attempts);
  out.Str(visit.fault_cause);
  out.I64(visit.backoff_millis);
  out.U32(visit.engine_tag);
  out.U32(visit.native_tag);
  out.U32(visit.engine_flow_begin);
  out.U32(visit.engine_flow_end);
  out.U32(visit.native_flow_begin);
  out.U32(visit.native_flow_end);
}

void ReadVisit(util::BinReader& in, VisitRecord* visit) {
  visit->hostname = in.Str();
  visit->category = in.Enum(web::SiteCategory::kHealth);
  visit->ok = in.Bool();
  visit->dom_content_loaded = in.Bool();
  visit->incognito_honored = in.Bool();
  visit->engine_requests = static_cast<int>(in.I64());
  visit->blocked_by_adblock = static_cast<int>(in.I64());
  visit->attempts = static_cast<int>(in.I64());
  visit->fault_cause = in.Str();
  visit->backoff_millis = in.I64();
  visit->engine_tag = in.U32();
  visit->native_tag = in.U32();
  visit->engine_flow_begin = in.U32();
  visit->engine_flow_end = in.U32();
  visit->native_flow_begin = in.U32();
  visit->native_flow_end = in.U32();
}

// The part every campaign shares (CaptureResult), but its store.
void WriteCapture(const CaptureResult& capture, util::BinWriter& out) {
  out.Str(capture.browser);
  out.U64(capture.fault_injected_flows);
  WriteIngest(capture.ingest, out);
  out.Bool(capture.watchdog_cancelled);
}

bool ReadCapture(util::BinReader& in, CaptureResult* capture) {
  capture->browser = in.Str();
  capture->fault_injected_flows = in.U64();
  ReadIngest(in, &capture->ingest);
  capture->watchdog_cancelled = in.Bool();
  return in.ok();
}

// Kind-specific tails, after the shared capture.
void WriteCrawlTail(const CrawlResult& crawl, util::BinWriter& out) {
  out.Bool(crawl.incognito_requested);
  out.Bool(crawl.incognito_effective);
  out.U32(static_cast<uint32_t>(crawl.visits.size()));
  for (const auto& visit : crawl.visits) WriteVisit(visit, out);
  WriteStackStats(crawl.stack_stats, out);
}

bool ReadCrawlTail(util::BinReader& in, CrawlResult* crawl) {
  crawl->incognito_requested = in.Bool();
  crawl->incognito_effective = in.Bool();
  uint32_t visit_count = in.U32();
  if (!in.ok() || visit_count > in.remaining()) return false;
  crawl->visits.reserve(visit_count);
  for (uint32_t i = 0; i < visit_count; ++i) {
    VisitRecord visit;
    ReadVisit(in, &visit);
    crawl->visits.push_back(std::move(visit));
  }
  ReadStackStats(in, &crawl->stack_stats);
  return in.ok();
}

void WriteIdleTail(const IdleResult& idle, util::BinWriter& out) {
  out.U32(static_cast<uint32_t>(idle.cumulative_by_bucket.size()));
  for (uint64_t value : idle.cumulative_by_bucket) out.U64(value);
  out.I64(idle.bucket.millis);
}

bool ReadIdleTail(util::BinReader& in, IdleResult* idle) {
  uint32_t bucket_count = in.U32();
  if (!in.ok() || bucket_count > in.remaining() / 8) return false;
  idle->cumulative_by_bucket.reserve(bucket_count);
  for (uint32_t i = 0; i < bucket_count; ++i) {
    idle->cumulative_by_bucket.push_back(in.U64());
  }
  idle->bucket.millis = in.I64();
  return in.ok();
}

void WriteFaults(const std::vector<chaos::FaultEvent>& faults,
                 util::BinWriter& out) {
  out.U32(static_cast<uint32_t>(faults.size()));
  for (const auto& fault : faults) {
    out.U8(static_cast<uint8_t>(fault.kind));
    out.Str(fault.host);
    out.I64(fault.sim_millis);
  }
}

bool ReadFaults(util::BinReader& in, std::vector<chaos::FaultEvent>* faults) {
  uint32_t count = in.U32();
  if (!in.ok() || count > in.remaining()) return false;
  faults->clear();
  faults->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    chaos::FaultEvent event;
    uint8_t kind = in.U8();
    if (kind >= chaos::kFaultKindCount) return false;
    event.kind = static_cast<chaos::FaultKind>(kind);
    event.host = in.Str();
    event.sim_millis = in.I64();
    faults->push_back(std::move(event));
  }
  return in.ok();
}

void WriteProfile(const device::DeviceProfile& profile, util::BinWriter& out) {
  out.Str(profile.manufacturer);
  out.Str(profile.model);
  out.Str(profile.device_type);
  out.Str(profile.os);
  out.Str(profile.os_version);
  out.I64(profile.screen_width);
  out.I64(profile.screen_height);
  out.I64(profile.dpi);
  out.Str(profile.timezone);
  out.I64(profile.timezone_offset_minutes);
  out.Str(profile.locale);
  out.Str(profile.country);
  out.Str(profile.city);
  out.F64(profile.latitude);
  out.F64(profile.longitude);
  out.Bool(profile.rooted);
  out.Str(profile.connection_type);
  out.Str(profile.network_metering);
  out.Str(profile.isp);
  out.U32(profile.local_ip.value());
  out.U32(profile.public_ip.value());
}

void ReadProfile(util::BinReader& in, device::DeviceProfile* profile) {
  profile->manufacturer = in.Str();
  profile->model = in.Str();
  profile->device_type = in.Str();
  profile->os = in.Str();
  profile->os_version = in.Str();
  profile->screen_width = static_cast<int>(in.I64());
  profile->screen_height = static_cast<int>(in.I64());
  profile->dpi = static_cast<int>(in.I64());
  profile->timezone = in.Str();
  profile->timezone_offset_minutes = static_cast<int>(in.I64());
  profile->locale = in.Str();
  profile->country = in.Str();
  profile->city = in.Str();
  profile->latitude = in.F64();
  profile->longitude = in.F64();
  profile->rooted = in.Bool();
  profile->connection_type = in.Str();
  profile->network_metering = in.Str();
  profile->isp = in.Str();
  profile->local_ip = net::IpAddress(in.U32());
  profile->public_ip = net::IpAddress(in.U32());
}

void WriteCohort(const device::DeviceCohort& cohort, util::BinWriter& out) {
  out.U32(static_cast<uint32_t>(cohort.index));
  out.U64(cohort.id);
  out.F64(cohort.weight);
  WriteProfile(cohort.profile, out);
}

void ReadCohort(util::BinReader& in, device::DeviceCohort* cohort) {
  cohort->index = static_cast<int>(in.U32());
  cohort->id = in.U64();
  cohort->weight = in.F64();
  ReadProfile(in, &cohort->profile);
}

// A snapshot's frames: the job frame, then one store frame per side.
struct Frames {
  std::string_view job;
  std::vector<std::string_view> stores;
};

// Splits `bytes` into its frames. False unless the prefix names the
// current schema, every frame is intact and they are exactly one job
// frame and its stores, to the last byte.
bool ReadFrames(std::string_view bytes, Frames* frames) {
  auto header = PeekHeader(bytes);
  if (!header.has_value() || header->schema != kSchemaVersion) return false;
  util::FrameReader reader(bytes.substr(kPrefixBytes));
  if (!reader.Next(kJobFrame, &frames->job)) return false;
  std::string_view store;
  while (reader.Next(kStoreFrame, &store)) frames->stores.push_back(store);
  return reader.stop() == util::FrameReader::Stop::kEnd;
}

// Decodes the job identity at the start of the job frame into `job`
// (its spec carries only the browser name), leaving `in` at the
// payload. False unless the kind names a campaign and the shard lies
// inside its shard count.
bool ReadJob(util::BinReader& in, FleetJob* job) {
  in.U64();  // the fingerprint, which PeekHeader reads
  job->spec.name = in.Str();
  const uint8_t kind = in.U8();
  job->shard = static_cast<int>(in.U32());
  job->shard_count = static_cast<int>(in.U32());
  ReadCohort(in, &job->cohort);
  // kIdle is the last CampaignKind.
  if (!in.ok() || kind > static_cast<uint8_t>(CampaignKind::kIdle) ||
      job->shard < 0 || job->shard_count <= 0 ||
      job->shard >= job->shard_count) {
    return false;
  }
  job->kind = static_cast<CampaignKind>(kind);
  return true;
}

// The rest of the job frame, from `seed` onward, then the stores. The
// job's kind, already in `result`, says which tail follows the capture
// and how many stores there are (native, then a crawl's engine store).
// Indexes are built only once everything has decoded, so a rejected
// snapshot costs no build.
bool ReadPayload(util::BinReader& in, const Frames& frames,
                 FleetJobResult* result) {
  result->seed = in.U64();
  result->attempts = static_cast<int>(in.I64());
  result->quarantined = in.Bool();
  if (!ReadFaults(in, &result->faults)) return false;
  result->flow_writes_dropped = in.U64();
  CaptureResult* capture = nullptr;
  CrawlResult* crawl = nullptr;
  if (result->job.kind == CampaignKind::kIdle) {
    IdleResult& idle = result->idle.emplace();
    if (!ReadCapture(in, &idle) || !ReadIdleTail(in, &idle)) return false;
    capture = &idle;
  } else {
    crawl = &result->crawl.emplace();
    if (!ReadCapture(in, crawl) || !ReadCrawlTail(in, crawl)) return false;
    capture = crawl;
  }
  // Trailing bytes are corruption too: the frame is the whole record.
  if (!in.ok() || !in.AtEnd()) return false;
  if (frames.stores.size() != (crawl != nullptr ? 2u : 1u)) return false;
  capture->native_flows = proxy::FlowStore::ReadImage(frames.stores[0]);
  if (capture->native_flows == nullptr) return false;
  if (crawl != nullptr) {
    crawl->engine_flows = proxy::FlowStore::ReadImage(frames.stores[1]);
    if (crawl->engine_flows == nullptr) return false;
  }
  obs::JobTelemetry* telemetry = &result->telemetry;
  BuildIndex(*capture->native_flows, &capture->native_index, telemetry);
  if (crawl != nullptr) {
    BuildIndex(*crawl->engine_flows, &crawl->engine_index, telemetry);
  }
  return true;
}

}  // namespace

std::string Write(const FleetJobResult& result, uint64_t fingerprint) {
  const bool idle = result.job.kind == CampaignKind::kIdle;
  if (result.idle.has_value() != idle || result.crawl.has_value() == idle) {
    throw std::invalid_argument(
        "snapshot::Write: the result must hold exactly its kind's side");
  }
  util::BinWriter out;
  out.Raw(kMagic);
  out.U32(kSchemaVersion);
  util::WriteFrame(out, kJobFrame, [&] {
    out.U64(fingerprint);
    // Job identity, so a misplaced file can be detected at read time.
    // The full BrowserSpec is deliberately absent: the executor
    // re-attaches it from the current plan, and spec changes are caught
    // by the fingerprint, not by diffing specs.
    out.Str(result.job.spec.name);
    out.U8(static_cast<uint8_t>(result.job.kind));
    out.U32(static_cast<uint32_t>(result.job.shard));
    out.U32(static_cast<uint32_t>(result.job.shard_count));
    // The simulated user. The full profile rides along (unlike the
    // BrowserSpec) because cohorts are synthesized per run — there is
    // no static registry to re-attach them from at `explain` time.
    WriteCohort(result.job.cohort, out);
    out.U64(result.seed);
    out.I64(result.attempts);
    out.Bool(result.quarantined);
    WriteFaults(result.faults, out);
    out.U64(result.flow_writes_dropped);
    // The shared capture, then the tail of the job's kind.
    WriteCapture(*result.capture(), out);
    if (idle) {
      WriteIdleTail(*result.idle, out);
    } else {
      WriteCrawlTail(*result.crawl, out);
    }
  });
  util::WriteFrame(out, kStoreFrame,
                   [&] { result.capture()->native_flows->WriteImage(out); });
  if (!idle) {
    util::WriteFrame(out, kStoreFrame,
                     [&] { result.crawl->engine_flows->WriteImage(out); });
  }
  return out.Take();
}

std::optional<Header> PeekHeader(std::string_view bytes) {
  util::BinReader in(bytes);
  if (in.Raw(kMagic.size()) != kMagic) return std::nullopt;
  Header header;
  header.schema = in.U32();
  if (!in.ok()) return std::nullopt;
  // Only the current schema's fingerprint is read: an older snapshot
  // re-executes whatever it holds.
  if (header.schema == kSchemaVersion) {
    in.U32();  // the job frame's tag
    in.U64();  // and length
    header.fingerprint = in.U64();
    if (!in.ok()) return std::nullopt;
  }
  return header;
}

bool Read(std::string_view bytes, const FleetJob& job,
          FleetJobResult* result) {
  Frames frames;
  if (!ReadFrames(bytes, &frames)) return false;
  util::BinReader in(frames.job);
  FleetJob stored;
  if (!ReadJob(in, &stored) || stored.spec.name != job.spec.name ||
      stored.kind != job.kind || stored.shard != job.shard ||
      stored.shard_count != job.shard_count ||
      stored.cohort.id != job.cohort.id ||
      stored.cohort.index != job.cohort.index) {
    return false;
  }

  *result = FleetJobResult();
  result->job = job;
  return ReadPayload(in, frames, result);
}

bool ReadAny(std::string_view bytes, FleetJobResult* result) {
  Frames frames;
  if (!ReadFrames(bytes, &frames)) return false;
  util::BinReader in(frames.job);
  FleetJob stored;
  if (!ReadJob(in, &stored)) return false;
  if (const browser::BrowserSpec* spec = browser::FindSpec(stored.spec.name);
      spec != nullptr) {
    stored.spec = *spec;
  }

  *result = FleetJobResult();
  result->job = std::move(stored);
  return ReadPayload(in, frames, result);
}

}  // namespace panoptes::core::snapshot
