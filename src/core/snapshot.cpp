#include "core/snapshot.h"

#include <stdexcept>
#include <utility>

#include "analysis/flow_index.h"
#include "browser/profiles.h"
#include "util/binio.h"

namespace panoptes::core::snapshot {

namespace {

// The presence byte is always 1; a 0, or an index whose flow count
// disagrees with the store just read, is corruption — never a cue to
// rebuild (see the index note in snapshot.h).
void WriteIndex(const analysis::FlowIndex& index, util::BinWriter& out) {
  out.Bool(true);
  index.SerializeTo(out);
}

bool ReadIndex(util::BinReader& in, const proxy::FlowStore& store,
               std::unique_ptr<analysis::FlowIndex>* index) {
  if (!in.Bool()) return false;
  *index = analysis::FlowIndex::Deserialize(in);
  return *index != nullptr && (*index)->flow_count() == store.size() &&
         in.ok();
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
  visit->category = static_cast<web::SiteCategory>(in.U8());
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

// The part every campaign shares (CaptureResult).
void WriteCapture(const CaptureResult& capture, util::BinWriter& out) {
  out.Str(capture.browser);
  capture.native_flows->SerializeTo(out);
  WriteIndex(*capture.native_index, out);
  out.U64(capture.fault_injected_flows);
  WriteIngest(capture.ingest, out);
  out.Bool(capture.watchdog_cancelled);
}

bool ReadCapture(util::BinReader& in, CaptureResult* capture) {
  capture->browser = in.Str();
  capture->native_flows = proxy::FlowStore::Deserialize(in);
  if (capture->native_flows == nullptr) return false;
  if (!ReadIndex(in, *capture->native_flows, &capture->native_index)) {
    return false;
  }
  capture->fault_injected_flows = in.U64();
  ReadIngest(in, &capture->ingest);
  capture->watchdog_cancelled = in.Bool();
  return in.ok();
}

// Kind-specific tails, after the shared capture.
void WriteCrawlTail(const CrawlResult& crawl, util::BinWriter& out) {
  out.Bool(crawl.incognito_requested);
  out.Bool(crawl.incognito_effective);
  crawl.engine_flows->SerializeTo(out);
  WriteIndex(*crawl.engine_index, out);
  out.U32(static_cast<uint32_t>(crawl.visits.size()));
  for (const auto& visit : crawl.visits) WriteVisit(visit, out);
  WriteStackStats(crawl.stack_stats, out);
}

bool ReadCrawlTail(util::BinReader& in, CrawlResult* crawl) {
  crawl->incognito_requested = in.Bool();
  crawl->incognito_effective = in.Bool();
  crawl->engine_flows = proxy::FlowStore::Deserialize(in);
  if (crawl->engine_flows == nullptr) return false;
  if (!ReadIndex(in, *crawl->engine_flows, &crawl->engine_index)) return false;
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

// Decodes the header and the job identity that follows it into `job`
// (its spec carries only the browser name), leaving `in` at the
// payload. False unless the schema is readable, the kind names a
// campaign and the shard lies inside its shard count.
bool ReadJob(std::string_view bytes, util::BinReader& in, FleetJob* job) {
  auto header = PeekHeader(bytes);
  if (!header.has_value() || header->schema < kMinReadableSchema ||
      header->schema > kSchemaVersion) {
    return false;
  }
  for (size_t i = 0; i < kMagic.size(); ++i) in.U8();
  in.U32();
  in.U64();

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

// Payload from `seed` onward (everything after the job identity). The
// job's kind, already in `result`, says which tail follows the capture.
bool ReadPayload(util::BinReader& in, FleetJobResult* result) {
  result->seed = in.U64();
  result->attempts = static_cast<int>(in.I64());
  result->quarantined = in.Bool();
  if (!ReadFaults(in, &result->faults)) return false;
  result->flow_writes_dropped = in.U64();
  if (result->job.kind == CampaignKind::kIdle) {
    IdleResult& idle = result->idle.emplace();
    if (!ReadCapture(in, &idle) || !ReadIdleTail(in, &idle)) return false;
  } else {
    CrawlResult& crawl = result->crawl.emplace();
    if (!ReadCapture(in, &crawl) || !ReadCrawlTail(in, &crawl)) return false;
  }
  // Trailing garbage is corruption too — the snapshot is the whole file.
  return in.ok() && in.AtEnd();
}

}  // namespace

std::string Write(const FleetJobResult& result, uint64_t fingerprint) {
  util::BinWriter out;
  for (char c : kMagic) out.U8(static_cast<uint8_t>(c));
  out.U32(kSchemaVersion);
  out.U64(fingerprint);
  // Job identity, so a misplaced file can be detected at read time. The
  // full BrowserSpec is deliberately absent: the executor re-attaches
  // it from the current plan, and spec changes are caught by the
  // fingerprint, not by diffing specs.
  out.Str(result.job.spec.name);
  out.U8(static_cast<uint8_t>(result.job.kind));
  out.U32(static_cast<uint32_t>(result.job.shard));
  out.U32(static_cast<uint32_t>(result.job.shard_count));
  // v6: the simulated user. The full profile rides along (unlike the
  // BrowserSpec) because cohorts are synthesized per run — there is no
  // static registry to re-attach them from at `explain` time.
  WriteCohort(result.job.cohort, out);
  out.U64(result.seed);
  out.I64(result.attempts);
  out.Bool(result.quarantined);
  WriteFaults(result.faults, out);
  out.U64(result.flow_writes_dropped);
  // v8: the shared capture, then the tail of the job's kind.
  const bool idle = result.job.kind == CampaignKind::kIdle;
  if (result.idle.has_value() != idle || result.crawl.has_value() == idle) {
    throw std::invalid_argument(
        "snapshot::Write: the result must hold exactly its kind's side");
  }
  WriteCapture(*result.capture(), out);
  if (idle) {
    WriteIdleTail(*result.idle, out);
  } else {
    WriteCrawlTail(*result.crawl, out);
  }
  return out.Take();
}

std::optional<Header> PeekHeader(std::string_view bytes) {
  util::BinReader in(bytes);
  for (char expected : kMagic) {
    if (in.U8() != static_cast<uint8_t>(expected)) return std::nullopt;
  }
  Header header;
  header.schema = in.U32();
  header.fingerprint = in.U64();
  if (!in.ok()) return std::nullopt;
  return header;
}

bool Read(std::string_view bytes, const FleetJob& job,
          FleetJobResult* result) {
  util::BinReader in(bytes);
  FleetJob stored;
  if (!ReadJob(bytes, in, &stored) || stored.spec.name != job.spec.name ||
      stored.kind != job.kind || stored.shard != job.shard ||
      stored.shard_count != job.shard_count ||
      stored.cohort.id != job.cohort.id ||
      stored.cohort.index != job.cohort.index) {
    return false;
  }

  *result = FleetJobResult();
  result->job = job;
  return ReadPayload(in, result);
}

bool ReadAny(std::string_view bytes, FleetJobResult* result) {
  util::BinReader in(bytes);
  FleetJob stored;
  if (!ReadJob(bytes, in, &stored)) return false;
  if (const browser::BrowserSpec* spec = browser::FindSpec(stored.spec.name);
      spec != nullptr) {
    stored.spec = *spec;
  }

  *result = FleetJobResult();
  result->job = std::move(stored);
  return ReadPayload(in, result);
}

}  // namespace panoptes::core::snapshot
