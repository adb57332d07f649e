// Versioned binary snapshot of one completed fleet job.
//
// A snapshot is the unit of the result cache (result_cache.h): the full
// FleetJobResult — flow stores with headers and bodies, visit records,
// network-stack stats, fault timeline and retry accounting — frozen to
// bytes, so a later run can replay the job without executing it and
// still render byte-identical reports. The format is deliberately
// boring: fixed magic, explicit schema version, little-endian
// fixed-width fields (util/binio.h), no in-memory representations on
// disk. Any schema change bumps kSchemaVersion; unknown versions are
// rejected at read time — stale formats are re-executed, never
// misparsed. A version bump only keeps old snapshots readable when the
// payload encoders themselves can still decode the old bytes (see the
// kSchemaVersion note below).
//
// Layout:
//   bytes 0..7   magic "PANOSNAP"
//   u32          schema version (kSchemaVersion)
//   u64          job fingerprint (see ResultCache::FingerprintJob)
//   ...          job identity (browser, kind, shard, shard_count) and
//                the serialized result payload
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/fleet.h"

namespace panoptes::core::snapshot {

inline constexpr std::string_view kMagic = "PANOSNAP";
// v2: each flow store is followed by its serialized analysis::FlowIndex
// (presence-flagged; absent indexes are rebuilt from the store on read).
// v3: flow stores use the arena encoding (proxy::FlowStore's 0xF3 tag:
// interned pools + one payload blob, deserialized as a near-zero-copy
// blit). v4: provenance — flow stores carry per-record uids (0xF4 tag),
// FlowIndex entries carry the uid column, and visit records carry
// store tags + flow ordinal ranges, so findings resolve back to the
// exact flow/visit that produced them. The FlowIndex payload has no
// tag of its own (it is versioned by this schema number), so v4 bytes
// are unreadable by v3 decoders and vice versa: kMinReadableSchema
// rises to 4 and pre-provenance snapshots re-execute. That is the safe
// direction — a replayed v3 job would mint findings with no flow_id.
// v5: streaming ingest — crawl and idle payloads carry IngestStats
// (shed/spill/backpressure/quarantine accounting) and the
// watchdog_cancelled flag. v4 snapshots would replay with that
// accounting silently zeroed, so kMinReadableSchema rises with it.
// v6: device cohorts — the job identity section carries the cohort
// (index, id, weight) and the full DeviceProfile, so `explain` can
// reconstruct which synthetic user a population snapshot simulated
// and the cache can tell cohorts of the same browser×kind×shard
// apart. A v5 snapshot replayed as v6 would silently claim the paper
// testbed for a cohort job, so kMinReadableSchema rises with it.
// v7: redirect-chain provenance — flow stores serialize in the v5
// record format (per-record redirect_of uid + hop index). The store
// decoder still reads the v4 record tag, so kMinReadableSchema stays
// at 6: a v6 snapshot replays with chain fields zeroed, which is
// exactly what its run observed (no redirect scenarios existed).
// Every store is followed by its FlowIndex behind a presence byte that
// writers always set; readers reject a 0 or an index whose flow count
// differs from its store's, so a restored result always satisfies the
// CrawlResult/IdleResult index invariant.
inline constexpr uint32_t kSchemaVersion = 7;
inline constexpr uint32_t kMinReadableSchema = 6;

// Serializes `result` (with `fingerprint` in the header) to the full
// file image.
std::string Write(const FleetJobResult& result, uint64_t fingerprint);

struct Header {
  uint32_t schema = 0;
  uint64_t fingerprint = 0;
};

// Decodes just the header; nullopt when `bytes` is not a snapshot.
std::optional<Header> PeekHeader(std::string_view bytes);

// Decodes the payload into `result`. The snapshot must describe exactly
// `job` (browser, kind, shard, shard_count) — the cache addresses files
// by job identity, and a mismatch means the file is foreign or corrupt.
// On success `result->job` is taken from `job` (the snapshot does not
// carry the full BrowserSpec; the caller's plan does). Returns false on
// any structural problem; `*result` is unspecified then.
bool Read(std::string_view bytes, const FleetJob& job, FleetJobResult* result);

// Decodes a snapshot whose identity is NOT known in advance, taking
// browser/kind/shard from the file itself (the BrowserSpec is resolved
// by name from the built-in profile set; an unknown name keeps a
// default spec with just the name filled in). Used by `panoptes_cli
// explain`, which walks cache directories without a plan. Same
// structural validation as Read otherwise.
bool ReadAny(std::string_view bytes, FleetJobResult* result);

}  // namespace panoptes::core::snapshot
