// Versioned binary snapshot of one completed fleet job.
//
// A snapshot is the unit of the result cache (result_cache.h): the full
// FleetJobResult — flow stores with headers and bodies, visit records,
// network-stack stats, fault timeline and retry accounting — frozen to
// bytes, so a later run can replay the job without executing it and
// still render byte-identical reports. The format is deliberately
// boring: fixed magic, explicit schema version, little-endian
// fixed-width fields (util/binio.h) in checksummed frames
// (util/frame.h), no in-memory representations on disk. Any schema
// change bumps kSchemaVersion, and a reader accepts exactly the current
// one: stale formats are re-executed, never misparsed.
//
// Layout:
//   bytes 0..7   magic "PANOSNAP"
//   u32          schema version (kSchemaVersion)
//   frame "JOB " job fingerprint (see ResultCache::FingerprintJob), job
//                identity (browser, kind, shard, shard_count, cohort)
//                and every field of the result but its stores
//   frame "STOR" the native store's flow-store image
//   frame "STOR" the engine store's image (crawl kinds only)
// and nothing after. Every byte past the schema is covered by a frame
// digest, so a corrupt snapshot is rejected, never replayed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/fleet.h"

namespace panoptes::core::snapshot {

inline constexpr std::string_view kMagic = "PANOSNAP";
// v10 job frame, after the job identity (browser, kind, shard, shard
// count, cohort with its full DeviceProfile): seed, attempts,
// quarantine flag, fault timeline and dropped writes; then the capture
// every campaign shares (CaptureResult: browser, fault-injected flows,
// ingest accounting, watchdog flag); then the tail the job's campaign
// kind alone selects (crawl: incognito flags, visits with their store
// tags and flow ranges, stack stats; idle: request buckets). Stores are
// proxy::FlowStore images (FlowStore::WriteImage), one frame each, read
// back by adopting their text block with no field re-parsed. A snapshot
// holds only what the job captured: each side's FlowIndex is derived
// from its store, so Read builds it over the store it has just decoded
// and never trusts index bytes from disk.
inline constexpr uint32_t kSchemaVersion = 10;

// Serializes `result` (with `fingerprint` in the header) to the full
// file image. Throws std::invalid_argument unless the result holds
// exactly the side its job's kind implies (crawl kinds: `crawl`; idle:
// `idle`).
std::string Write(const FleetJobResult& result, uint64_t fingerprint);

struct Header {
  uint32_t schema = 0;
  uint64_t fingerprint = 0;
};

// Decodes just the header, without checking any digest (Read does);
// nullopt when `bytes` is not a snapshot. The fingerprint is read for
// the current schema only, and is 0 for any other.
std::optional<Header> PeekHeader(std::string_view bytes);

// Decodes the payload into `result`. The snapshot must describe exactly
// `job` (browser, kind, shard, shard_count) — the cache addresses files
// by job identity, and a mismatch means the file is foreign or corrupt.
// On success `result->job` is taken from `job` (the snapshot does not
// carry the full BrowserSpec; the caller's plan does), each side's
// index is built over its decoded store, and each build counts in
// `result->telemetry.index_builds`. Returns false on any structural
// problem; `*result` is unspecified then.
bool Read(std::string_view bytes, const FleetJob& job, FleetJobResult* result);

// Decodes a snapshot whose identity is NOT known in advance, taking
// browser/kind/shard from the file itself (the BrowserSpec is resolved
// by name from the built-in profile set; an unknown name keeps a
// default spec with just the name filled in). Used by `panoptes_cli
// explain`, which walks cache directories without a plan. Same
// structural validation as Read otherwise: an out-of-range campaign kind
// or shard is rejected, like any other corruption.
bool ReadAny(std::string_view bytes, FleetJobResult* result);

}  // namespace panoptes::core::snapshot
