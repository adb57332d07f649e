// Content-addressed cache of completed fleet jobs.
//
// A fleet run is a pure function of its inputs, so a finished job never
// needs to execute twice: its FleetJobResult is frozen to a snapshot
// file (core/snapshot.h) and replayed on the next run. The cache is
// addressed two ways at once:
//
//   * the *filename* carries the job identity (browser, kind, cohort,
//     shard and a digest of the job's campaign options, every other
//     field two jobs of one plan can differ in), so each planned job
//     maps to a file of its own, and
//   * the snapshot *header* carries a content fingerprint folding every
//     input that can change the job's bytes — schema version, framework
//     and catalog configuration, the full BrowserSpec, campaign kind
//     and options, shard geometry, the derived job seed (hence the base
//     seed and retry budget) and the chaos-profile fingerprint.
//
// A candidate whose fingerprint disagrees with the current plan is an
// *invalidation*: the file describes a job this run would compute
// differently, so it is ignored and the job re-executes. Changing one
// browser's spec therefore invalidates exactly that browser's jobs;
// changing the base seed or chaos profile invalidates everything —
// never silently reused, never over-invalidated.
//
// Writes are crash-safe: the snapshot lands in a temp file first and is
// renamed into place, so a killed run leaves either the complete old
// file or the complete new file, and `--resume` replays every job that
// finished before the kill.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>

#include "core/fleet.h"

namespace panoptes::core {

class ResultCache {
 public:
  // Creates `dir` (and parents) if missing.
  explicit ResultCache(std::filesystem::path dir);

  const std::filesystem::path& dir() const { return dir_; }

  // Folds every execution-relevant input of `job` under `options` into
  // one 64-bit fingerprint. Pure function of its arguments.
  static uint64_t FingerprintJob(const FleetOptions& options,
                                 const FleetJob& job);

  // The single candidate file for `job`:
  // <dir>/<browser>_<kind>[_<cohort>]_shard<k>of<n>_<identity>.snap,
  // with the browser sanitized to filename-safe characters and
  // <identity> 16 hex digits over the kind, shard geometry, cohort and
  // the options of the job's campaign kind: two jobs of one plan never
  // share a file.
  std::filesystem::path PathFor(const FleetJob& job) const;

  // Probes the cache for `job`, reading its file with one sized read.
  // Returns the restored result on a hit;
  // nullopt on a miss (no file), an invalidation (stale fingerprint or
  // undecodable snapshot) or — when `skip_quarantined` is set — a
  // cached quarantine (resume semantics: a restarted run gives dead
  // jobs a fresh chance instead of replaying the failure). The outcome
  // and every index decoded are counted into the job's `telemetry`
  // (never null), the one place cache accounting is kept; thread-safe.
  std::optional<FleetJobResult> Load(const FleetJob& job,
                                     uint64_t fingerprint,
                                     bool skip_quarantined,
                                     obs::JobTelemetry* telemetry) const;

  // Persists `result` atomically (temp file + rename), counting the
  // write into `telemetry` (never null). Failures to write are
  // swallowed — the cache is an accelerator, never a correctness
  // dependency. Thread-safe.
  void Store(const FleetJobResult& result, uint64_t fingerprint,
             obs::JobTelemetry* telemetry) const;

 private:
  std::filesystem::path dir_;
  obs::Families families_;  // the snapshot read/write timers
};

}  // namespace panoptes::core
