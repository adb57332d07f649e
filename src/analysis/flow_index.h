// Columnar analysis index over a FlowStore.
//
// Every analysis in this repo used to rescan the raw flow vector —
// re-parsing query strings, re-decoding Base64 payloads and re-parsing
// JSON bodies once per analyzer. A FlowIndex performs that decode work
// exactly once, in a single pass at capture (or merge) time, and hands
// the analyzers columnar views instead:
//
//   - an interned host table (first-appearance order) carrying, per
//     distinct host, the raw spelling analyzers report, the canonical
//     matching form (net::CanonicalHost) and the registrable domain;
//   - interned query/body parameter keys (original spelling plus an
//     ASCII-lowercased twin for keyword heuristics) and interned URL
//     paths;
//   - a parameter pool holding, per flow, the decoded query pairs, the
//     Base64-decoded twins the PII scanner also inspects, and the
//     scalar JSON body members — in exactly the order the legacy
//     per-flow scans produced them, so indexed analyzers replicate
//     legacy reports byte for byte;
//   - postings: flow ids per host, per app UID and per 10-second time
//     bucket, plus request/response byte totals.
//
// A FlowIndex never holds a pointer to its store: analyzers take
// (store, index) pairs, so stores may be moved or merged without
// dangling the index. It is derived data and never persisted: a job
// replayed from its snapshot rebuilds it over the decoded store.
// Append() folds another shard's index in (remapping interned ids);
// Build(A+B) and A.Append(Build(B)) are byte-identical under
// SerializeTo, which is what lets the fleet merge per-shard indexes
// instead of re-parsing merged stores.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "proxy/flowstore.h"
#include "util/arena.h"
#include "util/binio.h"
#include "util/strings.h"

namespace panoptes::analysis {

class FlowIndex {
 public:
  // Width of the time-bucket postings. Buckets are absolute (floor of
  // the flow timestamp), not run-relative, so merging shards never
  // re-bases them.
  static constexpr int64_t kTimeBucketMillis = 10'000;

  // Where a parameter-pool entry came from. kQueryBase64 entries
  // immediately follow the kQuery entry they were decoded from,
  // mirroring the PII scanner's legacy decode-after-scan order.
  enum class ParamSource : uint8_t {
    kQuery = 0,
    kQueryBase64 = 1,
    kBodyJsonString = 2,
    kBodyJsonNumber = 3,
    kBodyJsonBool = 4,
  };

  struct HostInfo {
    std::string raw;        // first-appearance spelling (reports use this)
    std::string canonical;  // net::CanonicalHost(raw), for matching
    std::string domain;     // net::RegistrableDomain(raw)
  };

  struct Param {
    uint32_t key_id = 0;
    ParamSource source = ParamSource::kQuery;
    // Decoded text exactly as analyzers consume it. The bytes live in
    // the index's text pool (address-stable for the index's lifetime).
    std::string_view value;
    double number = 0;  // raw numeric value for kBodyJsonNumber entries
  };

  struct FlowEntry {
    // Provenance uid copied verbatim from the source FlowView (see
    // proxy::MakeProvenanceTag): postings resolve back to the exact
    // stored flow, so analyzer evidence can carry a citable flow_id.
    uint64_t uid = 0;
    uint32_t host_id = 0;
    uint32_t path_id = 0;
    uint32_t param_begin = 0;  // slice [param_begin, param_end) of params()
    uint32_t param_end = 0;
    int64_t time_millis = 0;
    int32_t app_uid = -1;
    uint32_t server_ip = 0;  // net::IpAddress::value()
    uint64_t request_bytes = 0;
    uint64_t response_bytes = 0;
    bool has_body = false;
    bool body_has_percent = false;  // body contains '%' (form-post decode)
  };

  FlowIndex() = default;
  // Move-only, like FlowStore: paths and parameter values are views into
  // the index's arena-backed text pool, which a move hands over intact.
  FlowIndex(const FlowIndex&) = delete;
  FlowIndex& operator=(const FlowIndex&) = delete;
  FlowIndex(FlowIndex&&) = default;
  FlowIndex& operator=(FlowIndex&&) = default;

  // Single pass over `store`: parses every URL and JSON body once.
  static FlowIndex Build(const proxy::FlowStore& store);

  // Folds `other` in after this index's flows, remapping interned ids.
  // Equivalent to (and serialized byte-identical with) building one
  // index over the concatenated stores. Consumes `other`: this index
  // adopts its text pool and moves its new hosts' HostInfos, so no
  // parameter value, path or canonical host is copied or recomputed,
  // and copies only fixed-width entries and parameters. `other` is left
  // empty. Throws std::invalid_argument when `other` is this index.
  void Append(FlowIndex&& other);

  // Capacity for `entries` flow entries (and as many distinct paths)
  // and `params` parameter-pool entries, so a merge that knows its
  // total appends without reallocating or rehashing.
  void Reserve(size_t entries, size_t params);

 private:
  // Memoizes the by-uid/by-bucket map nodes across consecutive flows:
  // capture order clusters flows by app and by time, so most postings
  // land in the vector the previous flow used. Node pointers into a
  // std::map stay valid across inserts, but the cache must stay local
  // to one Build or one streaming Cursor — it must not outlive the
  // index.
  struct PostingsCache {
    int32_t uid = 0;
    std::vector<uint32_t>* uid_flows = nullptr;
    int64_t bucket = 0;
    std::vector<uint32_t>* bucket_flows = nullptr;
  };

 public:
  // --- Incremental (streaming) build ------------------------------
  //
  // AddFlow folds one store flow into the index as it is captured; a
  // sequence of AddFlow(store, 0..n-1) is byte-identical (under
  // SerializeTo) to Build(store) over the same n flows. The Cursor
  // carries the per-stream memoization Build keeps on its stack: the
  // store-host-id → index-host-id map and the postings node cache. One
  // cursor per (index, store) stream; it must not outlive either.
  struct Cursor {
    std::vector<uint32_t> host_map;
    PostingsCache cache;
  };
  void AddFlow(const proxy::FlowStore& store, size_t i, Cursor& cursor);

  // Rewind support for visit-retry rollback: MakeCheckpoint captures
  // the current table watermarks, RewindTo discards everything indexed
  // since — entries, params, postings, and any host/key/path interned
  // first by a discarded flow — so the index is byte-identical to one
  // that never saw the rolled-back flows. Text-pool bytes of discarded
  // paths/params stay allocated (views never dangle), mirroring
  // FlowStore::TruncateTo's arena behaviour; serialization writes only
  // live tables, so the slack never reaches the canonical bytes. Pass the
  // stream's cursor so its host map and node cache are invalidated.
  struct Checkpoint {
    size_t hosts = 0;
    size_t keys = 0;
    size_t paths = 0;
    size_t params = 0;
    size_t entries = 0;
    uint64_t request_bytes = 0;
    uint64_t response_bytes = 0;
  };
  Checkpoint MakeCheckpoint() const;
  void RewindTo(const Checkpoint& checkpoint, Cursor* cursor);

  size_t flow_count() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  const std::vector<FlowEntry>& entries() const { return entries_; }
  const std::vector<Param>& params() const { return params_; }
  const std::vector<HostInfo>& hosts() const { return hosts_; }
  const HostInfo& host(uint32_t id) const { return hosts_[id]; }
  const std::string& key(uint32_t id) const { return keys_[id]; }
  const std::string& key_lower(uint32_t id) const { return keys_lower_[id]; }
  size_t key_count() const { return keys_.size(); }
  std::string_view path(uint32_t id) const { return paths_[id]; }

  // Interned id of a raw host spelling; nullopt when no flow went there.
  std::optional<uint32_t> HostId(std::string_view raw_host) const;
  // Interned id of a URL path; nullopt when no flow used it.
  std::optional<uint32_t> PathId(std::string_view path) const;

  // Postings: flow ids ascending. by_host() is indexed by host id.
  const std::vector<std::vector<uint32_t>>& by_host() const {
    return flows_by_host_;
  }
  const std::vector<uint32_t>* FlowsToHost(std::string_view raw_host) const;
  const std::map<int32_t, std::vector<uint32_t>>& by_uid() const {
    return flows_by_uid_;
  }
  // Key: absolute bucket start in millis (multiple of kTimeBucketMillis).
  const std::map<int64_t, std::vector<uint32_t>>& by_time_bucket() const {
    return flows_by_bucket_;
  }

  uint64_t request_bytes_total() const { return request_bytes_total_; }
  uint64_t response_bytes_total() const { return response_bytes_total_; }

  // Sorted distinct raw hosts — same contents as
  // FlowStore::DistinctHosts(), without rescanning flows.
  std::vector<std::string> SortedHosts() const;

  // The index's canonical byte form: the interned tables, parameter
  // pool and flow entries, from which everything else is derived. Tests
  // and benches compare indexes by it (Build(A+B) against A.Append(B),
  // a cold run against a warm one); nothing decodes it, because a
  // snapshot persists only the store and replay rebuilds the index.
  void SerializeTo(util::BinWriter& out) const;

 private:
  uint32_t InternHost(std::string_view raw);
  uint32_t InternKey(std::string_view key);
  // `tag` is PathTag(path). `pooled`: `path` already lives in
  // text_pool_, so it is interned as is instead of copied.
  uint32_t InternPath(std::string_view path, uint32_t tag,
                      bool pooled = false);
  // Open-addressing probe of path_slots_; UINT32_MAX when absent.
  uint32_t FindPath(std::string_view path, uint32_t tag) const;
  // Linear-probes `slot` into path_slots_ from its tag's position.
  void PlacePath(uint64_t slot);
  // Resizes path_slots_ to `slots` (a power of two) and re-places the
  // slot of every live path; the strings are not read.
  void RehashPaths(size_t slots);
  // `host_id` is this index's interned id for flow.Host(); Build
  // resolves it O(1) through the store's host pool instead of a map
  // lookup per flow.
  void IndexFlow(const proxy::FlowView& flow, uint32_t host_id,
                 PostingsCache& cache);
  // Inserts postings + totals for entry `flow_id` (already in entries_).
  void AddPostings(uint32_t flow_id, PostingsCache& cache);

  std::vector<HostInfo> hosts_;
  std::vector<std::string> keys_;
  std::vector<std::string> keys_lower_;
  // Path spellings and decoded parameter values are bump-allocated into
  // one arena (address-stable chunks, two allocations per 64 KiB of
  // text) instead of one heap string each — the pool is written once at
  // build time and only ever read back.
  util::Arena text_pool_{1 << 16};
  std::vector<std::string_view> paths_;
  std::vector<Param> params_;
  std::vector<FlowEntry> entries_;

  std::vector<std::vector<uint32_t>> flows_by_host_;
  std::map<int32_t, std::vector<uint32_t>> flows_by_uid_;
  std::map<int64_t, std::vector<uint32_t>> flows_by_bucket_;
  uint64_t request_bytes_total_ = 0;
  uint64_t response_bytes_total_ = 0;

  // Interning is pure lookup (iteration always walks the id-ordered
  // vectors above), so hashing beats the ordered map's O(log n) string
  // compares — paths especially are long and mostly distinct.
  template <typename V>
  using InternMap =
      std::unordered_map<std::string, V, util::StringHash, std::equal_to<>>;
  InternMap<uint32_t> host_ids_;
  InternMap<uint32_t> key_ids_;
  // Paths (the hottest intern: one lookup per flow, mostly distinct)
  // use a flat open-addressing table instead of a node-based map: each
  // slot packs (tag << 32 | path id + 1), 0 meaning empty, over a
  // power-of-two vector, probed from (tag & mask) — no per-entry
  // allocation and one cache line per probe. The tag is the high half
  // of the path's hash, so the table can be resized, and merged into
  // another, without reading a path.
  std::vector<uint64_t> path_slots_;
};

}  // namespace panoptes::analysis
