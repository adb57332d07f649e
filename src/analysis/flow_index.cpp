#include "analysis/flow_index.h"

#include <algorithm>
#include <utility>

#include "net/psl.h"
#include "net/url.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "util/base64.h"
#include "util/clock.h"
#include "util/json.h"
#include "util/strings.h"

namespace panoptes::analysis {

namespace {

struct IndexMetrics {
  obs::Counter& builds;
  obs::Counter& indexed_flows;
  obs::Counter& appends;
  obs::Counter& host_lookups;
  obs::Histogram& build_seconds;
};

IndexMetrics& Metrics() {
  auto& registry = obs::MetricsRegistry::Default();
  static IndexMetrics* metrics = new IndexMetrics{
      registry.GetCounter("panoptes_index_builds_total",
                          "FlowIndex single-pass builds (captures, merges "
                          "and snapshot-restore rebuilds)"),
      registry.GetCounter("panoptes_index_indexed_flows_total",
                          "Flows folded into a FlowIndex by Build/Append"),
      registry.GetCounter("panoptes_index_appends_total",
                          "FlowIndex shard merges via Append"),
      registry.GetCounter("panoptes_index_host_lookups_total",
                          "Host-id/postings lookups served by a FlowIndex"),
      registry.GetHistogram("panoptes_index_build_seconds",
                            "Wall time of FlowIndex::Build",
                            obs::Histogram::LatencyBounds()),
  };
  return *metrics;
}

}  // namespace

uint32_t FlowIndex::InternHost(std::string_view raw) {
  if (auto it = host_ids_.find(raw); it != host_ids_.end()) {
    return it->second;
  }
  uint32_t id = static_cast<uint32_t>(hosts_.size());
  hosts_.push_back(HostInfo{std::string(raw), net::CanonicalHost(raw),
                            net::RegistrableDomain(raw)});
  flows_by_host_.emplace_back();
  host_ids_.emplace(std::string(raw), id);
  return id;
}

uint32_t FlowIndex::InternKey(std::string_view key) {
  // A capture sees a handful of distinct keys; a linear scan over the
  // id-ordered vector beats hashing until the table outgrows it.
  if (keys_.size() <= 16) {
    for (uint32_t id = 0; id < keys_.size(); ++id) {
      if (keys_[id] == key) return id;
    }
  } else if (auto it = key_ids_.find(key); it != key_ids_.end()) {
    return it->second;
  }
  uint32_t id = static_cast<uint32_t>(keys_.size());
  keys_.push_back(std::string(key));
  keys_lower_.push_back(util::ToLower(key));
  key_ids_.emplace(std::string(key), id);
  return id;
}

namespace {
inline uint64_t PathHash(std::string_view path) {
  return std::hash<std::string_view>{}(path);
}
}  // namespace

uint32_t FlowIndex::FindPath(std::string_view path, uint64_t hash) const {
  if (path_slots_.empty()) return UINT32_MAX;
  const size_t mask = path_slots_.size() - 1;
  const uint64_t tag = hash & 0xFFFFFFFF00000000ull;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const uint64_t slot = path_slots_[i];
    if (slot == 0) return UINT32_MAX;
    if ((slot & 0xFFFFFFFF00000000ull) == tag) {
      uint32_t id = static_cast<uint32_t>(slot) - 1;
      if (paths_[id] == path) return id;
    }
  }
}

void FlowIndex::GrowPathSlots() {
  size_t cap = path_slots_.empty() ? 64 : path_slots_.size() * 2;
  while (cap < paths_.size() * 2) cap *= 2;
  path_slots_.assign(cap, 0);
  const size_t mask = cap - 1;
  for (uint32_t id = 0; id < paths_.size(); ++id) {
    uint64_t hash = PathHash(paths_[id]);
    size_t i = hash & mask;
    while (path_slots_[i] != 0) i = (i + 1) & mask;
    path_slots_[i] =
        (hash & 0xFFFFFFFF00000000ull) | (static_cast<uint64_t>(id) + 1);
  }
}

uint32_t FlowIndex::InternPath(std::string_view path) {
  const uint64_t hash = PathHash(path);
  if (uint32_t id = FindPath(path, hash); id != UINT32_MAX) return id;
  // Keep the load factor under 1/2 (counting the entry being added).
  if ((paths_.size() + 1) * 2 > path_slots_.size()) GrowPathSlots();
  const uint32_t id = static_cast<uint32_t>(paths_.size());
  paths_.push_back(text_pool_.Copy(path));
  const size_t mask = path_slots_.size() - 1;
  size_t i = hash & mask;
  while (path_slots_[i] != 0) i = (i + 1) & mask;
  path_slots_[i] =
      (hash & 0xFFFFFFFF00000000ull) | (static_cast<uint64_t>(id) + 1);
  return id;
}

void FlowIndex::IndexFlow(const proxy::FlowView& flow, uint32_t host_id,
                          PostingsCache& cache) {
  FlowEntry entry;
  entry.uid = flow.uid;
  entry.host_id = host_id;
  entry.path_id = InternPath(flow.url.path());
  entry.param_begin = static_cast<uint32_t>(params_.size());
  entry.time_millis = flow.time.millis;
  entry.app_uid = flow.app_uid;
  entry.server_ip = flow.server_ip.value();
  entry.request_bytes = flow.request_bytes;
  entry.response_bytes = flow.response_bytes;
  entry.has_body = !flow.request_body.empty();
  entry.body_has_percent =
      flow.request_body.find('%') != std::string::npos;

  // Pool order replicates the legacy per-flow scans exactly: decoded
  // query pairs in appearance order, each immediately followed by its
  // Base64-decoded twin when one exists (the PII scanner and the
  // history-leak detector both decode under the same condition), then
  // the scalar JSON body members in key order (util::Json objects are
  // sorted maps). Iterating the raw pieces avoids materializing the
  // pair vector QueryParams() builds per flow: percent-decoding only
  // allocates when a piece actually contains '%' (PercentDecode is the
  // identity otherwise), and decoded text lands in the text pool.
  std::string key_scratch;
  std::string value_scratch;
  net::ForEachQueryParamRaw(
      flow.url.query(), [&](std::string_view raw_key, std::string_view raw_value) {
        std::string_view key = raw_key;
        if (raw_key.find('%') != std::string_view::npos) {
          key_scratch = util::PercentDecode(raw_key);
          key = key_scratch;
        }
        std::string_view value = raw_value;
        if (raw_value.find('%') != std::string_view::npos) {
          value_scratch = util::PercentDecode(raw_value);
          value = value_scratch;
        }
        uint32_t key_id = InternKey(key);
        // A Base64 twin needs a valid decode of a value ≥ 8 chars; the
        // length gate runs first so short values skip the decode.
        std::optional<std::string> decoded;
        if (value.size() >= 8) decoded = util::Base64Decode(value);
        params_.push_back(
            Param{key_id, ParamSource::kQuery, text_pool_.Copy(value), 0});
        if (decoded) {
          params_.push_back(Param{key_id, ParamSource::kQueryBase64,
                                  text_pool_.Copy(*decoded), 0});
        }
      });
  if (entry.has_body) {
    if (auto json = util::Json::Parse(flow.request_body);
        json && json->is_object()) {
      for (const auto& [key, value] : json->as_object()) {
        if (value.is_string()) {
          params_.push_back(Param{InternKey(key),
                                  ParamSource::kBodyJsonString,
                                  text_pool_.Copy(value.as_string()), 0});
        } else if (value.is_number()) {
          double number = value.as_number();
          // Same rendering the PII scanner applies: exact integers
          // print bare; otherwise four decimals (enough for lat/lon).
          std::string text =
              number == static_cast<double>(static_cast<int64_t>(number))
                  ? std::to_string(static_cast<int64_t>(number))
                  : util::FormatDouble(number, 4);
          params_.push_back(Param{InternKey(key),
                                  ParamSource::kBodyJsonNumber,
                                  text_pool_.Copy(text), number});
        } else if (value.is_bool()) {
          params_.push_back(Param{InternKey(key),
                                  ParamSource::kBodyJsonBool,
                                  value.as_bool() ? "true" : "false", 0});
        }
      }
    }
  }
  entry.param_end = static_cast<uint32_t>(params_.size());

  entries_.push_back(entry);
  AddPostings(static_cast<uint32_t>(entries_.size() - 1), cache);
}

void FlowIndex::AddPostings(uint32_t flow_id, PostingsCache& cache) {
  const FlowEntry& entry = entries_[flow_id];
  flows_by_host_[entry.host_id].push_back(flow_id);
  if (cache.uid_flows == nullptr || cache.uid != entry.app_uid) {
    cache.uid = entry.app_uid;
    cache.uid_flows = &flows_by_uid_[entry.app_uid];
  }
  cache.uid_flows->push_back(flow_id);
  int64_t bucket = entry.time_millis / kTimeBucketMillis * kTimeBucketMillis;
  if (cache.bucket_flows == nullptr || cache.bucket != bucket) {
    cache.bucket = bucket;
    cache.bucket_flows = &flows_by_bucket_[bucket];
  }
  cache.bucket_flows->push_back(flow_id);
  request_bytes_total_ += entry.request_bytes;
  response_bytes_total_ += entry.response_bytes;
}

FlowIndex FlowIndex::Build(const proxy::FlowStore& store) {
  obs::ScopedSpan span("index.build", "index");
  int64_t start_ns = util::SteadyNowNanos();

  FlowIndex index;
  index.entries_.reserve(store.size());
  // Pre-size the path table for the worst case (every path distinct) so
  // the build never rehashes.
  size_t slot_cap = 64;
  while (slot_cap < store.size() * 2) slot_cap *= 2;
  index.path_slots_.assign(slot_cap, 0);
  // The store already interned hosts; remap its pool ids to index ids
  // lazily (first-live-appearance order, matching what per-flow
  // interning produced) so repeated hosts skip the map lookup.
  constexpr uint32_t kUnmapped = UINT32_MAX;
  std::vector<uint32_t> host_map(store.hosts().size(), kUnmapped);
  PostingsCache cache;
  for (const auto& flow : store.flows()) {
    uint32_t& mapped = host_map[flow.host_id];
    if (mapped == kUnmapped) mapped = index.InternHost(flow.Host());
    index.IndexFlow(flow, mapped, cache);
  }

  auto& metrics = Metrics();
  metrics.builds.Inc();
  metrics.indexed_flows.Inc(index.entries_.size());
  metrics.build_seconds.Observe(
      static_cast<double>(util::SteadyNowNanos() - start_ns) * 1e-9);
  span.Arg("flows", static_cast<int64_t>(index.entries_.size()));
  span.Arg("hosts", static_cast<int64_t>(index.hosts_.size()));
  return index;
}

void FlowIndex::AddFlow(const proxy::FlowStore& store, size_t i,
                        Cursor& cursor) {
  constexpr uint32_t kUnmapped = UINT32_MAX;
  // The store's host pool only grows, so the map is extended lazily;
  // a rewind shrinks it back through RewindTo.
  if (cursor.host_map.size() < store.hosts().size()) {
    cursor.host_map.resize(store.hosts().size(), kUnmapped);
  }
  const proxy::FlowView& flow = store.flow(i);
  uint32_t& mapped = cursor.host_map[flow.host_id];
  if (mapped == kUnmapped) mapped = InternHost(flow.Host());
  IndexFlow(flow, mapped, cursor.cache);
  Metrics().indexed_flows.Inc();
}

FlowIndex::Checkpoint FlowIndex::MakeCheckpoint() const {
  return Checkpoint{hosts_.size(),   keys_.size(),
                    paths_.size(),  params_.size(),
                    entries_.size(), request_bytes_total_,
                    response_bytes_total_};
}

void FlowIndex::RewindTo(const Checkpoint& checkpoint, Cursor* cursor) {
  constexpr uint32_t kUnmapped = UINT32_MAX;
  // Pop postings newest-first: each discarded entry is by construction
  // the tail of every postings vector it appears in.
  for (size_t id = entries_.size(); id-- > checkpoint.entries;) {
    const FlowEntry& entry = entries_[id];
    flows_by_host_[entry.host_id].pop_back();
    auto uid_it = flows_by_uid_.find(entry.app_uid);
    uid_it->second.pop_back();
    if (uid_it->second.empty()) flows_by_uid_.erase(uid_it);
    int64_t bucket = entry.time_millis / kTimeBucketMillis * kTimeBucketMillis;
    auto bucket_it = flows_by_bucket_.find(bucket);
    bucket_it->second.pop_back();
    if (bucket_it->second.empty()) flows_by_bucket_.erase(bucket_it);
  }
  entries_.resize(checkpoint.entries);
  params_.resize(checkpoint.params);

  for (size_t id = checkpoint.hosts; id < hosts_.size(); ++id) {
    host_ids_.erase(host_ids_.find(hosts_[id].raw));
  }
  hosts_.resize(checkpoint.hosts);
  flows_by_host_.resize(checkpoint.hosts);
  for (size_t id = checkpoint.keys; id < keys_.size(); ++id) {
    key_ids_.erase(key_ids_.find(keys_[id]));
  }
  keys_.resize(checkpoint.keys);
  keys_lower_.resize(checkpoint.keys);
  if (paths_.size() > checkpoint.paths) {
    paths_.resize(checkpoint.paths);
    // Rebuild the probe table in place: deleting slots would leave
    // tombstones that break the empty-slot probe termination.
    std::fill(path_slots_.begin(), path_slots_.end(), 0);
    const size_t mask = path_slots_.size() - 1;
    for (uint32_t id = 0; id < paths_.size(); ++id) {
      uint64_t hash = PathHash(paths_[id]);
      size_t i = hash & mask;
      while (path_slots_[i] != 0) i = (i + 1) & mask;
      path_slots_[i] =
          (hash & 0xFFFFFFFF00000000ull) | (static_cast<uint64_t>(id) + 1);
    }
  }
  request_bytes_total_ = checkpoint.request_bytes;
  response_bytes_total_ = checkpoint.response_bytes;

  if (cursor != nullptr) {
    for (uint32_t& mapped : cursor->host_map) {
      if (mapped != kUnmapped && mapped >= checkpoint.hosts) {
        mapped = kUnmapped;
      }
    }
    cursor->cache = PostingsCache{};
  }
}

void FlowIndex::Append(const FlowIndex& other) {
  obs::ScopedSpan span("index.append", "index");
  // Every table is walked by index up to its size on entry: a
  // self-append pushes onto the tables it reads (its re-interning finds
  // the existing ids), and the text pool never moves bytes it handed out.
  const size_t host_count = other.hosts_.size();
  const size_t key_count = other.keys_.size();
  const size_t path_count = other.paths_.size();
  const size_t param_count = other.params_.size();
  const size_t entry_count = other.entries_.size();

  // Interned tables are in first-appearance order, so re-interning each
  // table in order reproduces exactly the ids a single Build over the
  // concatenated stores would assign.
  std::vector<uint32_t> host_map(host_count);
  for (size_t i = 0; i < host_count; ++i) {
    host_map[i] = InternHost(other.hosts_[i].raw);
  }
  std::vector<uint32_t> key_map(key_count);
  for (size_t i = 0; i < key_count; ++i) {
    key_map[i] = InternKey(other.keys_[i]);
  }
  std::vector<uint32_t> path_map(path_count);
  for (size_t i = 0; i < path_count; ++i) {
    path_map[i] = InternPath(other.paths_[i]);
  }

  const uint32_t param_offset = static_cast<uint32_t>(params_.size());
  params_.reserve(params_.size() + param_count);
  for (size_t i = 0; i < param_count; ++i) {
    const Param& param = other.params_[i];
    params_.push_back(Param{key_map[param.key_id], param.source,
                            text_pool_.Copy(param.value), param.number});
  }

  entries_.reserve(entries_.size() + entry_count);
  PostingsCache cache;
  for (size_t i = 0; i < entry_count; ++i) {
    FlowEntry mapped = other.entries_[i];
    mapped.host_id = host_map[mapped.host_id];
    mapped.path_id = path_map[mapped.path_id];
    mapped.param_begin += param_offset;
    mapped.param_end += param_offset;
    entries_.push_back(mapped);
    AddPostings(static_cast<uint32_t>(entries_.size() - 1), cache);
  }

  auto& metrics = Metrics();
  metrics.appends.Inc();
  metrics.indexed_flows.Inc(entry_count);
  span.Arg("flows", static_cast<int64_t>(entry_count));
}

std::optional<uint32_t> FlowIndex::HostId(std::string_view raw_host) const {
  Metrics().host_lookups.Inc();
  if (auto it = host_ids_.find(raw_host); it != host_ids_.end()) {
    return it->second;
  }
  return std::nullopt;
}

std::optional<uint32_t> FlowIndex::PathId(std::string_view path) const {
  uint32_t id = FindPath(path, PathHash(path));
  if (id != UINT32_MAX) return id;
  return std::nullopt;
}

const std::vector<uint32_t>* FlowIndex::FlowsToHost(
    std::string_view raw_host) const {
  auto id = HostId(raw_host);
  return id ? &flows_by_host_[*id] : nullptr;
}

std::vector<std::string> FlowIndex::SortedHosts() const {
  std::vector<std::string> sorted;
  sorted.reserve(hosts_.size());
  for (const auto& host : hosts_) {
    sorted.push_back(host.raw);
  }
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

void FlowIndex::SerializeTo(util::BinWriter& out) const {
  obs::ScopedSpan span("index.serialize", "index");
  // Only the interned tables, the parameter pool and the flow entries
  // are encoded. Postings, lookup maps, canonical/domain host forms,
  // lowercase keys and byte totals are derived data, rebuilt on read —
  // which is what makes a deserialized index serialize byte-identical
  // to a freshly built one.
  out.U32(static_cast<uint32_t>(hosts_.size()));
  for (const auto& host : hosts_) {
    out.Str(host.raw);
  }
  out.U32(static_cast<uint32_t>(keys_.size()));
  for (const auto& key : keys_) {
    out.Str(key);
  }
  out.U32(static_cast<uint32_t>(paths_.size()));
  for (const auto& path : paths_) {
    out.Str(path);
  }
  out.U64(params_.size());
  for (const auto& param : params_) {
    out.U32(param.key_id);
    out.U8(static_cast<uint8_t>(param.source));
    out.Str(param.value);
    out.F64(param.number);
  }
  out.U64(entries_.size());
  for (const auto& entry : entries_) {
    out.U64(entry.uid);
    out.U32(entry.host_id);
    out.U32(entry.path_id);
    out.U32(entry.param_begin);
    out.U32(entry.param_end);
    out.I64(entry.time_millis);
    out.I64(entry.app_uid);
    out.U32(entry.server_ip);
    out.U64(entry.request_bytes);
    out.U64(entry.response_bytes);
    out.Bool(entry.has_body);
    out.Bool(entry.body_has_percent);
  }
}

std::unique_ptr<FlowIndex> FlowIndex::Deserialize(util::BinReader& in) {
  obs::ScopedSpan span("index.deserialize", "index");
  auto index = std::make_unique<FlowIndex>();

  uint32_t host_count = in.U32();
  for (uint32_t i = 0; i < host_count && in.ok(); ++i) {
    std::string raw = in.Str();
    // InternHost recomputes the canonical/domain forms and the lookup
    // map; tables were written in first-appearance order, so ids are
    // reassigned identically.
    if (index->InternHost(raw) != i) return nullptr;  // duplicate entry
  }
  uint32_t key_count = in.U32();
  for (uint32_t i = 0; i < key_count && in.ok(); ++i) {
    if (index->InternKey(in.Str()) != i) return nullptr;
  }
  uint32_t path_count = in.U32();
  for (uint32_t i = 0; i < path_count && in.ok(); ++i) {
    if (index->InternPath(in.Str()) != i) return nullptr;
  }

  uint64_t param_count = in.U64();
  if (!in.ok() || param_count > in.remaining()) return nullptr;
  index->params_.reserve(param_count);
  for (uint64_t i = 0; i < param_count && in.ok(); ++i) {
    Param param;
    param.key_id = in.U32();
    uint8_t source = in.U8();
    param.value = index->text_pool_.Copy(in.Str());
    param.number = in.F64();
    if (param.key_id >= index->keys_.size() ||
        source > static_cast<uint8_t>(ParamSource::kBodyJsonBool)) {
      return nullptr;
    }
    param.source = static_cast<ParamSource>(source);
    index->params_.push_back(std::move(param));
  }

  uint64_t entry_count = in.U64();
  if (!in.ok() || entry_count > in.remaining()) return nullptr;
  index->entries_.reserve(entry_count);
  PostingsCache cache;
  for (uint64_t i = 0; i < entry_count && in.ok(); ++i) {
    FlowEntry entry;
    entry.uid = in.U64();
    entry.host_id = in.U32();
    entry.path_id = in.U32();
    entry.param_begin = in.U32();
    entry.param_end = in.U32();
    entry.time_millis = in.I64();
    entry.app_uid = static_cast<int32_t>(in.I64());
    entry.server_ip = in.U32();
    entry.request_bytes = in.U64();
    entry.response_bytes = in.U64();
    entry.has_body = in.Bool();
    entry.body_has_percent = in.Bool();
    if (entry.host_id >= index->hosts_.size() ||
        entry.path_id >= index->paths_.size() ||
        entry.param_begin > entry.param_end ||
        entry.param_end > index->params_.size()) {
      return nullptr;
    }
    index->entries_.push_back(entry);
    index->AddPostings(static_cast<uint32_t>(index->entries_.size() - 1),
                       cache);
  }
  if (!in.ok()) return nullptr;

  Metrics().builds.Inc();
  span.Arg("flows", static_cast<int64_t>(index->entries_.size()));
  return index;
}

}  // namespace panoptes::analysis
