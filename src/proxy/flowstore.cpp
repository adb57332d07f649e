#include "proxy/flowstore.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "chaos/injector.h"
#include "net/psl.h"
#include "obs/journal.h"
#include "obs/telemetry.h"
#include "util/rng.h"

namespace panoptes::proxy {

namespace {

// First byte of a relocatable arena image (DumpRelocatable). Spill
// segments only — never a portable snapshot tag.
constexpr uint8_t kRelocTag = 0xF5;
// First byte of a portable store: v5 records carry the provenance uid
// and redirect-chain provenance (redirect_of uid, hop index). 0xF5 is
// the reloc tag, so v5 took the next free byte. Older store encodings
// (v4's 0xF4 and before) only ever appeared in snapshots the readers
// reject, so they are not decoded.
constexpr uint8_t kV5Tag = 0xF6;

// Bound on the chain-tails map. Tokens are minted monotonically per
// browser context and a chain is dead once its navigation finishes, so
// evicting the smallest (oldest) token can only ever drop a finished
// chain — 256 in-flight navigations is far beyond any campaign.
constexpr size_t kMaxChainTails = 256;

}  // namespace

uint32_t MakeProvenanceTag(uint64_t job_seed, uint32_t role) {
  uint64_t state = job_seed ^ (0x9E3779B97F4A7C15ull * (role + 1));
  uint32_t tag = static_cast<uint32_t>(util::SplitMix64(state) >> 32);
  // Tag 0 means "no provenance"; remap the 1-in-2^32 collision.
  return tag == 0 ? 1 : tag;
}

void FlowStore::Add(const Flow& flow) {
  if (chaos_ != nullptr && chaos_->FlowWriteDrop(flow.Host())) {
    ++dropped_writes_;
    return;
  }
  if (telemetry_ != nullptr) ++telemetry_->flows_stored;
  StoreFlow(flow);
  if (journal_ != nullptr) {
    const FlowView& rec = recs_.back();
    auto event = journal_->Emit(flow.time.millis, "store", "flow_stored")
                     .U64Hex("flow", rec.uid)
                     .Num("proxy_id", flow.id)
                     .Str("host", flow.url.host());
    // Chain fields only on redirect hops, so journals of runs without
    // redirect scenarios stay byte-identical to the pre-chain format.
    if (rec.redirect_hop > 0) {
      event.Num("hop", static_cast<uint64_t>(rec.redirect_hop))
          .U64Hex("redirect_of", rec.redirect_of);
    }
  }
}

void FlowStore::TruncateTo(size_t size) {
  if (size >= recs_.size()) return;
  if (telemetry_ != nullptr) {
    telemetry_->flows_rolled_back += recs_.size() - size;
  }
  recs_.resize(size);
}

void FlowStore::StoreFlow(const Flow& flow) {
  FlowView rec;
  rec.id = flow.id;
  rec.uid = (static_cast<uint64_t>(provenance_tag_) << 32) |
            (ordinal_base_ + recs_.size());
  rec.time = flow.time;
  rec.browser = InternLabel(flow.browser);
  rec.app_uid = flow.app_uid;
  rec.method = flow.method;

  // The Url's own text and layout, re-pointed at the arena copy.
  const net::UrlView url = flow.url.view();
  rec.url = url.RebasedTo(arena_.Copy(url.text()));
  rec.host_id = InternHost(rec.url.host());

  if (!compact_) {
    const auto& entries = flow.request_headers.entries();
    if (!entries.empty()) {
      HeaderView* arr = arena_.AllocArray<HeaderView>(entries.size());
      for (size_t i = 0; i < entries.size(); ++i) {
        arr[i].name = InternHeaderName(entries[i].first);
        arr[i].value = arena_.Copy(entries[i].second);
      }
      rec.request_headers = HeadersView(arr, entries.size());
    }
    rec.request_body = arena_.Copy(flow.request_body);
  }

  rec.response_status = flow.response_status;
  rec.request_bytes = flow.request_bytes;
  rec.response_bytes = flow.response_bytes;
  rec.server_ip = flow.server_ip;
  rec.version = flow.version;
  rec.origin = flow.origin;
  rec.taint = arena_.Copy(flow.taint);
  rec.blocked = flow.blocked;
  rec.blocked_by = InternLabel(flow.blocked_by);
  rec.fault_injected = flow.fault_injected;

  // Resolve the navigation-chain token into a predecessor uid: the
  // last stored flow of the same chain is this hop's redirect source.
  // Tails key on the token (minted fresh per navigation attempt), so a
  // rolled-back attempt's stale tail is never consulted again, and a
  // chain spanning a spill boundary resolves identically because the
  // streaming buffer hands the tails to the fresh live store.
  rec.redirect_hop = flow.redirect_hop;
  if (flow.chain_id != 0) {
    if (flow.redirect_hop > 0) {
      auto it = chain_tails_.find(flow.chain_id);
      if (it != chain_tails_.end()) rec.redirect_of = it->second;
    }
    chain_tails_[flow.chain_id] = rec.uid;
    if (chain_tails_.size() > kMaxChainTails) {
      chain_tails_.erase(chain_tails_.begin());
    }
  }
  recs_.push_back(rec);
}

void FlowStore::Append(FlowStore&& other) {
  if (&other == this) {
    throw std::invalid_argument(
        "FlowStore::Append: a store cannot consume itself");
  }
  // Merges take flows verbatim — going through StoreFlow here would
  // re-apply *this* store's compaction to flows whose capture-time
  // policy already decided what to keep. The records move as they are:
  // every view in them points into `other`'s chunks, which this arena
  // adopts, so no payload byte is copied. Labels and header names stay
  // views into those chunks rather than this store's pools; every
  // reader (SerializeTo included) keys on their content.
  arena_.Adopt(std::move(other.arena_));
  const size_t mark = recs_.size();
  recs_.insert(recs_.end(), other.recs_.begin(), other.recs_.end());

  // Remap host ids in first-live-reference order, as per-flow interning
  // would, moving each new host's registrable domain instead of
  // recomputing it.
  constexpr uint32_t kUnmapped = UINT32_MAX;
  std::vector<uint32_t> host_map(other.hosts_.size(), kUnmapped);
  for (size_t i = mark; i < recs_.size(); ++i) {
    uint32_t& mapped = host_map[recs_[i].host_id];
    if (mapped == kUnmapped) {
      HostEntry& host = other.hosts_[recs_[i].host_id];
      auto [it, inserted] = host_ids_.emplace(
          host.host, static_cast<uint32_t>(hosts_.size()));
      if (inserted) {
        hosts_.push_back(HostEntry{host.host, std::move(host.domain)});
      }
      mapped = it->second;
    }
    recs_[i].host_id = mapped;
  }
  other.Clear();
}

void FlowStore::SerializeTo(util::BinWriter& out) const {
  out.U8(kV5Tag);
  out.Bool(compact_);
  out.U64(dropped_writes_);

  // Pools are rebuilt in first-reference order over *live* records, so
  // a truncated store serializes exactly like one that never held the
  // discarded flows (content-addressed cache keys depend on this).
  std::map<std::string_view, uint32_t> label_ids;
  std::vector<std::string_view> labels;
  auto LabelId = [&](std::string_view s) -> uint32_t {
    auto [it, inserted] =
        label_ids.emplace(s, static_cast<uint32_t>(labels.size()));
    if (inserted) labels.push_back(s);
    return it->second;
  };
  std::map<std::string_view, uint32_t> name_ids;
  std::vector<std::string_view> names;
  auto NameId = [&](std::string_view s) -> uint32_t {
    auto [it, inserted] =
        name_ids.emplace(s, static_cast<uint32_t>(names.size()));
    if (inserted) names.push_back(s);
    return it->second;
  };

  // One pass builds the payload blob (per flow: url text, header
  // values, body, taint — lengths live in the fixed-width records) and
  // the record buffer; pools are emitted first so the reader can
  // resolve ids while scanning records.
  std::string blob;
  util::BinWriter recs;
  for (const FlowView& rec : recs_) {
    recs.U64(rec.id);
    recs.U64(rec.uid);
    recs.I64(rec.time.millis);
    recs.U32(LabelId(rec.browser));
    recs.I64(rec.app_uid);
    recs.U8(static_cast<uint8_t>(rec.method));
    recs.U32(static_cast<uint32_t>(rec.url.text().size()));
    blob.append(rec.url.text());
    recs.U32(static_cast<uint32_t>(rec.request_headers.size()));
    for (const auto& [name, value] : rec.request_headers.entries()) {
      recs.U32(NameId(name));
      recs.U32(static_cast<uint32_t>(value.size()));
      blob.append(value);
    }
    recs.U32(static_cast<uint32_t>(rec.request_body.size()));
    blob.append(rec.request_body);
    recs.I64(rec.response_status);
    recs.U64(rec.request_bytes);
    recs.U64(rec.response_bytes);
    recs.U32(rec.server_ip.value());
    recs.U8(static_cast<uint8_t>(rec.version));
    recs.U8(static_cast<uint8_t>(rec.origin));
    recs.U32(static_cast<uint32_t>(rec.taint.size()));
    blob.append(rec.taint);
    recs.Bool(rec.blocked);
    recs.U32(LabelId(rec.blocked_by));
    recs.Bool(rec.fault_injected);
    recs.U64(rec.redirect_of);
    recs.U32(rec.redirect_hop);
  }

  out.U32(static_cast<uint32_t>(labels.size()));
  for (std::string_view label : labels) out.Str(label);
  out.U32(static_cast<uint32_t>(names.size()));
  for (std::string_view name : names) out.Str(name);
  out.U32(static_cast<uint32_t>(recs_.size()));
  out.U64(blob.size());
  out.Raw(blob);
  out.Raw(recs.data());
}

std::unique_ptr<FlowStore> FlowStore::Deserialize(util::BinReader& in) {
  uint8_t tag = in.U8();
  if (!in.ok() || tag != kV5Tag) return nullptr;

  auto store = std::make_unique<FlowStore>(in.Bool());
  store->dropped_writes_ = in.U64();
  if (!store->AppendRecords(in)) return nullptr;
  return store;
}

void FlowStore::DumpRelocatable(util::BinWriter& out) const {
  static_assert(std::is_trivially_copyable_v<FlowView>,
                "the record array is blitted verbatim");
  out.U8(kRelocTag);
  out.Bool(compact_);
  out.U64(dropped_writes_);

  // Arena image: every string payload, interned label/name and
  // HeaderView array a live record references sits inside one of these
  // ranges, at an offset the reader reconstructs from the recorded
  // base address.
  const auto chunks = arena_.ChunkRefs();
  uint32_t chunk_count = 0;
  for (const auto& chunk : chunks) {
    if (chunk.used > 0) ++chunk_count;
  }
  out.U32(chunk_count);
  for (const auto& chunk : chunks) {
    if (chunk.used == 0) continue;
    out.U64(static_cast<uint64_t>(reinterpret_cast<uintptr_t>(chunk.data)));
    out.U64(chunk.used);
    out.Raw(std::string_view(chunk.data, chunk.used));
  }

  // Host pool with the precomputed registrable domains, so replay
  // never re-runs the PSL.
  out.U32(static_cast<uint32_t>(hosts_.size()));
  for (const HostEntry& host : hosts_) {
    out.U64(
        static_cast<uint64_t>(reinterpret_cast<uintptr_t>(host.host.data())));
    out.U32(static_cast<uint32_t>(host.host.size()));
    out.Str(host.domain);
  }

  out.U64(recs_.size());
  out.Raw(std::string_view(reinterpret_cast<const char*>(recs_.data()),
                           recs_.size() * sizeof(FlowView)));
}

bool FlowStore::AppendRelocatable(util::BinReader& in) {
  if (in.U8() != kRelocTag || !in.ok()) return false;
  // Compaction is a capture-time decision (see Append): replaying an
  // image with the opposite policy into this store would silently
  // re-apply or undo it, so the flags must agree.
  if (in.Bool() != compact_) return false;
  const uint64_t dropped = in.U64();

  uint32_t chunk_count = in.U32();
  if (!in.ok() || chunk_count > in.remaining() / 16) return false;
  struct Span {
    uint64_t old_base = 0;
    uint64_t used = 0;
    char* new_base = nullptr;
  };
  std::vector<Span> spans;
  spans.reserve(chunk_count);
  for (uint32_t i = 0; i < chunk_count; ++i) {
    Span span;
    span.old_base = in.U64();
    span.used = in.U64();
    if (!in.ok() || span.used == 0 || span.used > in.remaining()) return false;
    std::string_view bytes = in.Raw(static_cast<size_t>(span.used));
    span.new_base = arena_.AdoptBlock(bytes.data(), bytes.size());
    spans.push_back(span);
  }
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.old_base < b.old_base; });

  // Old addresses rebase to (new chunk base + offset). Lookups ride a
  // one-entry cache: records reference the arena roughly in allocation
  // order, so consecutive views almost always hit the same chunk.
  size_t hint = 0;
  bool bad = false;
  auto RebaseRaw = [&](uint64_t p, size_t len) -> char* {
    if (spans.empty()) {
      bad = true;
      return nullptr;
    }
    const Span* span = &spans[hint];
    if (p < span->old_base || p + len > span->old_base + span->used) {
      // Last span starting at or below p.
      size_t lo = 0;
      size_t hi = spans.size();
      while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (spans[mid].old_base <= p) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo == 0) {
        bad = true;
        return nullptr;
      }
      hint = lo - 1;
      span = &spans[hint];
      if (p < span->old_base || p + len > span->old_base + span->used) {
        bad = true;
        return nullptr;
      }
    }
    return span->new_base + (p - span->old_base);
  };
  // Zero-length views flatten to the empty view: consumers and
  // SerializeTo are content-keyed, so nothing distinguishes an empty
  // slice's address.
  auto Rebase = [&](std::string_view v) -> std::string_view {
    if (v.empty()) return std::string_view();
    char* out = RebaseRaw(reinterpret_cast<uintptr_t>(v.data()), v.size());
    return out == nullptr ? std::string_view() : std::string_view(out, v.size());
  };

  // Merge the dumped host pool into this store's, reusing the carried
  // domains. Pool entries interned before a later failure stay behind
  // unreferenced — the same arena contract as AppendRecords:
  // serialization rebuilds pools from live records, so stragglers
  // never reach an output byte.
  uint32_t host_count = in.U32();
  if (!in.ok() || host_count > in.remaining() / 12) return false;
  std::vector<uint32_t> host_map;
  host_map.reserve(host_count);
  for (uint32_t i = 0; i < host_count; ++i) {
    const uint64_t old_ptr = in.U64();
    const uint32_t len = in.U32();
    std::string domain = in.Str();
    if (!in.ok()) return false;
    std::string_view host =
        len == 0 ? std::string_view()
                 : std::string_view(RebaseRaw(old_ptr, len), len);
    if (bad) return false;
    auto it = host_ids_.find(host);
    if (it != host_ids_.end()) {
      host_map.push_back(it->second);
    } else {
      uint32_t id = static_cast<uint32_t>(hosts_.size());
      hosts_.push_back(HostEntry{host, std::move(domain)});
      host_ids_.emplace(host, id);
      host_map.push_back(id);
    }
  }

  const uint64_t rec_count = in.U64();
  if (!in.ok() || rec_count > in.remaining() / sizeof(FlowView)) return false;
  std::string_view raw =
      in.Raw(static_cast<size_t>(rec_count) * sizeof(FlowView));
  if (!in.ok() || !in.AtEnd()) return false;

  const size_t mark = recs_.size();
  auto fail = [&]() {
    recs_.resize(mark);
    return false;
  };
  recs_.resize(mark + static_cast<size_t>(rec_count));
  if (!raw.empty()) {
    std::memcpy(recs_.data() + mark, raw.data(), raw.size());
  }
  for (size_t i = mark; i < recs_.size(); ++i) {
    FlowView& rec = recs_[i];
    rec.browser = Rebase(rec.browser);
    rec.url = rec.url.RebasedTo(Rebase(rec.url.text()));
    const size_t header_count = rec.request_headers.size();
    if (header_count > 0) {
      const HeaderView* old_arr = rec.request_headers.entries().data();
      // The array itself lives in an adopted chunk; rebase it, then fix
      // its entries in place. Every record owns its array (no store
      // shares one between records), so each is fixed exactly once.
      char* arr_bytes =
          RebaseRaw(reinterpret_cast<uintptr_t>(old_arr),
                    header_count * sizeof(HeaderView));
      if (arr_bytes == nullptr) return fail();
      HeaderView* arr = reinterpret_cast<HeaderView*>(arr_bytes);
      for (size_t h = 0; h < header_count; ++h) {
        arr[h].name = Rebase(arr[h].name);
        arr[h].value = Rebase(arr[h].value);
      }
      rec.request_headers = HeadersView(arr, header_count);
    }
    rec.request_body = Rebase(rec.request_body);
    rec.taint = Rebase(rec.taint);
    rec.blocked_by = Rebase(rec.blocked_by);
    if (rec.host_id >= host_map.size()) return fail();
    rec.host_id = host_map[rec.host_id];
    if (bad) return fail();
  }
  if (bad) return fail();
  dropped_writes_ += dropped;
  return true;
}

bool FlowStore::AppendRecords(util::BinReader& in) {
  const size_t mark = recs_.size();
  // On any failure the record vector is rewound to `mark`, so the
  // store holds either every record of the stream or none of them.
  // Pool entries interned by the failed tail stay allocated but
  // unreferenced; serialization rebuilds pools from live records, so
  // they never reach an output byte (the TruncateTo arena contract).
  auto fail = [&]() {
    recs_.resize(mark);
    return false;
  };

  uint32_t label_count = in.U32();
  if (!in.ok() || label_count > in.remaining() / 4) return fail();
  std::vector<std::string_view> labels;
  labels.reserve(label_count);
  for (uint32_t i = 0; i < label_count; ++i) {
    labels.push_back(InternLabel(in.Str()));
  }
  uint32_t name_count = in.U32();
  if (!in.ok() || name_count > in.remaining() / 4) return fail();
  std::vector<std::string_view> names;
  names.reserve(name_count);
  for (uint32_t i = 0; i < name_count; ++i) {
    names.push_back(InternHeaderName(in.Str()));
  }

  uint32_t count = in.U32();
  if (!in.ok() || count > in.remaining() / 8) return fail();
  uint64_t blob_len = in.U64();
  if (!in.ok() || blob_len > in.remaining()) return fail();
  // The whole payload lands in the arena as one copy; every view below
  // slices it in place.
  std::string_view blob = arena_.Copy(in.Raw(static_cast<size_t>(blob_len)));

  size_t cursor = 0;
  auto Take = [&](size_t len) -> std::string_view {
    if (len > blob.size() - cursor || cursor > blob.size()) {
      cursor = blob.size() + 1;  // poison: framing exceeded the blob
      return std::string_view();
    }
    std::string_view piece = blob.substr(cursor, len);
    cursor += len;
    return piece;
  };

  recs_.reserve(mark + count);
  for (uint32_t i = 0; i < count && in.ok(); ++i) {
    FlowView rec;
    rec.id = in.U64();
    rec.uid = in.U64();
    rec.time.millis = in.I64();
    uint32_t browser_id = in.U32();
    if (browser_id >= labels.size()) return fail();
    rec.browser = labels[browser_id];
    rec.app_uid = static_cast<int>(in.I64());
    rec.method = in.Enum(net::HttpMethod::kDelete);
    auto url = net::UrlView::Parse(Take(in.U32()));
    if (!url.has_value()) return fail();
    rec.url = *url;
    uint32_t header_count = in.U32();
    if (!in.ok() || header_count > in.remaining() / 8) return fail();
    if (header_count > 0) {
      HeaderView* arr = arena_.AllocArray<HeaderView>(header_count);
      for (uint32_t h = 0; h < header_count; ++h) {
        uint32_t name_id = in.U32();
        if (name_id >= names.size()) return fail();
        arr[h].name = names[name_id];
        arr[h].value = Take(in.U32());
      }
      rec.request_headers = HeadersView(arr, header_count);
    }
    rec.request_body = Take(in.U32());
    rec.response_status = static_cast<int>(in.I64());
    rec.request_bytes = in.U64();
    rec.response_bytes = in.U64();
    rec.server_ip = net::IpAddress(in.U32());
    rec.version = in.Enum(net::HttpVersion::kHttp3);
    rec.origin = in.Enum(TrafficOrigin::kNative);
    rec.taint = Take(in.U32());
    rec.blocked = in.Bool();
    uint32_t blocked_id = in.U32();
    if (blocked_id >= labels.size()) return fail();
    rec.blocked_by = labels[blocked_id];
    rec.fault_injected = in.Bool();
    rec.redirect_of = in.U64();
    rec.redirect_hop = in.U32();
    rec.host_id = InternHost(rec.url.host());
    // Straight into the vector: restored flows must not bump the
    // stored-flows counter (they were counted at first capture).
    recs_.push_back(rec);
  }
  if (!in.ok() || cursor != blob.size()) return fail();
  return true;
}

void FlowStore::Clear() {
  recs_.clear();
  recs_.shrink_to_fit();
  hosts_.clear();
  host_ids_.clear();
  label_ids_.clear();
  header_name_ids_.clear();
  arena_.Clear();
}

uint32_t FlowStore::InternHost(std::string_view host) {
  auto it = host_ids_.find(host);
  if (it != host_ids_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(hosts_.size());
  // `host` is a slice of an arena'd URL (or empty), so it is stable for
  // the pool's lifetime and safe as both entry and map key.
  hosts_.push_back(HostEntry{host, net::RegistrableDomain(host)});
  host_ids_.emplace(host, id);
  return id;
}

std::string_view FlowStore::InternLabel(std::string_view label) {
  auto it = label_ids_.find(label);
  if (it != label_ids_.end()) return it->first;
  std::string_view stored = arena_.Copy(label);
  label_ids_.emplace(stored, static_cast<uint32_t>(label_ids_.size()));
  return stored;
}

std::string_view FlowStore::InternHeaderName(std::string_view name) {
  auto it = header_name_ids_.find(name);
  if (it != header_name_ids_.end()) return it->first;
  std::string_view stored = arena_.Copy(name);
  header_name_ids_.emplace(stored,
                           static_cast<uint32_t>(header_name_ids_.size()));
  return stored;
}

uint64_t FlowStore::TotalBytes() const {
  uint64_t total = 0;
  for (const FlowView& rec : recs_) {
    total += rec.request_bytes + rec.response_bytes;
  }
  return total;
}

uint64_t FlowStore::RequestBytes() const {
  uint64_t total = 0;
  for (const FlowView& rec : recs_) total += rec.request_bytes;
  return total;
}

std::set<std::string> FlowStore::DistinctHosts() const {
  std::set<std::string> out;
  for (const FlowView& rec : recs_) out.insert(std::string(rec.Host()));
  return out;
}

std::set<std::string> FlowStore::DistinctDomains() const {
  std::set<std::string> out;
  // The pool may hold hosts only referenced by truncated flows, so walk
  // live records — the per-host domain was computed once at intern time.
  for (const FlowView& rec : recs_) out.insert(hosts_[rec.host_id].domain);
  return out;
}

std::vector<FlowView> FlowStore::Where(
    const std::function<bool(const FlowView&)>& predicate) const {
  std::vector<FlowView> out;
  for (const FlowView& rec : recs_) {
    if (predicate(rec)) out.push_back(rec);
  }
  return out;
}

std::vector<FlowView> FlowStore::ToHost(std::string_view host) const {
  return Where([&](const FlowView& rec) { return rec.Host() == host; });
}

std::vector<FlowView> FlowStore::ToDomain(std::string_view domain) const {
  return Where([&](const FlowView& rec) {
    return hosts_[rec.host_id].domain == domain;
  });
}

}  // namespace panoptes::proxy
