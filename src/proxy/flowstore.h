// Flow databases. The paper stores tainted (engine) and untainted
// (native) flows in two separate local databases; analysis queries run
// against these stores.
//
// Storage is arena-backed: every string payload (serialized URL text,
// request body, header values, taint) lives in one bump-allocated byte
// arena per store, header names and campaign/addon labels are interned
// (one copy per distinct spelling), and hosts get an interned pool that
// carries the precomputed registrable domain. Flows are exposed as
// proxy::FlowView records — fixed-width structs of string_views into
// the arena — so analyzers scan without per-flow string ownership, and
// serialization blits the payload bytes as one blob instead of
// re-encoding field by field.
//
// View validity: arena chunks never move or shrink, so FlowViews (and
// every string_view inside them) stay valid across Add, Append and
// TruncateTo, for the store's whole lifetime, including after the store
// object itself is moved. Append(std::move(src)) hands src's chunks to
// the destination, so views taken from src stay valid for as long as
// the destination lives. References *to* the record vector
// (flows()[i], &flow(i)) follow the usual vector rules and are
// invalidated by growth — take a FlowView by value to keep it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "proxy/flow.h"
#include "proxy/flowsink.h"
#include "proxy/flowview.h"
#include "util/arena.h"
#include "util/binio.h"

namespace panoptes::chaos {
class Injector;
}  // namespace panoptes::chaos

namespace panoptes::obs {
class Journal;
struct JobTelemetry;
}  // namespace panoptes::obs

namespace panoptes::proxy {

// Derives a 32-bit store provenance tag from a job seed and the store's
// role (0 = engine, 1 = native). Flow uids are (tag << 32) | ordinal,
// so two jobs (or the two stores of one job) can never mint the same
// uid unless the tags collide — SplitMix64 mixing makes that as
// unlikely as any 32-bit hash collision. Tag 0 is reserved for stores
// with no provenance configured (uid == ordinal).
uint32_t MakeProvenanceTag(uint64_t job_seed, uint32_t role);

class FlowStore : public FlowSink {
 public:
  // Compact stores drop request headers/bodies on insert (sizes and
  // URLs are kept). Used for the high-volume engine database, where
  // only counts, bytes and destinations feed the figures.
  explicit FlowStore(bool compact = false) : compact_(compact) {}

  // Moving a store moves its arena chunks: all views remain valid.
  // Copying is disabled, and nothing clones a store: a merge consumes
  // its sources (see Append).
  FlowStore(FlowStore&&) = default;
  FlowStore& operator=(FlowStore&&) = default;
  FlowStore(const FlowStore&) = delete;
  FlowStore& operator=(const FlowStore&) = delete;

  void Add(const Flow& flow);
  void Clear();

  // FlowSink: the unbounded in-memory sink. Push never sheds (a chaos
  // write drop is the store losing the flow, not the producer being
  // refused), and the transaction mark maps onto TruncateTo.
  bool Push(const Flow& flow) override {
    Add(flow);
    return true;
  }
  uint64_t FlowCount() const override {
    return ordinal_base_ + recs_.size();
  }
  void BeginTransaction() override { transaction_mark_ = recs_.size(); }
  void CommitTransaction() override {}
  void RollbackTransaction() override { TruncateTo(transaction_mark_); }

  // Layers the chaos injector into the write path: a firing
  // kFlowWriteDrop silently loses the flow (the paper's "database
  // write failed" degradation). Dropped writes are counted so the run
  // manifest can report them. Pass nullptr to detach.
  void SetChaos(chaos::Injector* injector) { chaos_ = injector; }
  uint64_t dropped_writes() const { return dropped_writes_; }

  // Provenance tag folded into every uid stamped by this store (see
  // MakeProvenanceTag). Set before the first Add; changing it mid-store
  // is harmless but makes uids non-monotonic.
  void SetProvenance(uint32_t tag) { provenance_tag_ = tag; }
  uint32_t provenance_tag() const { return provenance_tag_; }

  // Uid ordinal of the first flow this store will stamp. A streaming
  // buffer that seals its live store into a spill segment and starts a
  // fresh one sets the new store's base to the global flow count, so
  // uids stay (tag << 32) | global-ordinal — identical to the single
  // unbounded store the batch path would have filled.
  void SetOrdinalBase(uint64_t base) { ordinal_base_ = base; }
  uint64_t ordinal_base() const { return ordinal_base_; }

  // Bytes this store holds live: arena payload plus the record vector.
  // Deterministic for a given flow sequence (no capacity terms), which
  // is what lets a memory budget produce the same spill points at any
  // worker count.
  uint64_t MemoryUsage() const {
    return arena_.bytes_used() + recs_.size() * sizeof(FlowView);
  }

  // Folds dropped-write counts carried by spill segments back into the
  // materialized store, so a spilling capture reports the same total a
  // single unbounded store would have accumulated.
  void AccumulateDroppedWrites(uint64_t count) { dropped_writes_ += count; }

  // Observatory hook: every first-capture Add emits a "flow_stored"
  // journal event carrying {flow uid, proxy flow id, host}. Merges,
  // snapshot restores and rollbacks never re-emit. Pass nullptr to
  // detach. Strictly additive: store contents and serialization are
  // byte-identical with or without a journal attached.
  void SetJournal(obs::Journal* journal) { journal_ = journal; }

  // Counts every first-capture Add into `telemetry`'s flows_stored and
  // every flow TruncateTo discards into its flows_rolled_back, so
  // stored − rolled_back reconciles with the final store sizes. Pass
  // nullptr to detach.
  void SetTelemetry(obs::JobTelemetry* telemetry) { telemetry_ = telemetry; }

  // Truncates the store back to `size` flows. Used by the visit retry
  // loop to discard the partial flows of a failed attempt so retries
  // never double-count traffic.
  // Arena bytes of discarded flows stay allocated until Clear — views
  // handed out earlier never dangle — and serialization writes only
  // live flows, so the leak never reaches a snapshot.
  void TruncateTo(size_t size);

  // Moves every flow of `other` onto the end of this store, preserving
  // order. Used to fold sharded campaign stores back into one database.
  // Consumes `other`: this store adopts its arena chunks and its hosts'
  // registrable domains, and copies only the fixed-width records, with
  // host ids remapped. No payload byte is copied and the PSL is not run
  // again. `other` is left empty, like Clear(), and accepts new Adds.
  // Flows move verbatim: compaction is a capture-time decision, so a
  // merge must never strip headers/bodies that the source store kept
  // (nor can it restore what the source already dropped). Dropped-write
  // counts are not carried. Throws std::invalid_argument when `other`
  // is this store.
  void Append(FlowStore&& other);

  // Navigation-chain tails: last stored document uid per chain token,
  // consulted by StoreFlow to resolve each redirect hop's predecessor
  // uid. A streaming buffer that seals its live store into a spill
  // segment and starts a fresh one moves the tails over, so chains
  // spanning a spill boundary resolve exactly as they would in the
  // single unbounded batch store.
  std::map<uint64_t, uint64_t> TakeChainTails() {
    return std::move(chain_tails_);
  }
  void SetChainTails(std::map<uint64_t, uint64_t> tails) {
    chain_tails_ = std::move(tails);
  }

  // Binary round trip for the job-snapshot format (store format v5:
  // records each carry their provenance uid and redirect-chain
  // provenance: redirect_of uid and hop index).
  // Writes the compaction flag, the dropped-write count, the interned
  // name/label pools actually referenced by live flows (in first-
  // reference order, so a store that was truncated serializes exactly
  // like one that never held the discarded flows) and one payload blob
  // plus fixed-width records. Deserialize recognizes the v5 tag byte
  // and reconstructs views over a single blob copy; any other leading
  // byte (older formats included) is rejected. Returns nullptr
  // on truncation or corruption. Restored flows never re-enter the
  // stored-flows metric (they were counted at first capture, in the
  // run that produced the snapshot).
  void SerializeTo(util::BinWriter& out) const;
  static std::unique_ptr<FlowStore> Deserialize(util::BinReader& in);

  // Relocatable image of this store: raw arena chunks (with their
  // original base addresses), the host pool (with precomputed
  // registrable domains) and the record array blitted verbatim. This is
  // the PANOSPILL segment payload — reading it back is a memcpy plus a
  // pointer rebase per view instead of a per-field re-encode/re-parse,
  // which is what keeps spilling ingest near batch throughput. The
  // image embeds native pointers and struct layout: it is a same-build,
  // same-run artifact (spill segments never outlive their run), NOT a
  // portable snapshot — that's SerializeTo's job. Every record owns its
  // header array (no store shares one between records), which replay
  // relies on to rebase each array once.
  void DumpRelocatable(util::BinWriter& out) const;

  // Replays a DumpRelocatable image straight into this store: adopts
  // the chunk bytes, rebases every view by (new base - old base),
  // remaps host ids into this store's pool (reusing the dumped
  // registrable domains — no PSL recomputation) and accumulates the
  // dropped-write count. The image's compaction flag must match this
  // store's (capture-time policy, see Append). Returns false — leaving
  // the record vector untouched — on a tag/compaction mismatch or a
  // malformed image.
  bool AppendRelocatable(util::BinReader& in);

  void Reserve(size_t capacity) { recs_.reserve(capacity); }

  const std::vector<FlowView>& flows() const { return recs_; }
  const FlowView& flow(size_t i) const { return recs_[i]; }
  size_t size() const { return recs_.size(); }
  bool empty() const { return recs_.empty(); }

  // Interned host pool, first-appearance order; FlowView::host_id
  // indexes it. The registrable domain is computed once per distinct
  // host instead of once per flow.
  struct HostEntry {
    std::string_view host;  // view into the first referencing URL
    std::string domain;     // net::RegistrableDomain(host)
  };
  const std::vector<HostEntry>& hosts() const { return hosts_; }

  // Total request + response wire bytes across stored flows.
  uint64_t TotalBytes() const;
  uint64_t RequestBytes() const;

  // Distinct request hosts / registrable domains.
  std::set<std::string> DistinctHosts() const;
  std::set<std::string> DistinctDomains() const;

  std::vector<FlowView> Where(
      const std::function<bool(const FlowView&)>& predicate) const;

  std::vector<FlowView> ToHost(std::string_view host) const;
  std::vector<FlowView> ToDomain(std::string_view domain) const;

 private:
  // Copies `flow` into the arena and appends its record, without the
  // stored-flows counter; a compact store drops headers and body.
  void StoreFlow(const Flow& flow);

  // The v5 record-stream reader behind Deserialize: appends into this
  // store, all-or-nothing.
  bool AppendRecords(util::BinReader& in);

  uint32_t InternHost(std::string_view host);
  std::string_view InternLabel(std::string_view label);
  std::string_view InternHeaderName(std::string_view name);

  bool compact_;
  chaos::Injector* chaos_ = nullptr;
  obs::Journal* journal_ = nullptr;
  obs::JobTelemetry* telemetry_ = nullptr;
  uint32_t provenance_tag_ = 0;
  uint64_t ordinal_base_ = 0;
  uint64_t dropped_writes_ = 0;
  size_t transaction_mark_ = 0;

  util::Arena arena_;  // every string payload and HeaderView array
  std::vector<FlowView> recs_;

  // chain token -> uid of the last stored flow in that chain.
  std::map<uint64_t, uint64_t> chain_tails_;

  std::vector<HostEntry> hosts_;
  std::map<std::string_view, uint32_t> host_ids_;
  std::map<std::string_view, uint32_t> label_ids_;
  std::map<std::string_view, uint32_t> header_name_ids_;
};

}  // namespace panoptes::proxy
