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
// the persisted image (WriteImage) writes the arena's bytes as one text
// block instead of re-encoding field by field.
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
    return arena_.bytes_used() + header_arena_.bytes_used() +
           recs_.size() * sizeof(FlowView);
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

  // The canonical byte form of the live flows: the compaction flag,
  // the dropped-write count, the label and header-name pools referenced
  // by live flows (in first-reference order, so a truncated store
  // writes exactly like one that never held the discarded flows), one
  // payload blob and per-record fields. It depends on flow content
  // only, never on arena history, which is what digests of merged
  // stores pin. Nothing in src/ decodes it; persistence uses the image
  // below.
  void SerializeTo(util::BinWriter& out) const;

  // The flow-store image, the one form in which snapshots and spill
  // segments persist a store. It holds
  //   - the store's text block: every arena chunk's bytes, back to
  //     back, written once (the arena holds only bytes copied from
  //     flows and labels; HeaderView arrays live apart, so no address,
  //     padding or uninitialized byte reaches the image);
  //   - one record per flow, explicit fixed-width little-endian fields,
  //     in which every string is an (offset, length) view into the text
  //     block, the URL carries its UrlView layout, and the browser and
  //     blocked-by labels, header names and hosts are pool ids;
  //   - the label and header-name pools (views into the text block) and
  //     the host pool (each host's registrable domain; a host's text is
  //     that of its first referencing URL), all in first-reference
  //     order over the live records.
  // Bytes depend only on the flows stored and the order of arena
  // writes, so a capture writes the same image on every run, and a
  // store read from an image writes that image back byte for byte.
  // Throws std::length_error when the text block exceeds 4 GiB.
  void WriteImage(util::BinWriter& out) const;

  // Decodes exactly one image into a fresh store, or returns nullptr.
  // The text block is adopted as one arena chunk (its one copy); every
  // view is checked against it, the URL layouts against their text
  // (UrlView::FromLayout), every pool id and enum against its range and
  // every bool against 0/1, and the pools must be distinct and in first-
  // reference order. So any image this accepts is the one WriteImage
  // gives for the decoded store. Restored flows never re-enter the
  // stored-flows metric (they were counted at first capture).
  static std::unique_ptr<FlowStore> ReadImage(std::string_view image);

  bool compact() const { return compact_; }
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

  // Every string payload: URL text, header values, bodies, taints,
  // labels and header names. Bytes copied from flows only — the image's
  // text block.
  util::Arena arena_;
  util::Arena header_arena_;  // HeaderView arrays
  std::vector<FlowView> recs_;

  // chain token -> uid of the last stored flow in that chain.
  std::map<uint64_t, uint64_t> chain_tails_;

  std::vector<HostEntry> hosts_;
  std::map<std::string_view, uint32_t> host_ids_;
  std::map<std::string_view, uint32_t> label_ids_;
  std::map<std::string_view, uint32_t> header_name_ids_;
};

}  // namespace panoptes::proxy
