// Run observatory: append-only structured event journal.
//
// Every layer of a fleet run — executor, campaign, chaos injector,
// proxy, flow store, analysis battery — can emit JournalEvents
// describing what happened: jobs starting and retrying, visits
// degrading, faults firing, flows opening and being persisted,
// analyzers producing findings. The journal is the audit trail that
// lets `panoptes_cli explain` walk a finding back to the exact flow,
// visit, attempt, and fault that produced it.
//
// Determinism contract: events are stamped with *simulated* time (and
// an explicit per-journal sequence number), never wall clock, and each
// fleet job records into its own private Journal which the executor
// merges in plan order. The merged JSONL is therefore byte-identical
// at any worker count — pinned by tests/obs_journal_test.cpp — and the
// journal is strictly additive: no report or snapshot byte changes
// whether it is enabled or not.
//
// Performance contract: emission sits on the proxy's per-flow hot path
// (three events per flow), so a journal stores its data in flat arenas
// — a POD event list, a POD field list, and one character blob for
// string values — and renders JSON only at serialization time. An
// enabled journal costs well under 2% of a fleet run's wall clock
// (bench/obs_overhead pins this); per-event emission does no
// formatting, no escaping, and no per-event allocation.
//
// A Journal is deliberately NOT thread-safe. The fleet gives each job
// its own instance (single-threaded within the job); anything that
// needs cross-thread journaling must shard the same way.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace panoptes::obs {

// Bumped whenever the line format or field vocabulary changes
// incompatibly; consumers check the header line.
inline constexpr int kJournalSchemaVersion = 1;

// One stored event: a fixed header plus a contiguous range in the
// owning journal's field arena. Layer and kind are string_views and
// MUST point at static-storage literals ("proxy", "flow_open", ...) —
// every call site does, and it is what keeps emission allocation-free.
struct JournalEvent {
  int64_t sim_millis = 0;      // simulated clock, never wall time
  std::string_view layer;      // "fleet", "campaign", "chaos", "proxy", ...
  std::string_view kind;       // "job_start", "visit_end", "fault", ...
  uint32_t field_begin = 0;    // index into Journal's field arena
  uint32_t field_count = 0;
};

class Journal {
 public:
  // One field, stored unrendered. Keys are static-storage literals
  // (same contract as JournalEvent::layer/kind); string values are
  // copied into the journal's character arena.
  struct Field {
    enum class Type : uint8_t { kStr, kInt, kUint, kHex, kBool };
    std::string_view key;
    Type type = Type::kInt;
    uint64_t num = 0;        // kInt/kUint/kHex payload; kBool: 0/1
    uint32_t str_begin = 0;  // kStr payload range in the char arena
    uint32_t str_len = 0;
  };

  // Transient chaining handle returned by Emit. Valid only until the
  // next Emit on (or move of) the journal — use it immediately:
  //   journal.Emit(t, "proxy", "flow_open").Num("id", 7).Str("host", h);
  class EventRef {
   public:
    EventRef& Str(std::string_view key, std::string_view value) {
      Field& field = journal_->AddField(key, Field::Type::kStr);
      field.str_begin = static_cast<uint32_t>(journal_->chars_.size());
      field.str_len = static_cast<uint32_t>(value.size());
      journal_->chars_.append(value);
      return *this;
    }
    EventRef& Num(std::string_view key, int64_t value) {
      journal_->AddField(key, Field::Type::kInt).num =
          static_cast<uint64_t>(value);
      return *this;
    }
    EventRef& Num(std::string_view key, uint64_t value) {
      journal_->AddField(key, Field::Type::kUint).num = value;
      return *this;
    }
    // Flow ids render as fixed-width hex strings ("0x0123456789abcdef")
    // so they match the ids printed by reports and `explain`.
    EventRef& U64Hex(std::string_view key, uint64_t value) {
      journal_->AddField(key, Field::Type::kHex).num = value;
      return *this;
    }
    EventRef& BoolF(std::string_view key, bool value) {
      journal_->AddField(key, Field::Type::kBool).num = value ? 1 : 0;
      return *this;
    }

   private:
    friend class Journal;
    explicit EventRef(Journal* journal) : journal_(journal) {}
    Journal* journal_;
  };

  Journal() = default;
  Journal(Journal&&) = default;
  Journal& operator=(Journal&&) = default;
  // Copying is allowed (plain arena copies) so results holding a
  // journal stay copyable; it is never on a hot path.
  Journal(const Journal&) = default;
  Journal& operator=(const Journal&) = default;

  // Starts an event stamped at `sim_millis`; returns a chaining handle
  // for appending fields. `layer` and `kind` must be static-storage
  // literals (see JournalEvent).
  EventRef Emit(int64_t sim_millis, std::string_view layer,
                std::string_view kind) {
    events_.push_back(JournalEvent{sim_millis, layer, kind,
                                   static_cast<uint32_t>(fields_.size()), 0});
    return EventRef(this);
  }

  // Appends every event of `other`, rebasing arena offsets (used by
  // the executor to merge per-job journals in plan order).
  void Append(const Journal& other);

  const std::vector<JournalEvent>& events() const { return events_; }
  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  void Clear();

  // Invokes `fn(const Field&, std::string_view value)` for each field
  // of `event` in emission order (`value` is only meaningful for kStr).
  template <typename Fn>
  void ForEachField(const JournalEvent& event, Fn&& fn) const {
    for (uint32_t i = 0; i < event.field_count; ++i) {
      const Field& field = fields_[event.field_begin + i];
      fn(field, std::string_view(chars_).substr(field.str_begin,
                                                field.str_len));
    }
  }

  // One event rendered as a JSONL line, keys in fixed order: t, layer,
  // kind, then fields in emission order. No trailing newline.
  std::string EventJson(const JournalEvent& event) const;

  // The full journal as JSONL: a header line carrying the schema
  // version and event count, then one line per event with a dense
  // 0-based "seq" field. Byte-deterministic for a given event list.
  std::string Jsonl() const;

 private:
  // Renders `event` (everything after the opening '{') into `out`.
  void AppendEvent(std::string& out, const JournalEvent& event) const;

  Field& AddField(std::string_view key, Field::Type type) {
    fields_.push_back(Field{key, type, 0, 0, 0});
    ++events_.back().field_count;
    return fields_.back();
  }

  std::vector<JournalEvent> events_;
  std::vector<Field> fields_;  // all events' fields, contiguous per event
  std::string chars_;          // kStr field values, back to back
};

// Structural validation of a serialized journal (Jsonl() output).
// Fail-soft: a journal cut off mid-write — a partial final line, or a
// clean cut at a line boundary before the declared event count — is
// reported as `truncated` with the length of the valid prefix, so a
// crashed run's journal still yields its recorded events instead of a
// blanket "corrupt". Anything wrong *before* the cut (bad header, a
// malformed or out-of-order event with more events after it) is hard
// corruption: `ok` and `truncated` both false.
struct JournalValidation {
  bool ok = false;         // fully valid: header + declared events, in order
  bool header_ok = false;
  bool truncated = false;  // valid prefix, then the file just stops
  size_t valid_events = 0;    // events validated before the first problem
  size_t declared_events = 0; // from the header line
  std::string error;          // first structural problem; empty when ok
};

JournalValidation ValidateJournalJsonl(std::string_view jsonl);

}  // namespace panoptes::obs
