// Push-based flow ingestion interface.
//
// The batch pipeline materialized a full FlowStore per job and indexed
// it post-hoc; a FlowSink inverts that: producers (the MITM taint
// addon, campaigns) push flows one at a time as they complete, and the
// sink decides what storing means — append to an in-memory store,
// update an incremental index, seal a spill segment, or shed under
// memory pressure. FlowStore itself is the trivial sink (Push == Add,
// unbounded); core::StreamBuffer is the budgeted one.
//
// Transactions carry the visit-retry rollback contract through the
// interface: BeginTransaction marks the current length, Rollback
// discards everything pushed since the mark (so a failed visit attempt
// never double-counts traffic), Commit releases the mark and lets a
// budgeted sink spill. Transactions do not nest — campaigns hold at
// most one open visit at a time.
#pragma once

#include <cstdint>

#include "proxy/flow.h"

namespace panoptes::proxy {

class FlowSink {
 public:
  virtual ~FlowSink() = default;

  // Stores one completed flow. The flow stays the producer's (the MITM
  // proxy owns it until Forward returns): a sink copies what it keeps
  // into its own storage. Returns false only when the sink *shed* the
  // flow under memory pressure (budgeted sinks with shedding enabled);
  // a chaos-dropped write still returns true — the producer handed the
  // flow over, the store lost it.
  virtual bool Push(const Flow& flow) = 0;

  // Flows accepted so far (global count: a spilling sink counts sealed
  // segments too). Shed flows are never counted.
  virtual uint64_t FlowCount() const = 0;

  virtual void BeginTransaction() {}
  virtual void CommitTransaction() {}
  virtual void RollbackTransaction() {}
};

}  // namespace panoptes::proxy
