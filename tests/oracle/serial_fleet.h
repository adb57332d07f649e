// One-job-at-a-time fleet reference: the plan executed in order, each
// job through its own one-job FleetExecutor::Run. Production code never
// calls this — the fleet's differential tests check a pooled Run
// against it, so a result that depends on worker scheduling shows up
// as a byte difference.
#pragma once

#include <vector>

#include "core/fleet.h"

namespace panoptes::oracle {

// Results indexed exactly like `jobs`, the same derived seeds and cache
// path as `executor.Run(jobs)`, but never two jobs in flight.
std::vector<core::FleetJobResult> RunSerial(
    const core::FleetExecutor& executor,
    const std::vector<core::FleetJob>& jobs);

}  // namespace panoptes::oracle
