#include "oracle/serial_fleet.h"

#include <utility>

namespace panoptes::oracle {

std::vector<core::FleetJobResult> RunSerial(
    const core::FleetExecutor& executor,
    const std::vector<core::FleetJob>& jobs) {
  std::vector<core::FleetJobResult> results;
  results.reserve(jobs.size());
  for (const core::FleetJob& job : jobs) {
    results.push_back(std::move(executor.Run({job}).front()));
  }
  return results;
}

}  // namespace panoptes::oracle
