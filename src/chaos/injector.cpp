#include "chaos/injector.h"

#include "obs/journal.h"
#include "util/rng.h"
#include "util/strings.h"

namespace panoptes::chaos {

Injector::Injector(uint64_t seed, FaultProfile profile,
                   const util::SimClock* clock)
    : seed_(seed ^ profile.Fingerprint()),
      profile_(std::move(profile)),
      clock_(clock) {}

uint64_t Injector::CountFor(FaultKind kind) const {
  return counts_[static_cast<size_t>(kind)];
}

void Injector::Record(FaultKind kind, std::string_view host) {
  FaultEvent event;
  event.kind = kind;
  event.host = std::string(host);
  event.sim_millis = clock_ != nullptr ? clock_->Now().millis : 0;
  if (journal_ != nullptr) {
    journal_->Emit(event.sim_millis, "chaos", "fault")
        .Str("fault_kind", FaultKindName(kind))
        .Str("host", host);
  }
  events_.push_back(std::move(event));
  ++counts_[static_cast<size_t>(kind)];
}

bool Injector::Draw(FaultKind kind, std::string_view host, double p,
                    int episode_length) {
  if (p <= 0) return false;
  // Per-(kind, host) state keeps decision streams independent across
  // hosts and fault points: the n-th DNS lookup of a given host gets
  // the same verdict no matter what happened to other hosts first.
  std::string key = std::string(FaultKindName(kind)) + "|";
  key += util::ToLower(host);
  Slot& slot = slots_[key];
  if (slot.episode_left > 0) {
    --slot.episode_left;
    Record(kind, host);
    return true;
  }
  ++slot.draws;
  uint64_t state = seed_;
  state ^= util::HashString(key);
  util::SplitMix64(state);
  state ^= slot.draws * 0x9E3779B97F4A7C15ull;
  uint64_t bits = util::SplitMix64(state);
  double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
  if (u >= p) return false;
  if (episode_length > 1) slot.episode_left = episode_length - 1;
  Record(kind, host);
  return true;
}

bool Injector::DnsFault(std::string_view host) {
  if (HostMatchesAny(util::ToLower(host), profile_.dead_hosts)) {
    Record(FaultKind::kDnsDeadHost, host);
    return true;
  }
  return Draw(FaultKind::kDnsFailure, host, profile_.dns_failure_p);
}

bool Injector::TlsDrop(std::string_view host) {
  return Draw(FaultKind::kTlsDrop, host, profile_.tls_drop_p);
}

bool Injector::ServerError(std::string_view host) {
  return Draw(FaultKind::kServerError, host, profile_.server_error_p,
              profile_.server_error_episode);
}

bool Injector::ServerTimeout(std::string_view host) {
  return Draw(FaultKind::kServerTimeout, host, profile_.server_timeout_p);
}

bool Injector::UpstreamReset(std::string_view host) {
  return Draw(FaultKind::kUpstreamReset, host, profile_.upstream_reset_p);
}

bool Injector::FlowWriteDrop(std::string_view host) {
  return Draw(FaultKind::kFlowWriteDrop, host, profile_.flow_write_drop_p);
}

bool Injector::SpillIoFault(std::string_view label) {
  return Draw(FaultKind::kSpillIo, label, profile_.spill_io_p);
}

util::Duration Injector::LatencySpike(std::string_view host) {
  if (Draw(FaultKind::kLatencySpike, host, profile_.latency_spike_p)) {
    return profile_.latency_spike;
  }
  return util::Duration{0};
}

}  // namespace panoptes::chaos
