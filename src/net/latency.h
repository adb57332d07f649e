// Round-trip latency models. The crawl runs from an EU vantage point
// (Greece); a request to a Greek origin and one to a Chinese vendor
// backend should not cost the same simulated time. Latency does not
// change any count or byte in the figures — it only makes the timing
// side (DOMContentLoaded, Fig 5 timelines) behave like a real vantage
// point.
#pragma once

#include <map>
#include <string>
#include <vector>

#include <memory>

#include "net/geo.h"
#include "net/ip.h"
#include "util/clock.h"

namespace panoptes::chaos {
class Injector;
}  // namespace panoptes::chaos

namespace panoptes::net {

class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  // Full request/response round trip to `server`.
  virtual util::Duration RttTo(IpAddress server) const = 0;
};

class FixedLatency : public LatencyModel {
 public:
  explicit FixedLatency(util::Duration rtt) : rtt_(rtt) {}
  util::Duration RttTo(IpAddress) const override { return rtt_; }

 private:
  util::Duration rtt_;
};

// Country-keyed RTTs resolved through the address plan's geo ranges.
class GeoLatencyModel : public LatencyModel {
 public:
  // Builds the default table for a Greek (EU) vantage point.
  static GeoLatencyModel FromVantageGreece(std::vector<GeoRange> ranges);

  GeoLatencyModel(std::vector<GeoRange> ranges,
                  std::map<std::string, util::Duration> rtt_by_country,
                  util::Duration fallback);

  util::Duration RttTo(IpAddress server) const override;

 private:
  std::vector<GeoRange> ranges_;
  std::map<std::string, util::Duration> rtt_by_country_;
  util::Duration fallback_;
};

// Decorates another latency model with deterministic chaos spikes: the
// injector decides per exchange whether this round trip hits a spike,
// and the spike duration is added on top of the base model's RTT.
// Latency (spiked or not) only moves the simulated clock — counts and
// bytes in the figures are unaffected, exactly like the base models.
class ChaosLatencyModel : public LatencyModel {
 public:
  ChaosLatencyModel(std::shared_ptr<const LatencyModel> base,
                    chaos::Injector* injector)
      : base_(std::move(base)), injector_(injector) {}

  util::Duration RttTo(IpAddress server) const override;

 private:
  std::shared_ptr<const LatencyModel> base_;
  chaos::Injector* injector_;
};

}  // namespace panoptes::net
