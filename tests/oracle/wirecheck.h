// Paranoid self-check addon: round-trips every request through the
// HTTP/1.1 wire codec and verifies the re-parsed message is identical.
// Catches any drift between the in-memory message model and what the
// bytes on a real socket would say (framing bugs, header corruption,
// body/Content-Length mismatches introduced by other addons). Only the
// tests install it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "proxy/addon.h"

namespace panoptes::proxy {

class WireCheckAddon : public Addon {
 public:
  void OnRequest(Flow& flow, net::HttpRequest& request) override;

  uint64_t checked() const { return checked_; }
  uint64_t mismatches() const { return mismatches_; }
  const std::vector<std::string>& mismatch_log() const {
    return mismatch_log_;
  }

 private:
  uint64_t checked_ = 0;
  uint64_t mismatches_ = 0;
  std::vector<std::string> mismatch_log_;
};

}  // namespace panoptes::proxy
