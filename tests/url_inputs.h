// URL text generators shared by the URL property tests (UrlFuzz,
// UrlRoundTrip) and the differential UrlOracle test, so the oracle
// check sees exactly the inputs the property tests draw.
#pragma once

#include <cstdint>
#include <string>

#include "util/rng.h"

namespace panoptes::url_inputs {

inline std::string RandomBytes(util::Rng& rng, size_t length) {
  std::string out;
  for (size_t i = 0; i < length; ++i) {
    out.push_back(static_cast<char>(rng.NextBelow(256)));
  }
  return out;
}

// One fuzz input: byte soup, "https://" + byte soup, or a valid URL
// with one byte replaced.
inline std::string FuzzUrlInput(util::Rng& rng) {
  switch (rng.NextBelow(3)) {
    case 0:
      return RandomBytes(rng, rng.NextBelow(64));
    case 1:
      return "https://" + RandomBytes(rng, rng.NextBelow(40));
    default: {
      std::string input = "https://example.com/path?a=1#f";
      size_t pos = rng.NextBelow(input.size());
      input[pos] = static_cast<char>(rng.NextBelow(256));
      return input;
    }
  }
}

// A well-formed https URL: random host, an explicit port 30% of the
// time (`port`, 0 when absent; it may be the default 443), 0-3 path
// segments, an optional query of one or two pairs and an optional
// fragment.
struct GeneratedUrl {
  std::string text;
  uint64_t port = 0;
};

inline GeneratedUrl GenerateUrl(util::Rng& rng) {
  GeneratedUrl out;
  std::string& text = out.text;
  text = "https://";
  text += rng.NextToken(8) + "." + rng.NextToken(4) + ".com";
  if (rng.NextBool(0.3)) {
    out.port = rng.NextInRange(1, 65535);
    text += ":" + std::to_string(out.port);
  }
  int segments = static_cast<int>(rng.NextBelow(4));
  for (int i = 0; i < segments; ++i) text += "/" + rng.NextToken(6);
  if (segments == 0) text += "/";
  if (rng.NextBool(0.5)) {
    text += "?" + rng.NextToken(3) + "=" + rng.NextHex(8);
    if (rng.NextBool(0.5)) {
      text += "&" + rng.NextToken(2) + "=" + rng.NextToken(5);
    }
  }
  if (rng.NextBool(0.2)) text += "#" + rng.NextToken(4);
  return out;
}

}  // namespace panoptes::url_inputs
