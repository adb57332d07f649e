// Hex codec used for opaque identifiers and payload dumps.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace panoptes::util {

// Lowercase hex encoding of raw bytes.
std::string HexEncode(std::string_view data);

// Decodes hex (either case). Requires even length; nullopt otherwise.
std::optional<std::string> HexDecode(std::string_view data);

// "0x" + 16 lowercase hex digits, zero-padded: how seeds, cohort ids,
// flow ids and checksums print in reports, manifests, journals and
// bench pins (64-bit values exceed a JSON number's double precision).
std::string Hex64(uint64_t value);

}  // namespace panoptes::util
