// String helpers shared across the Panoptes codebase.
//
// All functions are pure and allocate only when the signature returns an
// owning string. Inputs are taken as std::string_view.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace panoptes::util {

// Transparent hash for unordered containers keyed by std::string but
// probed with a string_view (C++20 heterogeneous lookup) — pair it with
// std::equal_to<>.
struct StringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

// Returns `s` with ASCII uppercase letters folded to lowercase.
std::string ToLower(std::string_view s);

// Returns `s` with ASCII lowercase letters folded to uppercase.
std::string ToUpper(std::string_view s);

// Returns `s` itself when it holds no ASCII uppercase letter, else its
// lowercase copy, written into `storage`. Lookups keyed by folded names
// call this so already-lowercase input (every parsed URL host) costs no
// allocation.
std::string_view LowerIfNeeded(std::string_view s, std::string& storage);

// Case-insensitive ASCII comparison.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

// Whether `s` begins with `prefix`, compared case-insensitively (ASCII).
bool StartsWithIgnoreCase(std::string_view s, std::string_view prefix);

// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

// Splits `s` on every occurrence of `sep`. An empty input yields a single
// empty element, matching the usual "join . split == id" convention.
std::vector<std::string> Split(std::string_view s, char sep);

// Splits on `sep`, dropping empty pieces.
std::vector<std::string> SplitNonEmpty(std::string_view s, char sep);

// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);
bool Contains(std::string_view haystack, std::string_view needle);
bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle);

// Replaces every non-overlapping occurrence of `from` with `to`.
// `from` must be non-empty.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

// Parses a non-negative decimal integer. Rejects empty input, sign
// characters, trailing garbage and overflow.
std::optional<uint64_t> ParseUint(std::string_view s);

// Formats `value` with `decimals` digits after the point (no locale).
std::string FormatDouble(double value, int decimals);

// Truncates `s` to at most `max_bytes` without splitting a UTF-8
// sequence: if the cut would land inside a multi-byte character, the
// whole character is dropped. Invalid UTF-8 is cut at the byte limit.
std::string_view TruncateUtf8(std::string_view s, size_t max_bytes);

// Percent-encodes bytes outside the RFC 3986 "unreserved" set.
std::string PercentEncode(std::string_view s);

// Decodes %XX escapes; malformed escapes are passed through verbatim.
std::string PercentDecode(std::string_view s);

}  // namespace panoptes::util
