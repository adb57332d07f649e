// Ordered, case-insensitive HTTP header collection.
//
// The Panoptes taint is carried in an "x-" prefixed header that the MITM
// addon must find and strip regardless of case, without disturbing the
// order or content of the remaining headers.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace panoptes::net {

class HttpHeaders {
 public:
  using Entry = std::pair<std::string, std::string>;

  // Appends a header, preserving insertion order. Callers filling a
  // fresh collection with distinct names Add into a Reserve()d one
  // rather than Set, which rescans the collection on every call.
  void Add(std::string_view name, std::string_view value);
  void Reserve(size_t count) { entries_.reserve(count); }

  // Replaces all occurrences of `name` with a single entry (appended at
  // the position of the first occurrence, or at the end when absent).
  void Set(std::string_view name, std::string_view value);

  // First value for `name`, case-insensitively.
  std::optional<std::string> Get(std::string_view name) const;

  bool Has(std::string_view name) const;

  // Removes every occurrence; returns how many were removed.
  size_t Remove(std::string_view name);

  // Get, then Remove, in one pass: removes every occurrence of `name`
  // and returns the first one's value.
  std::optional<std::string> Take(std::string_view name);

  const std::vector<Entry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  // Total bytes these headers occupy on the wire ("name: value\r\n").
  size_t WireSize() const;

 private:
  std::vector<Entry> entries_;
};

}  // namespace panoptes::net
