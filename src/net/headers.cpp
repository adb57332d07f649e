#include "net/headers.h"

#include "util/strings.h"

namespace panoptes::net {

void HttpHeaders::Add(std::string_view name, std::string_view value) {
  entries_.emplace_back(std::string(name), std::string(value));
}

void HttpHeaders::Set(std::string_view name, std::string_view value) {
  bool replaced = false;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (util::EqualsIgnoreCase(it->first, name)) {
      if (!replaced) {
        it->second = std::string(value);
        replaced = true;
        ++it;
      } else {
        it = entries_.erase(it);
      }
    } else {
      ++it;
    }
  }
  if (!replaced) Add(name, value);
}

std::optional<std::string> HttpHeaders::Get(std::string_view name) const {
  for (const auto& [key, value] : entries_) {
    if (util::EqualsIgnoreCase(key, name)) return value;
  }
  return std::nullopt;
}

bool HttpHeaders::Has(std::string_view name) const {
  for (const auto& entry : entries_) {
    if (util::EqualsIgnoreCase(entry.first, name)) return true;
  }
  return false;
}

size_t HttpHeaders::Remove(std::string_view name) {
  size_t removed = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (util::EqualsIgnoreCase(it->first, name)) {
      it = entries_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

std::optional<std::string> HttpHeaders::Take(std::string_view name) {
  std::optional<std::string> taken;
  auto kept = entries_.begin();
  for (auto& entry : entries_) {
    if (util::EqualsIgnoreCase(entry.first, name)) {
      if (!taken) taken = std::move(entry.second);
    } else {
      if (&*kept != &entry) *kept = std::move(entry);
      ++kept;
    }
  }
  entries_.erase(kept, entries_.end());
  return taken;
}

size_t HttpHeaders::WireSize() const {
  size_t total = 0;
  for (const auto& [key, value] : entries_) {
    total += key.size() + 2 + value.size() + 2;  // "name: value\r\n"
  }
  return total;
}

}  // namespace panoptes::net
