#include "obs/journal.h"

#include "util/hex.h"
#include "util/json.h"

namespace panoptes::obs {

namespace {

// Appends `value` quoted and escaped without building temporaries.
void AppendQuoted(std::string& out, std::string_view value) {
  out.push_back('"');
  // Fast path: most values (hosts, methods, browser names) need no
  // escaping at all.
  bool clean = true;
  for (char c : value) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
      clean = false;
      break;
    }
  }
  if (clean) {
    out.append(value);
  } else {
    out.append(util::JsonEscape(value));
  }
  out.push_back('"');
}

}  // namespace

void Journal::Append(const Journal& other) {
  const uint32_t field_base = static_cast<uint32_t>(fields_.size());
  const uint32_t char_base = static_cast<uint32_t>(chars_.size());
  events_.reserve(events_.size() + other.events_.size());
  for (JournalEvent event : other.events_) {
    event.field_begin += field_base;
    events_.push_back(event);
  }
  fields_.reserve(fields_.size() + other.fields_.size());
  for (Field field : other.fields_) {
    if (field.type == Field::Type::kStr) field.str_begin += char_base;
    fields_.push_back(field);
  }
  chars_.append(other.chars_);
}

void Journal::Clear() {
  events_.clear();
  fields_.clear();
  chars_.clear();
}

std::string Journal::EventJson(const JournalEvent& event) const {
  std::string out = "{";
  AppendEvent(out, event);
  return out;
}

std::string Journal::Jsonl() const {
  std::string out = "{\"journal_schema\":" +
                    std::to_string(kJournalSchemaVersion) +
                    ",\"events\":" + std::to_string(events_.size()) + "}\n";
  // ~96 bytes per line in practice; one up-front reservation keeps the
  // serialization loop nearly allocation-free.
  out.reserve(out.size() + events_.size() * 128);
  for (size_t seq = 0; seq < events_.size(); ++seq) {
    out.append("{\"seq\":");
    out.append(std::to_string(seq));
    out.push_back(',');
    AppendEvent(out, events_[seq]);
    out.push_back('\n');
  }
  return out;
}

void Journal::AppendEvent(std::string& out, const JournalEvent& event) const {
  out.append("\"t\":");
  out.append(std::to_string(event.sim_millis));
  out.append(",\"layer\":");
  AppendQuoted(out, event.layer);
  out.append(",\"kind\":");
  AppendQuoted(out, event.kind);
  ForEachField(event, [&out](const Field& field, std::string_view value) {
    out.push_back(',');
    AppendQuoted(out, field.key);
    out.push_back(':');
    switch (field.type) {
      case Field::Type::kStr:
        AppendQuoted(out, value);
        break;
      case Field::Type::kInt:
        out.append(std::to_string(static_cast<int64_t>(field.num)));
        break;
      case Field::Type::kUint:
        out.append(std::to_string(field.num));
        break;
      case Field::Type::kHex:
        out.push_back('"');
        out.append(util::Hex64(field.num));
        out.push_back('"');
        break;
      case Field::Type::kBool:
        out.append(field.num != 0 ? "true" : "false");
        break;
    }
  });
  out.push_back('}');
}

JournalValidation ValidateJournalJsonl(std::string_view jsonl) {
  JournalValidation out;
  size_t pos = jsonl.find('\n');
  if (pos == std::string_view::npos) {
    // No complete header line. An unterminated-but-parseable header is
    // still unusable: the event count cannot be trusted.
    out.error = "missing or unterminated header line";
    return out;
  }
  auto header = util::Json::Parse(jsonl.substr(0, pos));
  if (!header || !header->is_object() ||
      header->Find("journal_schema") == nullptr ||
      header->Find("events") == nullptr) {
    out.error = "malformed header line";
    return out;
  }
  if (header->Find("journal_schema")->Integer<int>() !=
      kJournalSchemaVersion) {
    out.error = "unsupported journal_schema";
    return out;
  }
  auto declared = header->Find("events")->Integer<size_t>();
  if (!declared) {
    out.error = "header events is not an event count";
    return out;
  }
  out.header_ok = true;
  out.declared_events = *declared;

  std::string_view rest = jsonl.substr(pos + 1);
  while (!rest.empty()) {
    size_t eol = rest.find('\n');
    const bool terminated = eol != std::string_view::npos;
    std::string_view line =
        terminated ? rest.substr(0, eol) : rest;
    rest = terminated ? rest.substr(eol + 1) : std::string_view();
    if (line.empty()) continue;

    std::string problem;
    auto event = util::Json::Parse(line);
    if (!event || !event->is_object()) {
      problem = "not a JSON object";
    } else {
      for (const char* key : {"seq", "t", "layer", "kind"}) {
        if (event->Find(key) == nullptr) {
          problem = std::string("missing \"") + key + "\"";
          break;
        }
      }
      // seq must be dense and 0-based — the merge-order fingerprint.
      if (problem.empty() &&
          event->Find("seq")->Integer<size_t>() != out.valid_events) {
        problem = "seq is not the integer " + std::to_string(out.valid_events);
      }
    }
    if (!problem.empty()) {
      out.error = "event " + std::to_string(out.valid_events) + ": " + problem;
      // A bad *final* line is the signature of a mid-write cut: the
      // prefix stands. A bad line with more events after it is not a
      // cut — it is corruption.
      out.truncated = !terminated && rest.empty() &&
                      out.valid_events < out.declared_events;
      return out;
    }
    ++out.valid_events;
  }

  if (out.valid_events == out.declared_events) {
    out.ok = true;
  } else if (out.valid_events < out.declared_events) {
    // Cut exactly at a line boundary: every present line is valid but
    // the tail the header promised never made it to disk.
    out.truncated = true;
    out.error = "header declares " + std::to_string(out.declared_events) +
                " events, found " + std::to_string(out.valid_events);
  } else {
    out.error = "header declares " + std::to_string(out.declared_events) +
                " events, found " + std::to_string(out.valid_events);
  }
  return out;
}

}  // namespace panoptes::obs
