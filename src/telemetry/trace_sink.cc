// Chrome trace-event serialization and parsing for the fcp::trace flight
// recorder (see trace.h).

#include "telemetry/trace.h"

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "telemetry/registry.h"

namespace fcp::trace {
namespace {

// --- JSON building helpers. ------------------------------------------------

using telemetry::AppendJsonString;

/// Microsecond timestamp with nanosecond resolution kept as decimals.
void AppendTsUs(std::string* out, int64_t ts_ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ts_ns / 1000),
                static_cast<long long>(ts_ns % 1000));
  *out += buf;
}

void AppendEvent(std::string* out, const TraceEvent& event, uint64_t tid,
                 bool* first) {
  if (!*first) *out += ",\n";
  *first = false;
  const char ph = static_cast<char>(event.phase);
  *out += "  {\"name\": ";
  AppendJsonString(out, event.name != nullptr ? event.name : "?");
  *out += ", \"ph\": \"";
  out->push_back(ph);
  *out += "\", \"ts\": ";
  AppendTsUs(out, event.ts_ns);
  *out += ", \"pid\": 1, \"tid\": " + std::to_string(tid);
  if (ph == 's' || ph == 't' || ph == 'f') {
    // Flow events: Chrome groups them by (cat, id) and binds each to the
    // enclosing slice of its thread at its timestamp.
    char idbuf[32];
    std::snprintf(idbuf, sizeof(idbuf), "0x%llx",
                  static_cast<unsigned long long>(event.flow));
    *out += ", \"cat\": \"flow\", \"id\": \"";
    *out += idbuf;
    *out += "\"";
    if (ph == 'f') *out += ", \"bp\": \"e\"";
  } else if (ph == 'i') {
    *out += ", \"s\": \"t\"";  // thread-scoped instant
  }
  if (event.arg != 0 || (event.flow != 0 && ph != 's' && ph != 't' &&
                         ph != 'f')) {
    *out += ", \"args\": {\"arg\": " + std::to_string(event.arg);
    if (event.flow != 0 && ph != 's' && ph != 't' && ph != 'f') {
      *out += ", \"flow\": " + std::to_string(event.flow);
    }
    *out += "}";
  }
  *out += "}";
}

// --- Minimal strict JSON parser (for our own output + fcptrace input). -----

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  JsonParser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing characters");
    return true;
  }

 private:
  bool Fail(const char* what) {
    if (error_ != nullptr) {
      *error_ = std::string(what) + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) return Fail("unexpected end");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->str);
    }
    if (c == 't' || c == 'f') {
      const std::string_view word = c == 't' ? "true" : "false";
      if (text_.compare(pos_, word.size(), word) != 0) {
        return Fail("bad literal");
      }
      pos_ += word.size();
      out->kind = JsonValue::Kind::kBool;
      out->boolean = c == 't';
      return true;
    }
    if (c == 'n') {
      if (text_.compare(pos_, 4, "null") != 0) return Fail("bad literal");
      pos_ += 4;
      out->kind = JsonValue::Kind::kNull;
      return true;
    }
    return ParseNumber(out);
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return Fail("bad escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return Fail("bad \\u escape");
            }
            // ASCII only (our own output never emits more); others pass
            // through as '?' rather than failing the parse.
            c = code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default: return Fail("bad escape");
        }
      }
      out->push_back(c);
    }
    if (pos_ >= text_.size()) return Fail("unterminated string");
    ++pos_;  // closing quote
    return true;
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected value");
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::strtod(text_.c_str() + start, nullptr);
    return true;
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue element;
      SkipWs();
      if (!ParseValue(&element)) return false;
      out->array.push_back(std::move(element));
      SkipWs();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') return Fail("expected ':'");
      ++pos_;
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
};

}  // namespace

std::string SerializeChromeTrace(const std::vector<ThreadTrace>& threads) {
  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  // Metadata first: process name and one thread_name entry per track.
  out +=
      "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"name\": \"fcp\"}}";
  first = false;
  for (const ThreadTrace& thread : threads) {
    out += ",\n  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": " +
           std::to_string(thread.tid) + ", \"args\": {\"name\": ";
    AppendJsonString(&out, thread.name.empty()
                               ? "thread-" + std::to_string(thread.tid)
                               : thread.name);
    out += "}}";
  }
  for (const ThreadTrace& thread : threads) {
    for (const TraceEvent& event : thread.events) {
      AppendEvent(&out, event, thread.tid, &first);
    }
    // Close any span left open at snapshot time (e.g. recording stopped
    // mid-span) so strict viewers still pair every B with an E.
    int64_t open = 0;
    int64_t last_ts = 0;
    for (const TraceEvent& event : thread.events) {
      if (event.phase == Phase::kBegin) ++open;
      if (event.phase == Phase::kEnd && open > 0) --open;
      last_ts = event.ts_ns > last_ts ? event.ts_ns : last_ts;
    }
    for (int64_t i = 0; i < open; ++i) {
      TraceEvent closer;
      closer.ts_ns = last_ts;
      closer.name = "unclosed";
      closer.phase = Phase::kEnd;
      AppendEvent(&out, closer, thread.tid, &first);
    }
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

bool WriteChromeTrace(const std::string& path) {
  const std::string json = SerializeChromeTrace(Snapshot());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return written == json.size();
}

std::optional<std::vector<ParsedTraceEvent>> ParseChromeTraceJson(
    const std::string& json, std::string* error) {
  std::string local_error;
  std::string* err = error != nullptr ? error : &local_error;
  JsonValue root;
  if (!JsonParser(json, err).Parse(&root)) return std::nullopt;
  if (root.kind != JsonValue::Kind::kObject) {
    *err = "top level is not an object";
    return std::nullopt;
  }
  const JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    *err = "missing traceEvents array";
    return std::nullopt;
  }
  std::vector<ParsedTraceEvent> out;
  out.reserve(events->array.size());
  for (size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& e = events->array[i];
    if (e.kind != JsonValue::Kind::kObject) {
      *err = "traceEvents[" + std::to_string(i) + "] is not an object";
      return std::nullopt;
    }
    ParsedTraceEvent parsed;
    const JsonValue* ph = e.Find("ph");
    const JsonValue* ts = e.Find("ts");
    const JsonValue* pid = e.Find("pid");
    const JsonValue* tid = e.Find("tid");
    if (ph == nullptr || ph->kind != JsonValue::Kind::kString ||
        ph->str.size() != 1) {
      *err = "traceEvents[" + std::to_string(i) + "] missing ph";
      return std::nullopt;
    }
    parsed.ph = ph->str[0];
    if (pid == nullptr || pid->kind != JsonValue::Kind::kNumber ||
        tid == nullptr || tid->kind != JsonValue::Kind::kNumber) {
      *err = "traceEvents[" + std::to_string(i) + "] missing pid/tid";
      return std::nullopt;
    }
    parsed.pid = static_cast<uint64_t>(pid->number);
    parsed.tid = static_cast<uint64_t>(tid->number);
    if (parsed.ph != 'M') {
      if (ts == nullptr || ts->kind != JsonValue::Kind::kNumber) {
        *err = "traceEvents[" + std::to_string(i) + "] missing ts";
        return std::nullopt;
      }
      parsed.ts_us = ts->number;
    }
    const JsonValue* name = e.Find("name");
    if (name != nullptr && name->kind == JsonValue::Kind::kString) {
      parsed.name = name->str;
    }
    if (parsed.name.empty() && parsed.ph != 'E') {
      *err = "traceEvents[" + std::to_string(i) + "] missing name";
      return std::nullopt;
    }
    const JsonValue* cat = e.Find("cat");
    if (cat != nullptr && cat->kind == JsonValue::Kind::kString) {
      parsed.cat = cat->str;
    }
    const JsonValue* id = e.Find("id");
    if (id != nullptr && id->kind == JsonValue::Kind::kString) {
      parsed.id = id->str;
    }
    if (parsed.ph == 's' || parsed.ph == 't' || parsed.ph == 'f') {
      if (parsed.id.empty()) {
        *err = "flow event traceEvents[" + std::to_string(i) + "] missing id";
        return std::nullopt;
      }
    }
    const JsonValue* dur = e.Find("dur");
    if (dur != nullptr && dur->kind == JsonValue::Kind::kNumber) {
      parsed.dur_us = dur->number;
    }
    const JsonValue* args = e.Find("args");
    if (args != nullptr && args->kind == JsonValue::Kind::kObject) {
      const JsonValue* arg_name = args->Find("name");
      if (arg_name != nullptr &&
          arg_name->kind == JsonValue::Kind::kString) {
        parsed.arg_name = arg_name->str;
      }
      const JsonValue* arg = args->Find("arg");
      if (arg != nullptr && arg->kind == JsonValue::Kind::kNumber) {
        parsed.arg = static_cast<uint64_t>(arg->number);
      }
      const JsonValue* flow = args->Find("flow");
      if (flow != nullptr && flow->kind == JsonValue::Kind::kNumber) {
        parsed.flow = static_cast<uint64_t>(flow->number);
      }
    }
    out.push_back(std::move(parsed));
  }
  return out;
}

bool ValidateChromeTraceJson(const std::string& json, std::string* error) {
  return ParseChromeTraceJson(json, error).has_value();
}

}  // namespace fcp::trace
