#include "telemetry/jsonl.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <fstream>

namespace hwgc {

/// Minimal scanner for the flat one-level JSON objects the registry emits:
/// {"key":value,...} with string or number values, no nesting. Returns
/// false with a diagnostic on malformed input.
bool parse_flat_json_object(
    const std::string& line,
    std::vector<std::pair<std::string, std::string>>& kv, std::string* error) {
  std::size_t i = 0;
  const auto fail = [&](const std::string& msg) {
    if (error != nullptr) {
      *error = msg + " at offset " + std::to_string(i);
    }
    return false;
  };
  const auto skip_ws = [&] {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
  };
  const auto parse_string = [&](std::string& out) {
    if (line[i] != '"') return false;
    ++i;
    out.clear();
    while (i < line.size() && line[i] != '"') {
      if (line[i] == '\\') {
        if (i + 1 >= line.size()) return false;
        out += line[i + 1];
        i += 2;
      } else {
        out += line[i++];
      }
    }
    if (i >= line.size()) return false;
    ++i;  // closing quote
    return true;
  };

  skip_ws();
  if (i >= line.size() || line[i] != '{') return fail("expected '{'");
  ++i;
  skip_ws();
  if (i < line.size() && line[i] == '}') return true;  // empty object
  while (true) {
    skip_ws();
    std::string key;
    if (i >= line.size() || !parse_string(key)) return fail("expected key string");
    skip_ws();
    if (i >= line.size() || line[i] != ':') return fail("expected ':'");
    ++i;
    skip_ws();
    std::string value;
    if (i < line.size() && line[i] == '"') {
      if (!parse_string(value)) return fail("unterminated string value");
      value = "\"" + value + "\"";  // marker: string-typed
    } else {
      const std::size_t start = i;
      while (i < line.size() && (std::isdigit(static_cast<unsigned char>(line[i])) ||
                                 line[i] == '-' || line[i] == '+' ||
                                 line[i] == '.' || line[i] == 'e' ||
                                 line[i] == 'E')) {
        ++i;
      }
      if (i == start) return fail("expected number");
      value = line.substr(start, i - start);
    }
    kv.emplace_back(key, value);
    skip_ws();
    if (i >= line.size()) return fail("unterminated object");
    if (line[i] == ',') {
      ++i;
      continue;
    }
    if (line[i] == '}') break;
    return fail("expected ',' or '}'");
  }
  return true;
}

namespace {

/// The raw text of field `key`: null, with the presence/type message in
/// *error, when it is missing or when its quoting disagrees with `quoted`.
const std::string* typed_field(const JsonKv& kv, std::string_view key,
                               bool quoted, std::string* error) {
  const auto it = std::find_if(kv.begin(), kv.end(),
                               [&](const auto& p) { return p.first == key; });
  if (it == kv.end()) {
    set_error(error, "missing field \"" + std::string(key) + "\"");
    return nullptr;
  }
  const std::string& v = it->second;
  if ((v.size() >= 2 && v.front() == '"') != quoted) {
    set_error(error, "field \"" + std::string(key) + "\" has the wrong type");
    return nullptr;
  }
  return &v;
}

/// Parses a whole bare number of type T, or nullopt with the wrong-type
/// message.
template <class T>
std::optional<T> req_number(const JsonKv& kv, std::string_view key,
                            std::string* error) {
  const std::string* v = typed_field(kv, key, false, error);
  if (v == nullptr) return std::nullopt;
  T out{};
  const char* end = v->data() + v->size();
  const auto [ptr, ec] = std::from_chars(v->data(), end, out);
  if (ec != std::errc() || ptr != end) {
    set_error(error, "field \"" + std::string(key) + "\" has the wrong type");
    return std::nullopt;
  }
  return out;
}

}  // namespace

bool set_error(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

std::optional<std::string> req_str(const JsonKv& kv, std::string_view key,
                                   std::string* error) {
  const std::string* v = typed_field(kv, key, true, error);
  if (v == nullptr) return std::nullopt;
  return v->substr(1, v->size() - 2);
}

std::optional<std::uint64_t> req_u64(const JsonKv& kv, std::string_view key,
                                     std::string* error) {
  return req_number<std::uint64_t>(kv, key, error);
}

std::optional<std::int64_t> req_i64(const JsonKv& kv, std::string_view key,
                                    std::string* error) {
  return req_number<std::int64_t>(kv, key, error);
}

std::optional<double> req_num(const JsonKv& kv, std::string_view key,
                              std::string* error) {
  return req_number<double>(kv, key, error);
}

bool sums_to(const std::uint64_t* terms, std::size_t n, std::uint64_t total) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (__builtin_add_overflow(sum, terms[i], &sum)) return false;
  }
  return sum == total;
}

bool sums_to(std::initializer_list<std::uint64_t> terms, std::uint64_t total) {
  return sums_to(terms.begin(), terms.size(), total);
}

std::string fmt_fixed6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

bool write_jsonl_file(const std::string& path, const std::string& jsonl) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  f.write(jsonl.data(), static_cast<std::streamsize>(jsonl.size()));
  f.flush();
  return f.good();
}

bool check_field(const JsonKv& kv, const JsonField& f, std::string* error) {
  if (f.type == JsonType::kString) {
    const auto s = req_str(kv, f.name, error);
    if (!s) return false;
    if (!f.constant.empty() && *s != f.constant) {
      return set_error(error, f.name + " is not " + f.constant);
    }
    return true;
  }
  return f.type == JsonType::kU64   ? req_u64(kv, f.name, error).has_value()
         : f.type == JsonType::kI64 ? req_i64(kv, f.name, error).has_value()
                                    : req_num(kv, f.name, error).has_value();
}

bool check_fields(const JsonKv& kv, const std::vector<JsonField>& fields,
                  std::string* error) {
  for (const JsonField& f : fields) {
    if (!check_field(kv, f, error)) return false;
  }
  return true;
}

bool ProfileSpanChecker::check(const std::string& line, std::string* error) {
  if (line.find("\"schema\":\"hwgc-profile-v1\"") == std::string::npos ||
      line.find("\"kind\":\"span\"") == std::string::npos) {
    return true;
  }
  JsonKv kv;
  if (!parse_flat_json_object(line, kv, nullptr)) return true;  // line check
  const auto trace = req_u64(kv, "trace");
  const auto span = req_u64(kv, "span");
  if (!trace || !span) return true;  // the line check reports these
  const std::string key = std::to_string(*trace) + "/" + std::to_string(*span);
  if (!seen_.insert(key).second) {
    return set_error(error, "duplicate span id " + std::to_string(*span) +
                                " in trace " + std::to_string(*trace));
  }
  return true;
}

bool validate_jsonl_file(const std::string& path,
                         const std::vector<JsonlSchema>& schemas,
                         std::string_view only,
                         std::vector<std::string>* errors) {
  const auto pick = [&](const std::string& line) -> const JsonlSchema* {
    for (const JsonlSchema& s : schemas) {
      const bool match =
          only.empty()
              ? line.find("\"schema\":\"" + std::string(s.name) + "\"") !=
                    std::string::npos
              : s.name == only;
      if (match) return &s;
    }
    return nullptr;
  };
  const auto report = [&](const std::string& msg) {
    if (errors != nullptr) errors->push_back(msg);
  };
  std::ifstream f(path);
  if (!f) {
    report("cannot open " + path);
    return false;
  }
  std::string line;
  std::size_t lineno = 0, records = 0;
  bool ok = true;
  ProfileSpanChecker spans;
  while (std::getline(f, line)) {
    ++lineno;
    if (line.empty()) continue;
    ++records;
    const std::string where = path + ":" + std::to_string(lineno) + ": ";
    const JsonlSchema* schema = pick(line);
    std::string err;
    if (schema == nullptr) {
      ok = false;
      report(where + "unknown or missing schema field");
    } else if (!schema->validate_line(line, &err) || !spans.check(line, &err)) {
      ok = false;
      report(where + err);
    }
  }
  if (records == 0) {
    ok = false;
    report(path + ": no records");
  }
  return ok;
}

}  // namespace hwgc
