// The JSONL plumbing shared by every hwgc record schema (hwgc-bench-v1,
// hwgc-service-v1, hwgc-profile-v1, hwgc-trace-v1).
//
// Each record kind is declared exactly once, as a JsonRecordTable: an
// ordered list of fields, each with its name, its wire type and the
// function that reads its value out of a row. The writer renders rows from
// the table; the validator's presence-and-type pass (check_fields) walks
// the same table's field list, so a field appended to a table is emitted
// and required in one edit. Semantic identities (percentile ordering,
// accounting sums, ...) stay as code in each schema's validator, after the
// table pass.
//
// Every schema is flat and append-only: tooling may add fields, never
// rename or remove them, so CI gates and committed BENCH_* snapshots stay
// parseable forever.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

namespace hwgc {

/// One parsed flat JSON object, keys in line order. String values keep a
/// leading and trailing '"' as their type marker; numbers are raw text.
using JsonKv = std::vector<std::pair<std::string, std::string>>;

/// Scans one flat one-level JSON object ({"key":value,...}, string or
/// number values, no nesting) into key/value pairs; string values keep a
/// leading '"' marker. Returns false with a diagnostic on malformed input.
bool parse_flat_json_object(const std::string& line, JsonKv& kv,
                            std::string* error);

/// Typed lookups of a required field. Each returns nullopt, with
/// `missing field "K"` or `field "K" has the wrong type` in *error, when
/// the field is absent or its value does not parse as the type (strings
/// are quoted; u64/i64 are whole decimal integers; numbers are decimal).
std::optional<std::string> req_str(const JsonKv& kv, std::string_view key,
                                   std::string* error = nullptr);
std::optional<std::uint64_t> req_u64(const JsonKv& kv, std::string_view key,
                                     std::string* error = nullptr);
std::optional<std::int64_t> req_i64(const JsonKv& kv, std::string_view key,
                                    std::string* error = nullptr);
std::optional<double> req_num(const JsonKv& kv, std::string_view key,
                              std::string* error = nullptr);

/// Stores `msg` in *error (when non-null) and returns false.
bool set_error(std::string* error, const std::string& msg);

/// True when `terms` add up to `total` with no wrap-around, so a crafted
/// line cannot satisfy an accounting identity by overflow.
bool sums_to(const std::uint64_t* terms, std::size_t n, std::uint64_t total);
bool sums_to(std::initializer_list<std::uint64_t> terms, std::uint64_t total);

/// The one fixed-point formatter for number fields ("%.6f").
std::string fmt_fixed6(double v);

/// The one JSON file writer (JSONL and the Chrome-trace documents alike):
/// writes `jsonl` to `path`, replacing any previous contents. Returns
/// false on I/O failure.
bool write_jsonl_file(const std::string& path, const std::string& jsonl);

/// Appends `s` to `out` escaped for the inside of a JSON string: quote,
/// backslash, newline and tab by name, other control bytes as six-character
/// unicode escapes.
void append_escaped(std::string& out, std::string_view s);

/// Wire type of one field: quoted string, unsigned or signed integer, or a
/// number rendered with fmt_fixed6.
enum class JsonType : std::uint8_t { kString, kU64, kI64, kFixed6 };

struct JsonField {
  std::string name;
  JsonType type;
  std::string constant;  ///< non-empty: the only value a string may hold
};

/// The presence-and-type pass for one field: present with its type, and
/// a constant field holds its value ("schema is not X").
bool check_field(const JsonKv& kv, const JsonField& field, std::string* error);

/// check_field over every field of `fields`, in order.
bool check_fields(const JsonKv& kv, const std::vector<JsonField>& fields,
                  std::string* error);

/// One record kind's single declaration: fields in emission order, each
/// with the function that reads its value from a `Row` and, for a record
/// that is also loaded back, the function that stores a parsed value
/// into a `Row`.
template <class Row>
class JsonRecordTable {
 public:
  template <class T>
  using Get = std::function<T(const Row&)>;
  /// Stores a parsed value; throws (any std::exception, whose message
  /// read() reports) when the row cannot hold it.
  template <class T>
  using Set = std::function<void(Row&, T)>;

  JsonRecordTable& constant(std::string name, std::string value) {
    std::string text = "\"" + value + "\"";
    return add({std::move(name), JsonType::kString, std::move(value)},
               [text](const Row&) { return text; });
  }
  JsonRecordTable& str(std::string name, Get<std::string> get,
                       Set<std::string> set = {}) {
    return add({name, JsonType::kString, {}},
               [get](const Row& r) {
                 std::string text(1, '"');
                 return (text += get(r)) += '"';
               },
               set ? [name, set](const JsonKv& kv, Row& r) {
                 set(r, *req_str(kv, name));
               } : Store{});
  }
  JsonRecordTable& u64(std::string name, Get<std::uint64_t> get,
                       Set<std::uint64_t> set = {}) {
    return add({name, JsonType::kU64, {}},
               [get](const Row& r) { return std::to_string(get(r)); },
               set ? [name, set](const JsonKv& kv, Row& r) {
                 set(r, *req_u64(kv, name));
               } : Store{});
  }
  /// A u64 field kept in member `m` of the row, written and read as is.
  template <class Base>
  JsonRecordTable& u64(std::string name, std::uint64_t Base::*m) {
    return u64(std::move(name), [m](const Row& r) { return r.*m; },
               [m](Row& r, std::uint64_t v) { r.*m = v; });
  }
  JsonRecordTable& i64(std::string name, Get<std::int64_t> get) {
    return add({std::move(name), JsonType::kI64, {}},
               [get](const Row& r) { return std::to_string(get(r)); });
  }
  JsonRecordTable& fixed6(std::string name, Get<double> get) {
    return add({std::move(name), JsonType::kFixed6, {}},
               [get](const Row& r) { return fmt_fixed6(get(r)); });
  }

  const std::vector<JsonField>& fields() const noexcept { return fields_; }

  /// Appends `row` as one JSONL line (with trailing newline).
  void render(const Row& row, std::string& out) const {
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out += (i == 0 ? "{\"" : ",\"") + fields_[i].name + "\":";
      out += text_[i](row);
    }
    out += "}\n";
  }

  /// The loader: walks the table in order, checking each field's
  /// presence and type (check_field) and storing it through its setter.
  /// Returns false with the first defect in *error — the same message
  /// the validator reports for the same line.
  bool read(const JsonKv& kv, Row& row, std::string* error) const {
    try {
      for (std::size_t i = 0; i < fields_.size(); ++i) {
        if (!check_field(kv, fields_[i], error)) return false;
        if (set_[i]) set_[i](kv, row);
      }
    } catch (const std::exception& e) {
      return set_error(error, e.what());
    }
    return true;
  }

 private:
  /// Stores field i of a line that passed check_field.
  using Store = std::function<void(const JsonKv&, Row&)>;

  JsonRecordTable& add(JsonField field, Get<std::string> text,
                       Store set = {}) {
    fields_.push_back(std::move(field));
    text_.push_back(std::move(text));
    set_.push_back(std::move(set));
    return *this;
  }

  std::vector<JsonField> fields_;
  std::vector<Get<std::string>> text_;  ///< renders field i's value
  std::vector<Store> set_;              ///< stores field i (empty: check only)
};

/// Cross-line state for file-level hwgc-profile-v1 span checks: duplicate
/// (trace, span) ids. Feed every line of a file in order; non-span lines
/// are ignored.
class ProfileSpanChecker {
 public:
  bool check(const std::string& line, std::string* error);

 private:
  std::unordered_set<std::string> seen_;  ///< "trace/span" keys
};

/// One schema the file validator can dispatch a line to.
struct JsonlSchema {
  std::string_view name;  ///< value of the line's "schema" field
  bool (*validate_line)(const std::string& line, std::string* error);
};

/// The per-file validation loop: validates every non-empty line of `path`
/// with the schema its "schema" field names (lines naming none of
/// `schemas` are violations), or — when `only` is non-empty — with schema
/// `only` alone, so lines of every other schema are violations. Runs the
/// file-level ProfileSpanChecker too. Appends one "path:line: message" per
/// violation; an unreadable or empty file is a violation.
bool validate_jsonl_file(const std::string& path,
                         const std::vector<JsonlSchema>& schemas,
                         std::string_view only,
                         std::vector<std::string>* errors);

}  // namespace hwgc
