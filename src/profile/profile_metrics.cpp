#include "profile/profile_metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

namespace hwgc {

void ProfileAttribution::add(const CycleProfile& p) {
  ++collections;
  if (!p.valid) {
    ++unprofiled;
    return;
  }
  if (p.cores > cores) cores = p.cores;
  total_cycles += p.total_cycles;
  core_cycles += p.core_cycles();
  for (std::size_t i = 0; i < kStallClassCount; ++i) {
    cls[i] += p.cls_total(static_cast<StallClass>(i));
    crit[i] += p.critical[i];
  }
}

StallClass ProfileAttribution::binding() const noexcept {
  std::size_t best = 0;
  for (std::size_t i = 1; i < kStallClassCount; ++i) {
    if (crit[i] > crit[best]) best = i;
  }
  return static_cast<StallClass>(best);
}

double ProfileAttribution::share(StallClass c) const noexcept {
  if (core_cycles == 0) return 0.0;
  return static_cast<double>(cls[static_cast<std::size_t>(c)]) /
         static_cast<double>(core_cycles);
}

namespace {

std::string cls_field(StallClass c) {
  return "cls_" + std::string(field_suffix(c));
}

std::string crit_field(StallClass c) {
  return "crit_" + std::string(field_suffix(c));
}

/// One record plus the suite it is filed under.
template <class T>
struct Suited {
  const T& v;
  const std::string& suite;
};

using AttributionRow = Suited<ProfileAttribution>;
using SpanRow = Suited<SpanRecord>;

// The hwgc-profile-v1 attribution record, in emission order: one cls_ and
// one crit_ field per StallClass, generated from the enum.
const JsonRecordTable<AttributionRow>& attribution_table() {
  using R = AttributionRow;
  static const JsonRecordTable<R> table = [] {
    JsonRecordTable<R> t;
    t.constant("schema", std::string(kProfileSchema))
        .constant("kind", "attribution")
        .str("suite", [](const R& r) { return r.suite; })
        .str("source", [](const R& r) { return r.v.source; })
        .i64("shard", [](const R& r) { return r.v.shard; })
        .u64("cores", [](const R& r) { return r.v.cores; })
        .u64("collections", [](const R& r) { return r.v.collections; })
        .u64("unprofiled", [](const R& r) { return r.v.unprofiled; })
        .u64("total_cycles", [](const R& r) { return r.v.total_cycles; })
        .u64("core_cycles", [](const R& r) { return r.v.core_cycles; });
    for (std::size_t i = 0; i < kStallClassCount; ++i) {
      t.u64(cls_field(static_cast<StallClass>(i)),
            [i](const R& r) { return r.v.cls[i]; });
    }
    for (std::size_t i = 0; i < kStallClassCount; ++i) {
      t.u64(crit_field(static_cast<StallClass>(i)),
            [i](const R& r) { return r.v.crit[i]; });
    }
    t.str("binding",
          [](const R& r) { return std::string(to_string(r.v.binding())); });
    return t;
  }();
  return table;
}

// The hwgc-profile-v1 span record, in emission order.
const JsonRecordTable<SpanRow>& span_table() {
  using R = SpanRow;
  static const JsonRecordTable<R> table = [] {
    JsonRecordTable<R> t;
    t.constant("schema", std::string(kProfileSchema))
        .constant("kind", "span")
        .str("suite", [](const R& r) { return r.suite; })
        .i64("shard", [](const R& r) { return r.v.shard; })
        .u64("trace", [](const R& r) { return r.v.trace; })
        .u64("span", [](const R& r) { return r.v.span; })
        .u64("parent", [](const R& r) { return r.v.parent; })
        .str("name", [](const R& r) { return r.v.name; })
        .u64("begin_cycle", [](const R& r) { return r.v.begin; })
        .u64("end_cycle", [](const R& r) { return r.v.end; })
        .i64("gc_collection", [](const R& r) { return r.v.gc_collection; })
        .u64("gc_cycles", [](const R& r) { return r.v.gc_cycles; });
    return t;
  }();
  return table;
}

bool known_class_name(const std::string& name) {
  for (std::size_t i = 0; i < kStallClassCount; ++i) {
    if (name == to_string(static_cast<StallClass>(i))) return true;
  }
  return false;
}

/// Semantic checks of an attribution record that passed its table.
bool check_attribution(const JsonKv& kv, std::string* error) {
  const auto u64 = [&](const std::string& key) { return *req_u64(kv, key); };
  if (*req_i64(kv, "shard") < -1) {
    return set_error(error, "shard must be >= -1");
  }
  if (u64("unprofiled") > u64("collections")) {
    return set_error(error, "unprofiled exceeds collections");
  }
  std::uint64_t cls[kStallClassCount] = {}, crit[kStallClassCount] = {};
  std::uint64_t crit_max = 0;
  for (std::size_t i = 0; i < kStallClassCount; ++i) {
    cls[i] = u64(cls_field(static_cast<StallClass>(i)));
    crit[i] = u64(crit_field(static_cast<StallClass>(i)));
    crit_max = std::max(crit_max, crit[i]);
  }
  if (!sums_to(cls, kStallClassCount, u64("core_cycles"))) {
    return set_error(error,
                     "attribution shares do not sum to the total: "
                     "sum(cls_*) != core_cycles");
  }
  if (!sums_to(crit, kStallClassCount, u64("total_cycles"))) {
    return set_error(error,
                     "critical-path shares do not sum to the total: "
                     "sum(crit_*) != total_cycles");
  }
  const std::string binding = *req_str(kv, "binding");
  if (!known_class_name(binding)) {
    return set_error(error, "unknown stall class \"" + binding + "\"");
  }
  for (std::size_t i = 0; i < kStallClassCount; ++i) {
    if (binding == to_string(static_cast<StallClass>(i)) &&
        crit[i] != crit_max) {
      return set_error(error,
                       "binding class is not the critical-path maximum");
    }
  }
  return true;
}

/// Semantic checks of a span record that passed its table.
bool check_span(const JsonKv& kv, std::string* error) {
  const auto u64 = [&](const char* key) { return *req_u64(kv, key); };
  const std::uint64_t span = u64("span"), parent = u64("parent");
  const std::int64_t gc_collection = *req_i64(kv, "gc_collection");
  const std::string name = *req_str(kv, "name");
  if (*req_i64(kv, "shard") < 0) {
    return set_error(error, "span shard must be >= 0");
  }
  if (span == 0) return set_error(error, "span ids are 1-based");
  if (parent >= span) {
    return set_error(error, "span parent must precede the span");
  }
  if ((span == 1) != (parent == 0)) {
    return set_error(error, "exactly the root span (1) has parent 0");
  }
  if (!known_span_name(name)) {
    return set_error(error, "unknown span name \"" + name + "\"");
  }
  if (u64("begin_cycle") > u64("end_cycle")) {
    return set_error(error, "span cycle range out of order (begin > end)");
  }
  if (gc_collection < -1) {
    return set_error(error, "gc_collection must be >= -1");
  }
  if ((name == "gc-charge") != (gc_collection >= 0)) {
    return set_error(error,
                     "gc_collection links are for gc-charge spans exactly");
  }
  return true;
}

}  // namespace

std::string profile_attribution_jsonl(const ProfileAttribution& a,
                                      const std::string& suite) {
  std::string out;
  attribution_table().render({a, suite}, out);
  return out;
}

bool known_span_name(const std::string& name) {
  return name == "request" || name == "admission" || name == "hop" ||
         name == "queue" || name == "gc-inherited" || name == "gc-own" ||
         name == "service" || name == "gc-charge" || name == "gc-concurrent";
}

std::string span_record_jsonl(const SpanRecord& s, const std::string& suite) {
  std::string out;
  span_table().render({s, suite}, out);
  return out;
}

const std::vector<JsonField>& attribution_record_fields() {
  return attribution_table().fields();
}

const std::vector<JsonField>& span_record_fields() {
  return span_table().fields();
}

bool validate_profile_jsonl_line(const std::string& line, std::string* error) {
  JsonKv kv;
  if (!parse_flat_json_object(line, kv, error)) return false;
  const auto schema = req_str(kv, "schema", error);
  if (!schema) return false;
  if (*schema != kProfileSchema) {
    return set_error(error, "schema is not hwgc-profile-v1");
  }
  const auto kind = req_str(kv, "kind", error);
  if (!kind) return false;
  if (*kind == "attribution") {
    return check_fields(kv, attribution_record_fields(), error) &&
           check_attribution(kv, error);
  }
  if (*kind == "span") {
    return check_fields(kv, span_record_fields(), error) &&
           check_span(kv, error);
  }
  return set_error(error, "unknown record kind \"" + *kind + "\"");
}

namespace {

struct BaselineRecord {
  double share[kStallClassCount] = {};
  std::string binding;
};

/// Loads every attribution record of `path`, keyed (suite, source, shard).
bool load_attributions(const std::string& path,
                       std::map<std::string, BaselineRecord>& out,
                       std::vector<std::string>* errors) {
  std::ifstream f(path);
  if (!f) {
    if (errors != nullptr) errors->push_back("cannot open " + path);
    return false;
  }
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty()) continue;
    // The record kind is the parsed value the validator dispatches on, so
    // a line is read with exactly the table it was checked against.
    JsonKv kv;
    std::string err;
    if (parse_flat_json_object(line, kv, &err) &&
        (req_str(kv, "schema") != kProfileSchema ||
         req_str(kv, "kind") != "attribution")) {
      continue;
    }
    if (!validate_profile_jsonl_line(line, &err)) {
      if (errors != nullptr) errors->push_back(path + ": " + err);
      return false;
    }
    const std::uint64_t core_cycles = *req_u64(kv, "core_cycles");
    BaselineRecord rec;
    rec.binding = *req_str(kv, "binding");
    for (std::size_t i = 0; i < kStallClassCount; ++i) {
      const std::uint64_t v =
          *req_u64(kv, cls_field(static_cast<StallClass>(i)));
      rec.share[i] = core_cycles == 0
                         ? 0.0
                         : static_cast<double>(v) /
                               static_cast<double>(core_cycles);
    }
    const std::string suite = *req_str(kv, "suite");
    const std::string source = *req_str(kv, "source");
    const std::int64_t shard = *req_i64(kv, "shard");
    out[suite + "/" + source + "/shard" + std::to_string(shard)] = rec;
  }
  return true;
}

}  // namespace

bool compare_profile_baselines(const std::string& base_path,
                               const std::string& cur_path, double tolerance,
                               std::vector<std::string>* errors) {
  std::map<std::string, BaselineRecord> base, cur;
  if (!load_attributions(base_path, base, errors)) return false;
  if (!load_attributions(cur_path, cur, errors)) return false;
  if (base.empty()) {
    if (errors != nullptr) {
      errors->push_back(base_path + ": no attribution records");
    }
    return false;
  }
  bool ok = true;
  const auto complain = [&](const std::string& msg) {
    ok = false;
    if (errors != nullptr) errors->push_back(msg);
  };
  for (const auto& [key, b] : base) {
    const auto it = cur.find(key);
    if (it == cur.end()) {
      complain(key + ": missing from " + cur_path);
      continue;
    }
    const BaselineRecord& c = it->second;
    if (b.binding != c.binding) {
      complain(key + ": binding resource changed " + b.binding + " -> " +
               c.binding);
    }
    for (std::size_t i = 0; i < kStallClassCount; ++i) {
      const double delta = c.share[i] - b.share[i];
      if (delta > tolerance || delta < -tolerance) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "%s: %s share moved %.4f -> %.4f (tolerance %.4f)",
                      key.c_str(),
                      std::string(to_string(static_cast<StallClass>(i)))
                          .c_str(),
                      b.share[i], c.share[i], tolerance);
        complain(buf);
      }
    }
  }
  for (const auto& [key, c] : cur) {
    (void)c;
    if (base.find(key) == base.end()) {
      complain(key + ": not present in baseline " + base_path);
    }
  }
  return ok;
}

}  // namespace hwgc
