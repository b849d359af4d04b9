// Table-driven schema tests: each JSONL record kind (hwgc-bench-v1,
// hwgc-service-v1, hwgc-profile-v1 attribution and span, hwgc-trace-v1
// header and op) is declared once,
// as a field table that drives both its writer and its validator. For a
// writer-produced line of each kind, every field of the table must be
// emitted in table order, required (deleting it yields `missing field
// "X"`) and typed (flipping it between quoted and bare yields `field "X"
// has the wrong type`). The enum-derived fields must follow their enums.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "profile/profile_metrics.hpp"
#include "profile/stall_class.hpp"
#include "service/heap_service.hpp"
#include "service/service_metrics.hpp"
#include "telemetry/jsonl.hpp"
#include "telemetry/metrics.hpp"
#include "trace/corpus.hpp"
#include "trace/trace_format.hpp"

namespace hwgc {
namespace {

using LineValidator = bool (*)(const std::string&, std::string*);

std::string render(const JsonKv& kv) {
  std::string out = "{";
  for (const auto& [k, v] : kv) {
    if (out.size() > 1) out += ',';
    out += "\"" + k + "\":" + v;
  }
  return out + "}";
}

void expect_table_drives_validator(const std::string& line,
                                   const std::vector<JsonField>& fields,
                                   LineValidator validate) {
  std::string err;
  ASSERT_TRUE(validate(line, &err)) << err << "\n" << line;
  JsonKv kv;
  ASSERT_TRUE(parse_flat_json_object(line, kv, &err)) << err;
  ASSERT_EQ(kv.size(), fields.size()) << line;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    EXPECT_EQ(kv[i].first, fields[i].name) << "writer left table order";
  }
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const std::string& name = fields[i].name;
    SCOPED_TRACE(name);
    JsonKv cut = kv;
    cut.erase(cut.begin() + static_cast<std::ptrdiff_t>(i));
    EXPECT_FALSE(validate(render(cut), &err));
    EXPECT_EQ(err, "missing field \"" + name + "\"");

    JsonKv flipped = kv;
    std::string& v = flipped[i].second;
    v = fields[i].type == JsonType::kString ? "0" : "\"" + v + "\"";
    EXPECT_FALSE(validate(render(flipped), &err));
    EXPECT_EQ(err, "field \"" + name + "\" has the wrong type");
  }
}

std::string first_line(const std::string& jsonl) {
  return jsonl.substr(0, jsonl.find('\n'));
}

TEST(JsonlSchema, BenchTableDrivesWriterAndValidator) {
  GcCycleStats s;
  s.total_cycles = 100;
  s.per_core.resize(2);
  s.per_core[0].stalls[static_cast<std::size_t>(StallReason::kScanLock)] = 5;
  SimConfig cfg;
  cfg.coprocessor.num_cores = 2;
  MetricsRegistry reg;
  reg.record({"mini", 2, 0.5, 3}, cfg, s);
  expect_table_drives_validator(first_line(reg.to_jsonl("t")),
                                bench_record_fields(),
                                &validate_bench_jsonl_line);
}

TEST(JsonlSchema, ServiceTableDrivesWriterAndValidator) {
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.semispace_words = 4096;
  cfg.traffic.seed = 9;
  HeapService service(cfg);
  service.serve(300);
  const std::string jsonl = service_report_jsonl(service, "t");
  // The fleet record (shard -1) is the last line.
  const std::string fleet =
      jsonl.substr(jsonl.rfind('\n', jsonl.size() - 2) + 1);
  expect_table_drives_validator(first_line(fleet), service_record_fields(),
                                &validate_service_jsonl_line);
  expect_table_drives_validator(first_line(jsonl), service_record_fields(),
                                &validate_service_jsonl_line);
}

TEST(JsonlSchema, AttributionTableDrivesWriterAndValidator) {
  ProfileAttribution a;
  a.source = "unit";
  expect_table_drives_validator(first_line(profile_attribution_jsonl(a, "t")),
                                attribution_record_fields(),
                                &validate_profile_jsonl_line);
}

TEST(JsonlSchema, SpanTableDrivesWriterAndValidator) {
  SpanRecord gc;
  gc.shard = 1;
  gc.trace = 7;
  gc.span = 3;
  gc.parent = 1;
  gc.name = "gc-charge";
  gc.begin = 10;
  gc.end = 40;
  gc.gc_collection = 2;
  gc.gc_cycles = 30;
  expect_table_drives_validator(first_line(span_record_jsonl(gc, "t")),
                                span_record_fields(),
                                &validate_profile_jsonl_line);
}

TEST(JsonlSchema, TraceTablesDriveWriterAndValidator) {
  const std::string jsonl =
      trace_to_jsonl(trace_from_benchmark(BenchmarkId::kJlisp));
  const std::string ops = jsonl.substr(jsonl.find('\n') + 1);
  expect_table_drives_validator(first_line(jsonl), trace_header_fields(),
                                &validate_trace_jsonl_line);
  expect_table_drives_validator(first_line(ops), trace_op_fields(),
                                &validate_trace_jsonl_line);
}

std::set<std::string> names_with_prefix(const std::vector<JsonField>& fields,
                                        const std::string& prefix) {
  std::set<std::string> out;
  for (const JsonField& f : fields) {
    if (f.name.rfind(prefix, 0) == 0) out.insert(f.name);
  }
  return out;
}

TEST(JsonlSchema, StallFieldsFollowStallReason) {
  std::set<std::string> expected;
  for (std::size_t i = 0; i < kStallReasonCount; ++i) {
    const auto r = static_cast<StallReason>(i);
    if (r == StallReason::kNone) continue;
    std::string name = "stall_" + std::string(to_string(r));
    for (char& c : name) c = c == '-' ? '_' : c;
    expected.insert(name);
  }
  EXPECT_EQ(names_with_prefix(bench_record_fields(), "stall_"), expected);
}

TEST(JsonlSchema, ClassFieldsFollowStallClass) {
  std::set<std::string> cls, crit;
  for (std::size_t i = 0; i < kStallClassCount; ++i) {
    const std::string suffix(field_suffix(static_cast<StallClass>(i)));
    cls.insert("cls_" + suffix);
    crit.insert("crit_" + suffix);
  }
  EXPECT_EQ(names_with_prefix(attribution_record_fields(), "cls_"), cls);
  EXPECT_EQ(names_with_prefix(attribution_record_fields(), "crit_"), crit);
}

TEST(JsonlLookups, TypedLookupsParseWholeValuesOfTheirType) {
  JsonKv kv;
  ASSERT_TRUE(parse_flat_json_object(
      R"({"s":"abc","u":42,"i":-1,"d":0.250000,"neg":-5,"frac":1.5})", kv,
      nullptr));
  EXPECT_EQ(req_str(kv, "s"), "abc");
  EXPECT_EQ(req_u64(kv, "u"), 42u);
  EXPECT_EQ(req_i64(kv, "i"), -1);
  EXPECT_EQ(req_num(kv, "d"), 0.25);
  std::string err;
  EXPECT_FALSE(req_u64(kv, "neg", &err));
  EXPECT_EQ(err, "field \"neg\" has the wrong type");
  EXPECT_FALSE(req_i64(kv, "frac", &err));
  EXPECT_EQ(err, "field \"frac\" has the wrong type");
  EXPECT_FALSE(req_u64(kv, "s", &err));
  EXPECT_FALSE(req_str(kv, "u", &err));
  EXPECT_FALSE(req_num(kv, "absent", &err));
  EXPECT_EQ(err, "missing field \"absent\"");
}

}  // namespace
}  // namespace hwgc
