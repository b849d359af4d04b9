// hwgc-service-v1 JSONL: schema emission, the validator's invariants
// (field presence/types, monotone percentiles, exact stall accounting),
// the mixed-schema file gate bench_validate runs in CI, and a golden-file
// pin of the exact bytes (regenerate with HWGC_REGEN_GOLDEN=1).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "service/heap_service.hpp"
#include "service/service_metrics.hpp"
#include "telemetry/jsonl.hpp"
#include "telemetry/metrics.hpp"

namespace hwgc {
namespace {

/// Small deterministic run every test shares (seeded, so the report bytes
/// are stable — see the golden test).
const HeapService& mini_service() {
  static HeapService* service = [] {
    ServiceConfig cfg;
    cfg.shards = 2;
    cfg.semispace_words = 4096;
    cfg.sim.coprocessor.num_cores = 4;
    cfg.traffic.seed = 5;
    cfg.scheduler = GcSchedulerKind::kProactive;
    auto* s = new HeapService(cfg);
    s->serve(1500);
    return s;
  }();
  return *service;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(ServiceJsonl, EmitsPerShardPlusFleetRecords) {
  const auto lines = lines_of(service_report_jsonl(mini_service(), "t"));
  ASSERT_EQ(lines.size(), mini_service().shard_count() + 1);
  for (const auto& line : lines) {
    std::string err;
    EXPECT_TRUE(validate_service_jsonl_line(line, &err)) << err << "\n"
                                                         << line;
  }
  EXPECT_NE(lines.back().find("\"shard\":-1"), std::string::npos)
      << "last record must be the fleet aggregate";
}

// --- validator invariants ---------------------------------------------------

/// One known-good line to tamper with.
std::string good_line() {
  const auto lines = lines_of(service_report_jsonl(mini_service(), "t"));
  return lines.front();
}

std::string replace_field(const std::string& line, const std::string& key,
                          const std::string& replacement) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  EXPECT_NE(at, std::string::npos) << key;
  const std::size_t start = at + needle.size();
  std::size_t end = start;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(0, start) + replacement + line.substr(end);
}

TEST(ServiceJsonl, ValidatorRejectsMissingField) {
  std::string line = good_line();
  const std::size_t at = line.find(",\"stall_cycles\":");
  ASSERT_NE(at, std::string::npos);
  std::size_t end = line.find(',', at + 1);
  if (end == std::string::npos) end = line.find('}', at + 1);
  line.erase(at, end - at);
  std::string err;
  EXPECT_FALSE(validate_service_jsonl_line(line, &err));
  EXPECT_NE(err.find("stall_cycles"), std::string::npos) << err;
}

TEST(ServiceJsonl, ValidatorRejectsWrongSchema) {
  std::string err;
  EXPECT_FALSE(validate_service_jsonl_line(
      replace_field(good_line(), "schema", "\"hwgc-service-v2\""), &err));
}

TEST(ServiceJsonl, ValidatorRejectsNonMonotonePercentiles) {
  std::string err;
  EXPECT_FALSE(validate_service_jsonl_line(
      replace_field(good_line(), "latency_p50", "999999999"), &err));
  EXPECT_NE(err.find("percentile"), std::string::npos) << err;
}

TEST(ServiceJsonl, ValidatorRejectsBrokenStallAccounting) {
  std::string err;
  EXPECT_FALSE(validate_service_jsonl_line(
      replace_field(good_line(), "stall_cycles", "1"), &err));
  EXPECT_NE(err.find("accounting"), std::string::npos) << err;
}

TEST(ServiceJsonl, ValidatorRejectsNegativeComponent) {
  std::string err;
  EXPECT_FALSE(validate_service_jsonl_line(
      replace_field(good_line(), "queue_cycles", "-5"), &err));
}

TEST(ServiceJsonl, ValidatorRejectsCountMismatch) {
  std::string err;
  EXPECT_FALSE(validate_service_jsonl_line(
      replace_field(good_line(), "rejected", "7"), &err));
  EXPECT_NE(err.find("requests"), std::string::npos) << err;
}

TEST(ServiceJsonl, ValidatorRejectsShardOutOfRange) {
  std::string err;
  EXPECT_FALSE(validate_service_jsonl_line(
      replace_field(good_line(), "shard", "99"), &err));
}

TEST(ServiceJsonl, ValidatorRejectsIdentitiesMetByWrapAround) {
  // Each accounting identity must hold without wrapping modulo 2^64.
  const std::string line = good_line();
  JsonKv kv;
  ASSERT_TRUE(parse_flat_json_object(line, kv, nullptr));
  const auto u64 = [&](const char* key) { return req_u64(kv, key).value(); };
  const std::string max = "18446744073709551615";
  std::string err;
  EXPECT_FALSE(validate_service_jsonl_line(
      replace_field(replace_field(replace_field(replace_field(
                                                    line, "completed", max),
                                                "rejected", "1"),
                                  "failed", "0"),
                    "requests", "0"),
      &err));
  EXPECT_NE(err.find("requests"), std::string::npos) << err;
  EXPECT_FALSE(validate_service_jsonl_line(
      replace_field(replace_field(line, "served", max), "retried",
                    std::to_string(u64("completed") + 1)),
      &err));
  EXPECT_NE(err.find("served + retried"), std::string::npos) << err;
  EXPECT_FALSE(validate_service_jsonl_line(
      replace_field(
          replace_field(line, "service_cycles", max), "queue_cycles",
          std::to_string(u64("latency_cycles") - u64("stall_cycles") + 1)),
      &err));
  EXPECT_NE(err.find("accounting"), std::string::npos) << err;
}

// --- resilience fields (fleet-resilience PR additions) -----------------------

TEST(ServiceJsonl, ValidatorRejectsFailedBreakingThePartition) {
  // completed + rejected + failed == requests is the partition identity;
  // inventing a failed request breaks it.
  std::string err;
  EXPECT_FALSE(validate_service_jsonl_line(
      replace_field(good_line(), "failed", "3"), &err));
  EXPECT_NE(err.find("failed"), std::string::npos) << err;
}

TEST(ServiceJsonl, ValidatorRejectsServedRetriedMismatch) {
  std::string err;
  EXPECT_FALSE(validate_service_jsonl_line(
      replace_field(good_line(), "retried", "11"), &err));
  EXPECT_NE(err.find("served + retried"), std::string::npos) << err;
}

TEST(ServiceJsonl, ValidatorRejectsCrashesExceedingFailed) {
  std::string err;
  EXPECT_FALSE(validate_service_jsonl_line(
      replace_field(good_line(), "crashes", "5"), &err));
  EXPECT_NE(err.find("crashes"), std::string::npos) << err;
}

TEST(ServiceJsonl, ValidatorRejectsRestoresExceedingQuarantines) {
  std::string err;
  EXPECT_FALSE(validate_service_jsonl_line(
      replace_field(good_line(), "restores", "4"), &err));
  EXPECT_NE(err.find("restores"), std::string::npos) << err;
}

TEST(ServiceJsonl, ValidatorRejectsUnknownHealthState) {
  std::string err;
  EXPECT_FALSE(validate_service_jsonl_line(
      replace_field(good_line(), "health", "\"zombie\""), &err));
  EXPECT_NE(err.find("health"), std::string::npos) << err;
}

TEST(ServiceJsonl, ValidatorRejectsMissingResilienceField) {
  std::string line = good_line();
  const std::size_t at = line.find(",\"quarantines\":");
  ASSERT_NE(at, std::string::npos);
  std::size_t end = line.find(',', at + 1);
  if (end == std::string::npos) end = line.find('}', at + 1);
  line.erase(at, end - at);
  std::string err;
  EXPECT_FALSE(validate_service_jsonl_line(line, &err));
  EXPECT_NE(err.find("quarantines"), std::string::npos) << err;
}

// --- the mixed-schema file gate ---------------------------------------------

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

TEST(ServiceJsonl, MixedFileValidatesBothSchemas) {
  // A heapd-style artifact: a bench-v1 section followed by the service
  // section.
  MetricsRegistry reg;
  MetricsRegistry::Key key;
  key.benchmark = "mixed";
  key.cores = 4;
  key.seed = 5;
  const Runtime& rt = mini_service().runtime(0);
  ASSERT_FALSE(rt.gc_history().empty());
  ServiceConfig scfg = mini_service().config();
  for (const auto& s : rt.gc_history()) reg.record(key, scfg.sim, s);

  const std::string path = temp_path("mixed.json");
  {
    std::ofstream f(path, std::ios::binary);
    f << reg.to_jsonl("mixed") << service_report_jsonl(mini_service(), "t");
  }
  std::vector<std::string> errors;
  EXPECT_TRUE(validate_metrics_jsonl_file(path, &errors))
      << (errors.empty() ? "" : errors.front());

  // The single-schema validators must reject the other section's lines.
  EXPECT_FALSE(validate_metrics_jsonl_file(path, nullptr, kBenchSchema));
  EXPECT_FALSE(validate_metrics_jsonl_file(path, nullptr, kServiceSchema));
  std::remove(path.c_str());
}

TEST(ServiceJsonl, MixedFileRejectsUnknownSchema) {
  const std::string path = temp_path("unknown_schema.json");
  {
    std::ofstream f(path, std::ios::binary);
    f << "{\"schema\":\"hwgc-mystery-v1\",\"x\":1}\n";
  }
  std::vector<std::string> errors;
  EXPECT_FALSE(validate_metrics_jsonl_file(path, &errors));
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("schema"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ServiceJsonl, EmptyFileIsInvalid) {
  const std::string path = temp_path("empty.json");
  { std::ofstream f(path, std::ios::binary); }
  EXPECT_FALSE(validate_metrics_jsonl_file(path, nullptr));
  std::remove(path.c_str());
}

TEST(ServiceJsonl, WriteAppendStacksSections) {
  const std::string path = temp_path("stacked.json");
  ASSERT_TRUE(
      write_jsonl_file(path, service_report_jsonl(mini_service(), "first") +
                                 service_report_jsonl(mini_service(), "second")));
  std::vector<std::string> errors;
  EXPECT_TRUE(validate_metrics_jsonl_file(path, &errors, kServiceSchema))
      << (errors.empty() ? "" : errors.front());
  std::ifstream f(path);
  std::size_t n = 0;
  std::string line;
  while (std::getline(f, line)) n += line.empty() ? 0 : 1;
  EXPECT_EQ(n, 2 * (mini_service().shard_count() + 1));
  std::remove(path.c_str());
}

// --- golden file ------------------------------------------------------------
// Pins the exact bytes of the mini run's report. Regenerate with:
//   HWGC_REGEN_GOLDEN=1 ./test_service_metrics
// then commit tests/golden/service_mini.json — a diff there is a schema or
// determinism change and must be intentional.

TEST(ServiceJsonl, GoldenReportStable) {
  const std::string text = service_report_jsonl(mini_service(), "golden");
  const std::string path = std::string(HWGC_GOLDEN_DIR) + "/service_mini.json";
  if (std::getenv("HWGC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << text;
    ASSERT_TRUE(out.good()) << "failed to regenerate " << path;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — regenerate with HWGC_REGEN_GOLDEN=1";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), text)
      << "service JSONL drifted from tests/golden/service_mini.json; if "
         "intended, HWGC_REGEN_GOLDEN=1 and commit";
}

}  // namespace
}  // namespace hwgc
