// hwgc-profile-v1 JSONL: attribution + span emission, the validator's
// identities (shares sum to totals, binding is the critical maximum, span
// trees are well-formed), the file-level duplicate-span gate, the
// regression comparator behind CI's profile-smoke job, and a golden-file
// pin of the exact bytes (regenerate with HWGC_REGEN_GOLDEN=1).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "profile/profile_metrics.hpp"
#include "profile/request_trace.hpp"
#include "service/heap_service.hpp"
#include "service/service_metrics.hpp"

namespace hwgc {
namespace {

/// Small deterministic profiled fleet run every test shares. The tight
/// semispace forces collections so the attribution records carry cycles.
const HeapService& mini_profiled_service() {
  static HeapService* service = [] {
    ServiceConfig cfg;
    cfg.shards = 2;
    cfg.semispace_words = 2048;
    cfg.sim.coprocessor.num_cores = 4;
    cfg.traffic.seed = 5;
    cfg.scheduler = GcSchedulerKind::kProactive;
    cfg.profile.enabled = true;
    cfg.profile.exemplars = 3;
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

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
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

/// First attribution line of the mini run (known-good tamper target).
std::string attribution_line() {
  const auto lines = lines_of(profile_report_jsonl(mini_profiled_service(),
                                                   "t"));
  for (const auto& l : lines) {
    if (l.find("\"kind\":\"attribution\"") != std::string::npos) return l;
  }
  ADD_FAILURE() << "no attribution record emitted";
  return {};
}

/// First span line of the mini run.
std::string span_line(const char* name = nullptr) {
  const auto lines = lines_of(profile_report_jsonl(mini_profiled_service(),
                                                   "t"));
  for (const auto& l : lines) {
    if (l.find("\"kind\":\"span\"") == std::string::npos) continue;
    if (name == nullptr ||
        l.find("\"name\":\"" + std::string(name) + "\"") !=
            std::string::npos) {
      return l;
    }
  }
  ADD_FAILURE() << "no span record emitted";
  return {};
}

TEST(ProfileJsonl, MiniRunEmitsValidRecordsOfBothKinds) {
  const auto lines = lines_of(profile_report_jsonl(mini_profiled_service(),
                                                   "t"));
  std::size_t attributions = 0, spans = 0;
  ProfileSpanChecker dup;
  for (const auto& line : lines) {
    std::string err;
    EXPECT_TRUE(validate_profile_jsonl_line(line, &err)) << err << "\n"
                                                         << line;
    EXPECT_TRUE(dup.check(line, &err)) << err;
    attributions +=
        line.find("\"kind\":\"attribution\"") != std::string::npos ? 1 : 0;
    spans += line.find("\"kind\":\"span\"") != std::string::npos ? 1 : 0;
  }
  EXPECT_EQ(attributions, mini_profiled_service().shard_count());
  EXPECT_GT(spans, 0u) << "exemplar capture produced no span trees";
}

// --- negative validator cases (the bench_validate gate) ---------------------

TEST(ProfileJsonl, ValidatorRejectsUnknownStallClass) {
  std::string err;
  EXPECT_FALSE(validate_profile_jsonl_line(
      replace_field(attribution_line(), "binding", "\"warp-core\""), &err));
  EXPECT_NE(err.find("unknown stall class"), std::string::npos) << err;
}

TEST(ProfileJsonl, ValidatorRejectsSharesNotSummingToTotal) {
  std::string err;
  EXPECT_FALSE(validate_profile_jsonl_line(
      replace_field(attribution_line(), "cls_compute", "1"), &err));
  EXPECT_NE(err.find("sum(cls_*)"), std::string::npos) << err;
}

TEST(ProfileJsonl, ValidatorRejectsCriticalSharesNotSummingToTotal) {
  std::string err;
  EXPECT_FALSE(validate_profile_jsonl_line(
      replace_field(attribution_line(), "crit_compute", "1"), &err));
  EXPECT_NE(err.find("sum(crit_*)"), std::string::npos) << err;
}

TEST(ProfileJsonl, ValidatorRejectsUnprofiledExceedingCollections) {
  std::string err;
  EXPECT_FALSE(validate_profile_jsonl_line(
      replace_field(attribution_line(), "unprofiled", "999"), &err));
  EXPECT_NE(err.find("unprofiled"), std::string::npos) << err;
}

TEST(ProfileJsonl, ValidatorRejectsSpanRangeOutOfOrder) {
  std::string err;
  EXPECT_FALSE(validate_profile_jsonl_line(
      replace_field(span_line(), "begin_cycle", "99999999999"), &err));
  EXPECT_NE(err.find("out of order"), std::string::npos) << err;
}

TEST(ProfileJsonl, ValidatorRejectsParentNotPrecedingSpan) {
  std::string err;
  EXPECT_FALSE(validate_profile_jsonl_line(
      replace_field(span_line("service"), "parent", "99"), &err));
  EXPECT_NE(err.find("parent"), std::string::npos) << err;
}

TEST(ProfileJsonl, ValidatorRejectsUnknownSpanName) {
  std::string err;
  EXPECT_FALSE(validate_profile_jsonl_line(
      replace_field(span_line(), "name", "\"teleport\""), &err));
  EXPECT_NE(err.find("unknown span name"), std::string::npos) << err;
}

TEST(ProfileJsonl, ValidatorRejectsGcLinkOnNonChargeSpan) {
  std::string err;
  EXPECT_FALSE(validate_profile_jsonl_line(
      replace_field(span_line("service"), "gc_collection", "3"), &err));
  EXPECT_NE(err.find("gc-charge"), std::string::npos) << err;
}

TEST(ProfileJsonl, ValidatorRejectsUnknownKind) {
  std::string err;
  EXPECT_FALSE(validate_profile_jsonl_line(
      replace_field(attribution_line(), "kind", "\"summary\""), &err));
  EXPECT_NE(err.find("kind"), std::string::npos) << err;
}

TEST(ProfileJsonl, DuplicateSpanIdsAreAFileLevelViolation) {
  const std::string line = span_line();
  ProfileSpanChecker dup;
  std::string err;
  EXPECT_TRUE(dup.check(line, &err));
  EXPECT_FALSE(dup.check(line, &err)) << "second sighting must fail";
  EXPECT_NE(err.find("duplicate span id"), std::string::npos) << err;

  // And through the file validator / bench_validate path.
  const std::string path = temp_path("dup_span.json");
  {
    std::ofstream f(path, std::ios::binary);
    f << line << "\n" << line << "\n";
  }
  std::vector<std::string> errors;
  EXPECT_FALSE(validate_metrics_jsonl_file(path, &errors, kProfileSchema));
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("duplicate span id"), std::string::npos);
  errors.clear();
  EXPECT_FALSE(validate_metrics_jsonl_file(path, &errors));
  std::remove(path.c_str());
}

// --- mixed-schema dispatch --------------------------------------------------

TEST(ProfileJsonl, MixedServiceAndProfileFileValidates) {
  const std::string path = temp_path("mixed_profile.json");
  ASSERT_TRUE(write_jsonl_file(
      path, service_report_jsonl(mini_profiled_service(), "t") +
                profile_report_jsonl(mini_profiled_service(), "t")));
  std::vector<std::string> errors;
  EXPECT_TRUE(validate_metrics_jsonl_file(path, &errors))
      << (errors.empty() ? "" : errors.front());
  // The profile-only validator must reject the service section's lines.
  EXPECT_FALSE(validate_metrics_jsonl_file(path, nullptr, kProfileSchema));
  std::remove(path.c_str());
}

// --- the regression comparator ----------------------------------------------

/// Hand-built attribution whose identities hold: 2 cores x 50 cycles.
ProfileAttribution synthetic(Cycle compute, Cycle scan_wait) {
  ProfileAttribution a;
  a.source = "synthetic";
  a.shard = -1;
  a.cores = 2;
  a.collections = 1;
  a.total_cycles = (compute + scan_wait) / 2;
  a.core_cycles = compute + scan_wait;
  a.cls[static_cast<std::size_t>(StallClass::kCompute)] = compute;
  a.cls[static_cast<std::size_t>(StallClass::kSbScanWait)] = scan_wait;
  a.crit[static_cast<std::size_t>(StallClass::kCompute)] = a.total_cycles;
  return a;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
}

TEST(ProfileComparator, IdenticalFilesAgree) {
  const std::string base = temp_path("cmp_base.json");
  write_file(base, profile_attribution_jsonl(synthetic(80, 20), "t"));
  std::vector<std::string> errors;
  EXPECT_TRUE(compare_profile_baselines(base, base, 0.01, &errors))
      << (errors.empty() ? "" : errors.front());
  std::remove(base.c_str());
}

TEST(ProfileComparator, FlagsShareDriftBeyondTolerance) {
  const std::string base = temp_path("cmp_base2.json");
  const std::string cur = temp_path("cmp_cur2.json");
  write_file(base, profile_attribution_jsonl(synthetic(80, 20), "t"));
  write_file(cur, profile_attribution_jsonl(synthetic(70, 30), "t"));
  // compute's share moved 0.80 -> 0.70: outside 0.05, inside 0.15.
  std::vector<std::string> errors;
  EXPECT_FALSE(compare_profile_baselines(base, cur, 0.05, &errors));
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("share moved"), std::string::npos);
  EXPECT_TRUE(compare_profile_baselines(base, cur, 0.15, nullptr));
  std::remove(base.c_str());
  std::remove(cur.c_str());
}

TEST(ProfileComparator, FlagsBindingResourceChange) {
  ProfileAttribution flipped = synthetic(80, 20);
  flipped.crit[static_cast<std::size_t>(StallClass::kCompute)] = 0;
  flipped.crit[static_cast<std::size_t>(StallClass::kSbScanWait)] =
      flipped.total_cycles;
  const std::string base = temp_path("cmp_base3.json");
  const std::string cur = temp_path("cmp_cur3.json");
  write_file(base, profile_attribution_jsonl(synthetic(80, 20), "t"));
  write_file(cur, profile_attribution_jsonl(flipped, "t"));
  std::vector<std::string> errors;
  EXPECT_FALSE(compare_profile_baselines(base, cur, 1.0, &errors))
      << "a binding flip must fail at any share tolerance";
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("binding resource changed"),
            std::string::npos);
  std::remove(base.c_str());
  std::remove(cur.c_str());
}

TEST(ProfileComparator, ReadsRecordKindFromParsedValue) {
  // A span line carrying a second "kind":"attribution" key is a valid span
  // (the first key decides), so the comparator must not read it as an
  // attribution record.
  std::string span;
  for (const auto& line :
       lines_of(profile_report_jsonl(mini_profiled_service(), "t"))) {
    if (line.find("\"kind\":\"span\"") != std::string::npos) {
      span = line;
      break;
    }
  }
  ASSERT_FALSE(span.empty());
  span.insert(span.size() - 1, ",\"kind\":\"attribution\"");
  std::string err;
  ASSERT_TRUE(validate_profile_jsonl_line(span, &err)) << err;
  const std::string base = temp_path("cmp_base5.json");
  const std::string cur = temp_path("cmp_cur5.json");
  write_file(base, profile_attribution_jsonl(synthetic(80, 20), "t"));
  write_file(cur, profile_attribution_jsonl(synthetic(80, 20), "t") + span +
                      "\n");
  std::vector<std::string> errors;
  EXPECT_TRUE(compare_profile_baselines(base, cur, 0.01, &errors))
      << (errors.empty() ? "" : errors.front());
  std::remove(base.c_str());
  std::remove(cur.c_str());
}

TEST(ProfileComparator, FlagsMissingAndExtraRecords) {
  ProfileAttribution other = synthetic(80, 20);
  other.source = "other";
  const std::string base = temp_path("cmp_base4.json");
  const std::string cur = temp_path("cmp_cur4.json");
  write_file(base, profile_attribution_jsonl(synthetic(80, 20), "t") +
                       profile_attribution_jsonl(other, "t"));
  write_file(cur, profile_attribution_jsonl(synthetic(80, 20), "t"));
  std::vector<std::string> errors;
  EXPECT_FALSE(compare_profile_baselines(base, cur, 0.5, &errors));
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("missing"), std::string::npos);

  errors.clear();
  EXPECT_FALSE(compare_profile_baselines(cur, base, 0.5, &errors));
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("not present in baseline"),
            std::string::npos);
  std::remove(base.c_str());
  std::remove(cur.c_str());
}

// --- golden file ------------------------------------------------------------
// Pins the exact bytes of the mini profiled run's report. Regenerate with:
//   HWGC_REGEN_GOLDEN=1 ./test_profile_metrics
// then commit tests/golden/profile_mini.json — a diff there is a schema or
// determinism change and must be intentional.

TEST(ProfileJsonl, GoldenReportStable) {
  const std::string text =
      profile_report_jsonl(mini_profiled_service(), "golden");
  const std::string path =
      std::string(HWGC_GOLDEN_DIR) + "/profile_mini.json";
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
      << "profile JSONL drifted from tests/golden/profile_mini.json; if "
         "intended, HWGC_REGEN_GOLDEN=1 and commit";
}

}  // namespace
}  // namespace hwgc
