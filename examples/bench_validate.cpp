// bench_validate — schema gate for hwgc JSONL metric files.
//
// Validates every line of every file named on the command line against the
// stable schema its "schema" field names, one of four:
//   hwgc-bench-v1    collection-cycle aggregates (telemetry/metrics.hpp)
//   hwgc-service-v1  request latency + SLO accounting
//                    (service/service_metrics.hpp)
//   hwgc-profile-v1  stall attribution + request span trees
//                    (profile/profile_metrics.hpp)
//   hwgc-trace-v1    recorded mutator traces (trace/trace_format.hpp)
// Required keys present and correctly typed (each schema's field table),
// then the schema's identities: fractions within [0, 1], percentile
// ordering, exact stall accounting (service + queue + stall ==
// latency_cycles), attribution sums, unique span ids per file. A heapd
// artifact carries several sections in one file; lines with an unknown or
// missing schema are violations. CI and ctest run it over fresh artifacts
// and the committed BENCH_*.json snapshots, so a schema drift fails the
// build rather than silently breaking downstream dashboards.
//
// Usage: bench_validate FILE [FILE...]
// Exit status: 0 all files valid, 1 any violation or unreadable file,
//              2 usage error.
#include <cstdio>
#include <string>
#include <vector>

#include "service/service_metrics.hpp"
#include "sim/flags.hpp"

int main(int argc, char** argv) {
  std::vector<std::string> files;
  hwgc::Flags t("bench_validate", "schema gate for hwgc JSONL metric files");
  t.list("FILE", files, "JSONL files to validate");
  t.parse(argc, argv);
  if (files.empty()) t.fail("needs at least one file");
  bool all_ok = true;
  for (const std::string& file : files) {
    std::vector<std::string> errors;
    const bool ok = hwgc::validate_metrics_jsonl_file(file, &errors);
    if (ok) {
      std::printf("%s: OK\n", file.c_str());
      continue;
    }
    all_ok = false;
    std::printf("%s: INVALID\n", file.c_str());
    for (const auto& e : errors) std::printf("  %s\n", e.c_str());
  }
  return all_ok ? 0 : 1;
}
