// profile_diff — the hwgc-profile-v1 regression comparator.
//
// Usage (see --help):
//   profile_diff BASELINE CURRENT [--tolerance=F]
//
// Validates both files (schema identities + file-level span checks), then
// pairs their attribution records by (suite, source, shard) and exits
// nonzero when
//   * either file fails validation,
//   * a record is missing from or extra in CURRENT,
//   * a record's binding resource changed, or
//   * any stall class's share of core_cycles moved more than the
//     tolerance (absolute; default 0.05, i.e. five share points).
//
// CI's profile-smoke job runs this against the committed BENCH_profile.json
// snapshot so an attribution shift — a new stall class eating cycles, a
// binding-resource flip — fails the build instead of rotting silently.
#include <cstdio>
#include <string>
#include <vector>

#include "profile/profile_metrics.hpp"
#include "service/service_metrics.hpp"
#include "sim/flags.hpp"

int main(int argc, char** argv) {
  using namespace hwgc;
  double tolerance = 0.05;
  std::vector<std::string> files;
  Flags t("profile_diff", "the hwgc-profile-v1 regression comparator");
  t.list("FILE", files, "BASELINE then CURRENT profile file");
  t.value("--tolerance", tolerance,
          "largest allowed absolute move of a class share");
  t.parse(argc, argv);
  if (tolerance < 0) t.fail("--tolerance must be >= 0");
  if (files.size() != 2) t.fail("needs exactly two files");

  bool ok = true;
  for (const std::string& path : files) {
    std::vector<std::string> errors;
    if (validate_metrics_jsonl_file(path, &errors, kProfileSchema)) {
      std::printf("%s: valid hwgc-profile-v1\n", path.c_str());
    } else {
      ok = false;
      for (const std::string& e : errors) {
        std::fprintf(stderr, "  %s\n", e.c_str());
      }
      std::printf("%s: INVALID\n", path.c_str());
    }
  }

  std::vector<std::string> drift;
  if (ok && !compare_profile_baselines(files[0], files[1], tolerance, &drift)) {
    ok = false;
    for (const std::string& e : drift) {
      std::fprintf(stderr, "  %s\n", e.c_str());
    }
  }
  std::printf("attribution drift vs %s (tolerance %.3f): %s\n",
              files[0].c_str(), tolerance, ok ? "none" : "DETECTED");
  return ok ? 0 : 1;
}
