// profile_diff — the hwgc-profile-v1 regression comparator.
//
// Usage:
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
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "profile/profile_metrics.hpp"
#include "service/service_metrics.hpp"

int main(int argc, char** argv) {
  using namespace hwgc;
  double tolerance = 0.05;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--tolerance=", 0) == 0) {
      char* end = nullptr;
      tolerance = std::strtod(arg.c_str() + 12, &end);
      if (end == nullptr || *end != '\0' || tolerance < 0) {
        std::fprintf(stderr, "profile_diff: bad tolerance: %s\n", arg.c_str());
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: %s BASELINE CURRENT [--tolerance=F]\n", argv[0]);
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "profile_diff: unknown option: %s\n", arg.c_str());
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2) {
    std::fprintf(stderr, "usage: %s BASELINE CURRENT [--tolerance=F]\n",
                 argv[0]);
    return 2;
  }

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
