// Shared helpers for the benchmark harness binaries.
//
// Each bench binary regenerates one table or figure from the paper's
// evaluation (Section VI) and prints it in a comparable layout. The
// binaries accept:
//   --scale=<f>   live-set scale factor (default 0.25; 1.0 is paper-sized.
//                 The paper notes heap size has little influence on the
//                 relative results, which bench_heapsize_ablation checks.)
//   --seed=<n>    workload seed
//   --bench=<name[,name...]>  subset of benchmarks to run
//   --json[=path] additionally emit the aggregated metrics as stable-schema
//                 JSONL (default path BENCH_<suite>.json; schema
//                 hwgc-bench-v1, see src/telemetry/metrics.hpp)
//   --profile-json[=path]  emit per-configuration stall attribution as
//                 hwgc-profile-v1 JSONL (default path
//                 BENCH_<suite>_profile.json; src/profile/)
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/coprocessor.hpp"
#include "profile/cycle_profiler.hpp"
#include "sim/config.hpp"
#include "telemetry/metrics.hpp"
#include "workloads/benchmarks.hpp"

namespace hwgc::bench {

struct Options {
  double scale = 0.25;
  std::uint64_t seed = 42;
  std::vector<BenchmarkId> benchmarks = all_benchmarks();
  bool json = false;
  std::string json_path;  ///< empty: BENCH_<suite>.json
  bool profile_json = false;
  std::string profile_json_path;  ///< empty: BENCH_<suite>_profile.json
};

inline Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      opt.scale = std::strtod(arg.c_str() + 8, nullptr);
    } else if (arg.rfind("--seed=", 0) == 0) {
      opt.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--bench=", 0) == 0) {
      opt.benchmarks.clear();
      std::string list = arg.substr(8);
      std::size_t pos = 0;
      while (pos != std::string::npos) {
        const std::size_t comma = list.find(',', pos);
        const std::string name = list.substr(
            pos, comma == std::string::npos ? std::string::npos : comma - pos);
        for (BenchmarkId id : all_benchmarks()) {
          if (benchmark_name(id) == name) opt.benchmarks.push_back(id);
        }
        pos = comma == std::string::npos ? comma : comma + 1;
      }
      if (opt.benchmarks.empty()) {
        std::fprintf(stderr, "unknown benchmark list: %s\n", list.c_str());
        std::exit(2);
      }
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      opt.json = true;
      opt.json_path = arg.substr(7);
    } else if (arg == "--profile-json") {
      opt.profile_json = true;
    } else if (arg.rfind("--profile-json=", 0) == 0) {
      opt.profile_json = true;
      opt.profile_json_path = arg.substr(15);
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--scale=F] [--seed=N] [--bench=a,b,...] [--json[=path]]"
          " [--profile-json[=path]]\n",
          argv[0]);
      std::exit(0);
    }
  }
  return opt;
}

/// Builds the workload fresh and runs one collection cycle under `cfg`.
/// With `profile` non-null the cycle runs under the stall-attribution
/// profiler and leaves its CycleProfile there (simulated cycle counts are
/// identical either way).
inline GcCycleStats run_collection(BenchmarkId id, const Options& opt,
                                   SimConfig cfg,
                                   CycleProfile* profile = nullptr) {
  Workload w = make_benchmark(id, opt.scale, opt.seed);
  cfg.heap.semispace_words = w.heap->layout().semispace_words();
  Coprocessor coproc(cfg, *w.heap);
  if (profile == nullptr) return coproc.collect();
  CycleProfiler profiler;
  const GcCycleStats stats =
      coproc.collect(nullptr, nullptr, nullptr, nullptr, &profiler);
  *profile = profiler.take_profile();
  return stats;
}

inline void print_header(const char* title, const Options& opt) {
  std::printf("## %s\n", title);
  std::printf("## scale=%.3g seed=%llu (paper-sized heaps: --scale=1)\n\n",
              opt.scale, static_cast<unsigned long long>(opt.seed));
}

/// Registry key for one measured configuration of this run.
inline MetricsRegistry::Key metrics_key(BenchmarkId id, std::uint32_t cores,
                                        const Options& opt) {
  MetricsRegistry::Key key;
  key.benchmark = std::string(benchmark_name(id));
  key.cores = cores;
  key.scale = opt.scale;
  key.seed = opt.seed;
  return key;
}

/// Writes `jsonl` to `path` (or `fallback` when empty) if `wanted`.
/// Returns false after printing a diagnostic on I/O failure, so callers
/// can turn it into a nonzero exit code.
inline bool maybe_write(bool wanted, const std::string& path,
                        const std::string& fallback,
                        const std::string& jsonl) {
  if (!wanted) return true;
  const std::string& out = path.empty() ? fallback : path;
  if (!write_jsonl_file(out, jsonl)) {
    std::fprintf(stderr, "error: failed to write %s\n", out.c_str());
    return false;
  }
  std::printf("\nwrote %zu record(s) to %s\n",
              static_cast<std::size_t>(
                  std::count(jsonl.begin(), jsonl.end(), '\n')),
              out.c_str());
  return true;
}

/// Writes the registry as BENCH_<suite>.json (or --json=path) when --json
/// was requested.
inline bool maybe_write_jsonl(const MetricsRegistry& reg, const Options& opt,
                              const std::string& suite) {
  return maybe_write(opt.json, opt.json_path, "BENCH_" + suite + ".json",
                     reg.to_jsonl(suite));
}

}  // namespace hwgc::bench
