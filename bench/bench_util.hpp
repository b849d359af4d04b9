// Shared helpers for the benchmark harness binaries.
//
// Each bench binary regenerates one table or figure from the paper's
// evaluation (Section VI) and prints it in a comparable layout. They share
// one flag table (parse_options; run any of them with --help): --scale,
// --seed and --bench take their value as --flag=value or --flag value,
// while --json[=path] and --profile-json[=path] take a path only in the =
// form. The default --scale of 0.25 keeps runs short; the paper notes heap
// size has little influence on the relative results, which
// bench_heapsize_ablation checks. --json writes hwgc-bench-v1
// (src/telemetry/metrics.hpp), --profile-json hwgc-profile-v1
// (src/profile/).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/coprocessor.hpp"
#include "profile/cycle_profiler.hpp"
#include "sim/config.hpp"
#include "sim/flags.hpp"
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
  std::string tool = argc > 0 ? argv[0] : "bench";
  tool = tool.substr(tool.find_last_of('/') + 1);
  Flags t(tool);
  t.value("--scale", opt.scale,
          "live-set scale factor (1.0 is paper-sized)");
  t.value("--seed", opt.seed, "workload seed");
  t.list("--bench", opt.benchmarks,
         choice(parse_benchmark,
                [](BenchmarkId id) { return benchmark_name(id); },
                all_benchmarks()),
         "subset of benchmarks to run")
      .metavar("NAME,..");
  t.opt_value("--json", opt.json, opt.json_path,
              "also emit the aggregated metrics as hwgc-bench-v1 JSONL\n"
              "(default path BENCH_<suite>.json)");
  t.opt_value("--profile-json", opt.profile_json, opt.profile_json_path,
              "emit per-configuration stall attribution as\n"
              "hwgc-profile-v1 JSONL (default BENCH_<suite>_profile.json)");
  t.parse(argc, argv);
  if (const auto e = scale_error(opt.scale); !e.empty()) t.fail("--scale " + e);
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
  const GcCycleStats stats = coproc.collect(&profiler);
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
