// Scaling study: reproduce the paper's headline experiment interactively.
//
// Usage: ./examples/scaling_study [benchmark] [scale] [--json[=path]]
//   benchmark  one of: compress cup db javac javacc jflex jlisp search
//              (default: db — the best-scaling workload)
//   scale      live-set scale factor (default 0.25)
//   --json     also write the sweep as hwgc-bench-v1 JSONL
//              (default path BENCH_scaling_study.json)
//
// Prints the collection-cycle duration and speedup at 1..16 cores plus
// the per-configuration stall anatomy, so the trade-offs behind Figure 5
// are visible benchmark by benchmark.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/coprocessor.hpp"
#include "telemetry/metrics.hpp"
#include "workloads/benchmarks.hpp"

int main(int argc, char** argv) {
  using namespace hwgc;

  bool json = false;
  std::string json_path = "BENCH_scaling_study.json";
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json") {
      json = true;
    } else if (a.rfind("--json=", 0) == 0) {
      json = true;
      json_path = a.substr(7);
    } else {
      positional.push_back(a);
    }
  }

  BenchmarkId bench = BenchmarkId::kDb;
  if (!positional.empty()) {
    bool found = false;
    for (BenchmarkId id : all_benchmarks()) {
      if (benchmark_name(id) == positional[0]) {
        bench = id;
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr, "unknown benchmark '%s'\n", positional[0].c_str());
      return 2;
    }
  }
  const double scale =
      positional.size() > 1 ? std::strtod(positional[1].c_str(), nullptr) : 0.25;

  std::printf("workload: %s (scale %.3g)\n",
              std::string(benchmark_name(bench)).c_str(), scale);
  {
    const GraphPlan plan = make_benchmark_plan(bench, scale);
    std::printf("  %llu live objects, %llu live words\n",
                static_cast<unsigned long long>(plan.live_nodes()),
                static_cast<unsigned long long>(plan.live_words()));
  }

  std::printf("\n%5s %14s %8s %8s %9s %10s %10s\n", "cores", "cycles",
              "speedup", "empty%", "scan-stl%", "hdrlk-stl%", "load-stl%");
  MetricsRegistry reg;
  double base = 0.0;
  for (std::uint32_t cores : {1u, 2u, 4u, 8u, 16u}) {
    Workload w = make_benchmark(bench, scale);
    SimConfig cfg;
    cfg.coprocessor.num_cores = cores;
    Coprocessor coproc(cfg, *w.heap);
    const GcCycleStats s = coproc.collect();
    MetricsRegistry::Key key;
    key.benchmark = std::string(benchmark_name(bench));
    key.cores = cores;
    key.scale = scale;
    key.seed = 42;  // make_benchmark's default workload seed
    reg.record(key, cfg, s);
    const double total = static_cast<double>(s.total_cycles);
    if (cores == 1) base = total;
    std::printf("%5u %14llu %8.2f %7.2f%% %8.2f%% %9.2f%% %9.2f%%\n", cores,
                static_cast<unsigned long long>(s.total_cycles), base / total,
                100.0 * s.worklist_empty_fraction(),
                100.0 * s.mean_stall(StallReason::kScanLock) / total,
                100.0 * s.mean_stall(StallReason::kHeaderLock) / total,
                100.0 *
                    (s.mean_stall(StallReason::kBodyLoad) +
                     s.mean_stall(StallReason::kHeaderLoad)) /
                    total);
  }
  if (json) {
    if (!write_jsonl_file(json_path, reg.to_jsonl("scaling_study"))) {
      std::fprintf(stderr, "error: failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %zu metric record(s) to %s\n", reg.size(),
                json_path.c_str());
  }
  std::printf("\nTry: ./scaling_study search   (a workload with no "
              "object-level parallelism)\n");
  return 0;
}
