// Scaling study: reproduce the paper's headline experiment interactively.
//
// Usage: ./examples/scaling_study [benchmark] [scale] [--json[=path]]
// (see --help).
//
// Prints the collection-cycle duration and speedup at 1..16 cores plus
// the per-configuration stall anatomy, so the trade-offs behind Figure 5
// are visible benchmark by benchmark.
#include <cstdio>
#include <string>

#include "core/coprocessor.hpp"
#include "sim/flags.hpp"
#include "telemetry/metrics.hpp"
#include "workloads/benchmarks.hpp"

int main(int argc, char** argv) {
  using namespace hwgc;

  bool json = false;
  std::string json_path = "BENCH_scaling_study.json";
  BenchmarkId bench = BenchmarkId::kDb;
  double scale = 0.25;
  Flags t("scaling_study", "collection-cycle duration, speedup and stall "
                           "anatomy at 1..16 cores");
  t.value("benchmark", bench,
          choice(parse_benchmark,
                 [](BenchmarkId id) { return benchmark_name(id); },
                 all_benchmarks()),
          "workload (db scales best)");
  t.value("scale", scale, "live-set scale factor");
  t.opt_value("--json", json, json_path,
              "also write the sweep as hwgc-bench-v1 JSONL\n"
              "(default path BENCH_scaling_study.json)");
  t.parse(argc, argv);

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
