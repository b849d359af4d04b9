// Figure 5 — "Scaling behavior": speedup of the GC cycle as a function of
// the number of coprocessor cores (1, 2, 4, 8, 16), for all eight
// benchmarks, under the default memory model.
//
// The paper reports speedups of up to 7.4 at 8 cores and 12.1 at 16 cores
// for the parallel-rich benchmarks, while compress and search show no
// significant speedup (linear object graphs).
//
// Every run is profiled (src/profile/): under each speedup the table names
// the binding resource — the stall class holding the critical path — so a
// scaling knee reads as "sb-scan-wait took over at 8 cores" instead of a
// bare number. --profile-json exports the full attribution per
// configuration as hwgc-profile-v1 records (source "<bench>/<N>c").
#include <cstdio>

#include "bench_util.hpp"
#include "profile/critical_path.hpp"
#include "profile/profile_metrics.hpp"

int main(int argc, char** argv) {
  using namespace hwgc;
  using namespace hwgc::bench;
  Options opt = parse_options(argc, argv);
  print_header("Figure 5: GC cycle speedup vs number of GC cores", opt);

  MetricsRegistry reg;
  std::string profile_jsonl;
  const std::uint32_t core_counts[] = {1, 2, 4, 8, 16};
  std::printf("%-10s %12s |", "benchmark", "1-core cyc");
  for (auto c : core_counts) std::printf(" %14u", c);
  std::printf("\n");

  for (BenchmarkId id : opt.benchmarks) {
    double base = 0.0;
    std::printf("%-10s", std::string(benchmark_name(id)).c_str());
    std::fflush(stdout);
    for (auto cores : core_counts) {
      SimConfig cfg;
      cfg.coprocessor.num_cores = cores;
      CycleProfile profile;
      const GcCycleStats stats = run_collection(id, opt, cfg, &profile);
      reg.record(metrics_key(id, cores, opt), cfg, stats);
      const CriticalPathReport crit = critical_path(profile);
      if (cores == 1) {
        base = static_cast<double>(stats.total_cycles);
        std::printf(" %12llu |",
                    static_cast<unsigned long long>(stats.total_cycles));
      }
      std::printf(" %5.2f %-8.8s",
                  base / static_cast<double>(stats.total_cycles),
                  std::string(to_string(crit.binding)).c_str());
      std::fflush(stdout);
      ProfileAttribution attr;
      attr.source = std::string(benchmark_name(id)) + "/" +
                    std::to_string(cores) + "c";
      attr.add(profile);
      profile_jsonl += profile_attribution_jsonl(attr, "fig5_scaling");
    }
    std::printf("\n");
  }
  std::printf("\n(each cell: speedup + binding resource of the critical "
              "path; paper: db/javac-class benchmarks reach ~7.4x @8 and "
              "~12.1x @16; compress/search stay flat)\n");
  bool ok = maybe_write_jsonl(reg, opt, "fig5_scaling");
  ok = maybe_write(opt.profile_json, opt.profile_json_path,
                   "BENCH_fig5_scaling_profile.json", profile_jsonl) && ok;
  return ok ? 0 : 1;
}
