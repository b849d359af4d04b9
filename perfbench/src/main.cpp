// hwgc_perfbench — the repository's benchmark program (see ../README.md).
//
//   hwgc_perfbench --workload fig5-collect|serve-churn|serve-lisp --seed N
//                  --seconds S --trace 0|1 --lisp-trace PATH --out-dir DIR
//
// Runs the named workload from the seed, checks its outputs, prints every
// metric by name with its unit, and ends with one JSON line:
// {"correct", "attempted", "failed", "metrics"} — the end-to-end metrics
// with --trace 0, the per-layer metrics of the traced pass with --trace 1.
// Exit status: 0 when every check passed and no operation failed, 1 when
// any did (the result line is still printed), 2 on bad arguments.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json; run.py checks the printed keys against it.
constexpr MetricDef kEndToEnd[] = {
    {"run_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"gc_cycles", "cycles"},
    {"lat_p50_clk", "cycles"},
    {"lat_p99_clk", "cycles"},
    {"lat_p999_clk", "cycles"},
    {"slo_miss_frac", "fraction"},
};

constexpr MetricDef kPerLayer[] = {
    {"workloads.build_s", "s"},
    {"workloads.live_frac_max", "fraction"},
    {"core.collect_s", "s"},
    {"core.ns_per_sim_cycle", "ns/cycle"},
    {"core.gc_cycles_1c", "cycles"},
    {"core.gc_cycles_2c", "cycles"},
    {"core.gc_cycles_4c", "cycles"},
    {"core.gc_cycles_8c", "cycles"},
    {"core.gc_cycles_16c", "cycles"},
    {"core.worklist_empty_frac_16c", "fraction"},
    {"core.speedup_8c_geomean", "x"},
    {"core.speedup_16c_geomean", "x"},
    {"core.stall_share.scan_lock", "fraction"},
    {"core.stall_share.free_lock", "fraction"},
    {"core.stall_share.header_lock", "fraction"},
    {"core.stall_share.barrier", "fraction"},
    {"mem.stall_share.header_load", "fraction"},
    {"mem.stall_share.body_load", "fraction"},
    {"mem.stall_share.header_store", "fraction"},
    {"mem.stall_share.body_store", "fraction"},
    {"mem.requests", "count"},
    {"mem.fifo_hit_frac", "fraction"},
    {"mem.fifo_overflows", "count"},
    {"heap.words_copied", "words"},
    {"service.construct_s", "s"},
    {"service.warmup_s", "s"},
    {"service.request_s", "s"},
    {"service.pool_speedup", "x"},
    {"service.collections_per_kreq", "1/kreq"},
    {"service.gc_cycles_per_collection", "cycles"},
    {"service.latency_share.service", "fraction"},
    {"service.latency_share.queue", "fraction"},
    {"service.latency_share.stall", "fraction"},
    {"conformance.snapshot_s", "s"},
    {"conformance.oracle_s", "s"},
    {"trace.load_s", "s"},
    {"bench.tracing_overhead", "x"},
    {"bench.span_coverage", "fraction"},
    {"accuracy.speedup_8c_max_abs_err", "fraction"},
    {"accuracy.speedup_16c_max_abs_err", "fraction"},
    {"accuracy.table1_empty_16c_abs_err.compress", "pp"},
    {"accuracy.table1_empty_16c_abs_err.cup", "pp"},
    {"accuracy.table1_empty_16c_abs_err.db", "pp"},
    {"accuracy.table1_empty_16c_abs_err.javac", "pp"},
    {"accuracy.table1_empty_16c_abs_err.javacc", "pp"},
    {"accuracy.table1_empty_16c_abs_err.jflex", "pp"},
    {"accuracy.table1_empty_16c_abs_err.jlisp", "pp"},
    {"accuracy.table1_empty_16c_abs_err.search", "pp"},
    {"accuracy.table1_mean_abs_err", "pp"},
    {"accuracy.table2.javac_header_lock_abs_err", "pp"},
    {"accuracy.table2.cup_scan_lock_abs_err", "pp"},
    {"accuracy.table2.cup_header_load_abs_err", "pp"},
    {"accuracy.table2.db_header_load_abs_err", "pp"},
    {"accuracy.table2.db_body_load_abs_err", "pp"},
    {"accuracy.table2.javacc_header_load_abs_err", "pp"},
    {"accuracy.table2.javacc_body_load_abs_err", "pp"},
    {"accuracy.table2_mean_abs_err", "pp"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "hwgc_perfbench: %s\nusage: hwgc_perfbench --workload "
               "fig5-collect|serve-churn|serve-lisp --seed N --seconds S "
               "--trace 0|1 --lisp-trace PATH --out-dir DIR\n",
               why.c_str());
  std::exit(2);
}

RunOptions parse(int argc, char** argv) {
  RunOptions o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("bad --seed " + v);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0.0)) {
        usage("bad --seconds " + v);
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace " + v);
      o.trace = v == "1";
    } else if (a == "--lisp-trace") {
      o.lisp_trace = v;
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else {
      usage("unknown option " + a);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (o.workload != "fig5-collect" && o.workload != "serve-churn" &&
      o.workload != "serve-lisp") {
    usage("unknown workload " + o.workload);
  }
  return o;
}

/// Prints `defs` in table order (human lines) and returns them as the JSON
/// metrics object. A metric the workload bypasses reads 0.
std::string report(const char* title, const MetricDef* defs, std::size_t n,
                   const std::map<std::string, double>& values, bool& ok) {
  std::printf("%s\n", title);
  std::string json = "{";
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = values.find(defs[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      std::printf("  error: %s is not finite\n", defs[i].name);
      ok = false;
      v = 0.0;
    }
    std::printf("  %-44s %.6g %s\n", defs[i].name, v, defs[i].unit);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", defs[i].name, v, defs[i].unit);
    json += buf;
  }
  for (const auto& [name, v] : values) {
    bool known = false;
    for (std::size_t i = 0; i < n; ++i) known = known || name == defs[i].name;
    if (!known) {
      std::printf("  error: unlisted metric %s\n", name.c_str());
      ok = false;
    }
  }
  return json + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions opt = parse(argc, argv);
  std::printf("hwgc_perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  Outcome out;
  try {
    out = opt.workload == "fig5-collect" ? run_fig5(opt) : run_serve(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hwgc_perfbench: %s\n", e.what());
    return 1;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out.end_to_end["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;

  for (const std::string& line : out.info) std::printf("%s\n", line.c_str());
  bool ok = out.errors.empty();
  for (const std::string& e : out.errors) std::printf("FAIL: %s\n", e.c_str());
  const std::string e2e =
      report(opt.trace ? "end-to-end (untraced passes):"
                       : "end-to-end (medians over timed passes):",
             kEndToEnd, std::size(kEndToEnd), out.end_to_end, ok);
  std::string layers;
  if (opt.trace) {
    const double coverage = out.per_layer["bench.span_coverage"];
    if (coverage < kMinSpanCoverage) {
      std::printf("FAIL: spans cover %.4f of the traced wall time (< %.2f)\n",
                  coverage, kMinSpanCoverage);
      ok = false;
    }
    layers = report("per-layer (traced pass; 0 = layer bypassed):", kPerLayer,
                    std::size(kPerLayer), out.per_layer, ok);
  } else {
    for (const auto& [name, v] : out.per_layer) {
      std::printf("  %-44s %.6g\n", name.c_str(), v);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              ok ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              opt.trace ? layers.c_str() : e2e.c_str());
  return ok && out.failed == 0 ? 0 : 1;
}
