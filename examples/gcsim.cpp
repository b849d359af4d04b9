// gcsim — the command-line front end to the coprocessor simulator.
//
// Runs one collection cycle of any workload under any configuration and
// prints the full measurement report (all counters behind the paper's
// Tables I/II), optionally as CSV for scripting.
//
// Flags: `gcsim --help`. --workload takes a benchmark name or
// random:<seed>. --profile prints the critical-path summary (binding
// resource, knee run) and the per-class cycle shares; with --trace-json
// the binding stream is merged into the timeline as "crit:" notes, and it
// is ignored by --concurrent. --trace-json exports the cycle's full
// telemetry timeline (phases, per-core activity/stall spans, lock holds,
// FIFO/memory counters, merged signal samples) as Chrome-trace JSON — load
// it in ui.perfetto.dev.
#include <cstdio>
#include <optional>
#include <string>

#include "core/concurrent_cycle.hpp"
#include "core/coprocessor.hpp"
#include "heap/verifier.hpp"
#include "profile/critical_path.hpp"
#include "profile/profile_metrics.hpp"
#include "sim/flags.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_export.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/random_graph.hpp"

using namespace hwgc;

namespace {

struct CliOptions {
  std::string workload = "db";
  double scale = 0.25;
  std::uint64_t seed = 42;
  SimConfig sim;
  bool concurrent = false;
  bool csv = false;
  bool profile = false;
  bool verify = false;
  std::string trace_json;  ///< empty: no timeline export
  std::string bench_json;  ///< empty: no metrics export
};

CliOptions parse(int argc, char** argv) {
  CliOptions o;
  o.sim.coprocessor.num_cores = 8;
  Flags t("gcsim", "runs one collection cycle and prints the measurement "
                   "report");
  const Codec<BenchmarkId> bench = choice(
      parse_benchmark, [](BenchmarkId id) { return benchmark_name(id); },
      all_benchmarks());
  Codec<std::string> workload = codec_for<std::string>();
  workload.parse = [bench](const std::string& s) -> std::optional<std::string> {
    const bool random = s.rfind("random:", 0) == 0 &&
                        parse_number<std::uint64_t>(s.substr(7)).has_value();
    if (!random && !bench.parse(s)) return std::nullopt;
    return s;
  };
  workload.need = "one of " + bench.meta + " or random:<seed>";
  t.value("--workload", o.workload, workload,
          bench.meta + "\nor random:<seed>")
      .metavar("NAME");
  t.value("--scale", o.scale, "live-set scale");
  t.value("--seed", o.seed, "workload seed");
  t.value("--cores", o.sim.coprocessor.num_cores, "GC cores");
  t.value("--latency", o.sim.memory.latency,
          "body memory latency in cycles");
  t.value("--header-latency", o.sim.memory.header_latency,
          "header transaction latency");
  t.value("--bandwidth", o.sim.memory.bandwidth_per_cycle,
          "accepted requests/cycle");
  t.value("--fifo", o.sim.coprocessor.header_fifo_capacity,
          "header FIFO capacity");
  t.value("--header-cache", o.sim.memory.header_cache_entries,
          "header cache entries (0 = off)");
  t.toggle("--early-read", o.sim.coprocessor.markbit_early_read,
           "enable the mark-bit early-read optimization");
  t.toggle("--subobject", o.sim.coprocessor.subobject_copy,
           "enable cache-line-granularity copying");
  t.toggle("--concurrent", o.concurrent,
           "run the mutator concurrently (read barrier)");
  t.toggle("--csv", o.csv, "one CSV row instead of the report");
  t.toggle("--profile", o.profile,
           "per-cycle stall attribution: critical-path summary and\n"
           "per-class cycle shares (ignored by --concurrent)");
  t.toggle("--verify", o.verify,
           "check the heap against a pre-cycle snapshot");
  t.value("--trace-json", o.trace_json,
          "export the cycle's telemetry timeline as Chrome-trace JSON")
      .metavar("PATH");
  t.value("--bench-json", o.bench_json,
          "emit the run's metrics as hwgc-bench-v1 JSONL")
      .metavar("PATH");
  t.parse(argc, argv);
  if (o.sim.coprocessor.num_cores == 0) t.fail("--cores must be >= 1");
  if (const auto e = scale_error(o.scale); !e.empty()) t.fail("--scale " + e);
  return o;
}

Workload build(const CliOptions& o) {
  if (const auto id = parse_benchmark(o.workload)) {
    return make_benchmark(*id, o.scale, o.seed);
  }
  // parse() admitted only benchmark names and random:<seed>.
  RandomGraphConfig cfg;
  cfg.nodes = static_cast<std::uint32_t>(2000 * o.scale * 4);
  return materialize(
      make_random_plan(*parse_number<std::uint64_t>(o.workload.substr(7)), cfg));
}

void print_report(const CliOptions& o, const GcCycleStats& s) {
  if (o.csv) {
    std::printf("workload,cores,cycles,objects,words,empty_frac,scan_stall,"
                "free_stall,hdrlock_stall,bodyload_stall,bodystore_stall,"
                "hdrload_stall,hdrstore_stall,fifo_hits,fifo_misses,"
                "fifo_overflows,mem_requests\n");
    std::printf("%s,%u,%llu,%llu,%llu,%.6f", o.workload.c_str(),
                o.sim.coprocessor.num_cores,
                static_cast<unsigned long long>(s.total_cycles),
                static_cast<unsigned long long>(s.objects_copied),
                static_cast<unsigned long long>(s.words_copied),
                s.worklist_empty_fraction());
    for (const StallReason r :
         {StallReason::kScanLock, StallReason::kFreeLock,
          StallReason::kHeaderLock, StallReason::kBodyLoad,
          StallReason::kBodyStore, StallReason::kHeaderLoad,
          StallReason::kHeaderStore}) {
      std::printf(",%.0f", s.mean_stall(r));
    }
    std::printf(",%llu,%llu,%llu,%llu\n",
                static_cast<unsigned long long>(s.fifo_hits),
                static_cast<unsigned long long>(s.fifo_misses),
                static_cast<unsigned long long>(s.fifo_overflows),
                static_cast<unsigned long long>(s.mem_requests));
    return;
  }
  std::printf("collection cycle: %llu clock cycles (%s, %s)\n",
              static_cast<unsigned long long>(s.total_cycles),
              o.workload.c_str(), o.sim.summary().c_str());
  std::printf("  objects copied     : %llu (%llu words)\n",
              static_cast<unsigned long long>(s.objects_copied),
              static_cast<unsigned long long>(s.words_copied));
  std::printf("  pointers forwarded : %llu\n",
              static_cast<unsigned long long>(s.pointers_forwarded));
  std::printf("  worklist empty     : %.2f%% of cycles\n",
              100.0 * s.worklist_empty_fraction());
  std::printf("  header FIFO        : %llu hits, %llu misses, %llu overflows\n",
              static_cast<unsigned long long>(s.fifo_hits),
              static_cast<unsigned long long>(s.fifo_misses),
              static_cast<unsigned long long>(s.fifo_overflows));
  std::printf("  memory requests    : %llu\n",
              static_cast<unsigned long long>(s.mem_requests));
  std::printf("  mean stalls/core (%% of cycle):\n");
  for (const StallReason r :
       {StallReason::kScanLock, StallReason::kFreeLock,
        StallReason::kHeaderLock, StallReason::kBodyLoad,
        StallReason::kBodyStore, StallReason::kHeaderLoad,
        StallReason::kHeaderStore}) {
    std::printf("    %-12s %10.0f (%5.2f%%)\n",
                std::string(to_string(r)).c_str(), s.mean_stall(r),
                100.0 * s.mean_stall(r) /
                    static_cast<double>(s.total_cycles));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions o = parse(argc, argv);
  Workload w = build(o);
  std::printf("workload %s: %llu live objects, %llu live words, semispace "
              "%u words\n",
              o.workload.c_str(),
              static_cast<unsigned long long>(w.live_objects),
              static_cast<unsigned long long>(w.live_words),
              w.heap->layout().semispace_words());

  if (o.concurrent) {
    ConcurrentCycle::Config cfg;
    cfg.sim = o.sim;
    ConcurrentCycle cycle(cfg, *w.heap);
    const ConcurrentStats s = cycle.run();
    print_report(o, s.gc);
    std::printf("  --- concurrent mutator ---\n");
    std::printf("  ops executed       : %llu (%llu allocations)\n",
                static_cast<unsigned long long>(s.mutator_ops),
                static_cast<unsigned long long>(s.mutator_allocations));
    std::printf("  barrier activity   : %llu gray reads, %llu evacuations\n",
                static_cast<unsigned long long>(s.barrier_gray_reads),
                static_cast<unsigned long long>(s.barrier_evacuations));
    std::printf("  longest pause      : %llu cycles\n",
                static_cast<unsigned long long>(s.longest_pause));
    std::printf("  shadow validation  : %zu mismatches\n",
                s.validation_mismatches);
    return s.validation_mismatches == 0 ? 0 : 1;
  }

  const HeapSnapshot pre =
      o.verify ? HeapSnapshot::capture(*w.heap) : HeapSnapshot{};
  Coprocessor coproc(o.sim, *w.heap);
  TelemetryBus bus;
  SignalTrace signals;
  CycleProfiler profiler;
  const bool tracing = !o.trace_json.empty();
  ObserverFanout observers;
  observers.add(tracing ? &signals : nullptr);
  observers.add(tracing ? &bus : nullptr);
  observers.add(o.profile ? &profiler : nullptr);
  const GcCycleStats s = coproc.collect(observers.target());
  print_report(o, s);
  if (o.profile) {
    const CycleProfile p = profiler.take_profile();
    std::printf("  critical path      : %s\n",
                critical_path(p).summary().c_str());
    ProfileAttribution attr;
    attr.source = o.workload;
    attr.add(p);
    std::printf("  cycle attribution (%% of core cycles):\n");
    for (std::size_t k = 0; k < kStallClassCount; ++k) {
      const StallClass cls = static_cast<StallClass>(k);
      if (attr.cls[k] == 0) continue;
      std::printf("    %-19s %12llu (%5.2f%%)\n",
                  std::string(to_string(cls)).c_str(),
                  static_cast<unsigned long long>(attr.cls[k]),
                  100.0 * attr.share(cls));
    }
    if (tracing) annotate_critical_path(signals, p);
  }
  if (o.verify) {
    const VerifyResult res = verify_collection(pre, *w.heap);
    std::printf("verifier: %s\n", res.summary().c_str());
    if (!res.ok) return 1;
  }
  if (tracing) {
    ChromeTraceOptions topt;
    topt.signals = &signals;
    if (!write_chrome_trace(bus, o.trace_json, topt)) {
      std::fprintf(stderr, "error: failed to write %s\n", o.trace_json.c_str());
      return 1;
    }
    std::printf("wrote timeline (%zu spans, %zu instants, %zu counter "
                "samples) to %s\n",
                bus.spans().size(), bus.instants().size(),
                bus.counters().size(), o.trace_json.c_str());
  }
  if (!o.bench_json.empty()) {
    MetricsRegistry reg;
    MetricsRegistry::Key key;
    key.benchmark = o.workload;
    key.cores = o.sim.coprocessor.num_cores;
    key.scale = o.scale;
    key.seed = o.seed;
    reg.record(key, o.sim, s);
    if (!write_jsonl_file(o.bench_json, reg.to_jsonl("gcsim"))) {
      std::fprintf(stderr, "error: failed to write %s\n", o.bench_json.c_str());
      return 1;
    }
    std::printf("wrote metrics record to %s\n", o.bench_json.c_str());
  }
  return 0;
}
