// bench_service — the perf-baseline harness of the multi-tenant heap
// service (flags: bench_service --help).
//
// Runs an 8-shard closed-loop sweep twice on a memory-latency-bound
// configuration — the reference engine (one host thread, fast-forward off)
// and the tuned engine (fast-forward on) — and reports host-side
// throughput: simulated-cycles/second and requests/second. Both runs must
// produce identical simulated results (the fast-forward and
// parallel-conductor equivalence the test suite enforces); the harness
// exits nonzero if they diverge, and, with --min-speedup, if the tuned
// engine's simulated-cycles/sec gain falls short. With --json[=path] the
// records land as hwgc-bench-v1 JSONL (schema fields from MetricsRegistry
// plus appended host_* / *_per_sec throughput fields — the schema is
// append-only, so bench_validate accepts them).
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "service/heap_service.hpp"
#include "sim/flags.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace hwgc;

struct SweepOptions {
  std::size_t shards = 8;
  std::uint64_t requests = 6000;
  double min_speedup = 0.0;  ///< 0 = report only, no gate
  bool write_json = false;
  std::string json_path = "BENCH_service.json";
};

/// The measured configuration: closed-loop sessions driving every shard,
/// few cores and Figure-6 memory latency so collections are dominated by
/// quiescent memory-wait windows — the regime fast-forward targets (and
/// the regime a small heap per shard keeps collections frequent in).
ServiceConfig sweep_config(const SweepOptions& opt, std::size_t host_threads,
                           bool fast_forward) {
  ServiceConfig cfg;
  cfg.shards = opt.shards;
  cfg.semispace_words = 4096;
  cfg.oracle = false;
  cfg.scheduler = GcSchedulerKind::kReactive;
  cfg.traffic.open_loop = false;
  cfg.traffic.sessions = static_cast<std::uint32_t>(4 * opt.shards);
  cfg.sim.coprocessor.num_cores = 2;
  cfg.sim.memory.latency = 200;
  cfg.sim.memory.header_latency = 500;
  cfg.host_threads = host_threads;
  cfg.sim.coprocessor.fast_forward = fast_forward;
  return cfg;
}

struct SweepResult {
  double elapsed_sec = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t collections = 0;
  Cycle sim_gc_cycles = 0;    ///< simulated cycles spent collecting
  Cycle virtual_cycles = 0;   ///< end-to-end simulated latency volume
  std::vector<GcCycleStats> samples;  ///< one per collection, every shard

  double requests_per_sec() const {
    return elapsed_sec > 0.0 ? static_cast<double>(completed) / elapsed_sec
                             : 0.0;
  }
  double sim_cycles_per_sec() const {
    return elapsed_sec > 0.0
               ? static_cast<double>(sim_gc_cycles) / elapsed_sec
               : 0.0;
  }
};

SweepResult run_sweep(const ServiceConfig& cfg, std::uint64_t requests) {
  HeapService service(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  service.serve(requests);
  const auto t1 = std::chrono::steady_clock::now();
  SweepResult r;
  r.elapsed_sec = std::chrono::duration<double>(t1 - t0).count();
  const SloStats fleet = service.fleet_stats();
  r.completed = fleet.completed;
  r.collections = fleet.collections;
  r.sim_gc_cycles = fleet.gc_cycle_total;
  r.virtual_cycles = fleet.latency.sum();
  for (std::size_t s = 0; s < service.shard_count(); ++s) {
    const auto& history = service.runtime(s).gc_history();
    r.samples.insert(r.samples.end(), history.begin(), history.end());
  }
  return r;
}

/// Inserts extra fields into each JSONL line just before its closing '}',
/// keyed by the line's "benchmark" value. The hwgc-bench-v1 schema is
/// append-only, so the validator accepts the result.
std::string append_fields(
    const std::string& jsonl,
    const std::map<std::string, std::string>& extras_by_benchmark) {
  std::string out;
  std::size_t pos = 0;
  while (pos < jsonl.size()) {
    std::size_t eol = jsonl.find('\n', pos);
    if (eol == std::string::npos) eol = jsonl.size();
    std::string line = jsonl.substr(pos, eol - pos);
    for (const auto& [bench, extra] : extras_by_benchmark) {
      if (line.find("\"benchmark\":\"" + bench + "\"") != std::string::npos &&
          !line.empty() && line.back() == '}') {
        line.pop_back();
        line += extra + "}";
        break;
      }
    }
    out += line + "\n";
    pos = eol + 1;
  }
  return out;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string throughput_fields(const SweepResult& r, std::size_t host_threads,
                              bool fast_forward) {
  std::string extra;
  extra += ",\"host_elapsed_sec\":" + fmt(r.elapsed_sec);
  extra += ",\"host_threads\":" + std::to_string(host_threads);
  extra += ",\"fast_forward\":" + std::to_string(fast_forward ? 1 : 0);
  extra += ",\"requests_completed\":" + std::to_string(r.completed);
  extra += ",\"requests_per_sec\":" + fmt(r.requests_per_sec());
  extra += ",\"sim_gc_cycles\":" + std::to_string(r.sim_gc_cycles);
  extra += ",\"sim_cycles_per_sec\":" + fmt(r.sim_cycles_per_sec());
  return extra;
}

int run_perf_baseline(const SweepOptions& opt) {
  std::printf("## hwgc perf baseline: %zu-shard closed-loop sweep, %llu"
              " requests\n",
              opt.shards, static_cast<unsigned long long>(opt.requests));

  const ServiceConfig base_cfg = sweep_config(opt, 1, false);
  const ServiceConfig tuned_cfg = sweep_config(opt, 1, true);
  const SweepResult base = run_sweep(base_cfg, opt.requests);
  const SweepResult tuned = run_sweep(tuned_cfg, opt.requests);

  // The tuned engine must be an optimization, not a different simulation:
  // identical simulated outcome or the numbers mean nothing.
  if (base.completed != tuned.completed ||
      base.collections != tuned.collections ||
      base.sim_gc_cycles != tuned.sim_gc_cycles ||
      base.virtual_cycles != tuned.virtual_cycles) {
    std::fprintf(stderr,
                 "error: tuned run diverged from baseline "
                 "(completed %llu vs %llu, collections %llu vs %llu, "
                 "gc cycles %llu vs %llu)\n",
                 static_cast<unsigned long long>(base.completed),
                 static_cast<unsigned long long>(tuned.completed),
                 static_cast<unsigned long long>(base.collections),
                 static_cast<unsigned long long>(tuned.collections),
                 static_cast<unsigned long long>(base.sim_gc_cycles),
                 static_cast<unsigned long long>(tuned.sim_gc_cycles));
    return 1;
  }

  const double speedup = base.elapsed_sec > 0.0 && tuned.elapsed_sec > 0.0
                             ? base.elapsed_sec / tuned.elapsed_sec
                             : 0.0;
  std::printf("  baseline (ticked):       %8.3f s  %12.0f sim-cycles/s"
              "  %9.0f req/s\n",
              base.elapsed_sec, base.sim_cycles_per_sec(),
              base.requests_per_sec());
  std::printf("  tuned (fast-forward):    %8.3f s  %12.0f sim-cycles/s"
              "  %9.0f req/s\n",
              tuned.elapsed_sec, tuned.sim_cycles_per_sec(),
              tuned.requests_per_sec());
  std::printf("  speedup: %.2fx (simulated results bit-identical; %llu"
              " collections, %llu simulated GC cycles)\n",
              speedup, static_cast<unsigned long long>(base.collections),
              static_cast<unsigned long long>(base.sim_gc_cycles));

  // hwgc-bench-v1 records: one per engine, aggregated over every
  // collection on every shard, with appended throughput fields.
  MetricsRegistry reg;
  const auto record_all = [&reg](const char* name, const ServiceConfig& cfg,
                                 const SweepResult& r) {
    MetricsRegistry::Key key;
    key.benchmark = name;
    key.cores = cfg.sim.coprocessor.num_cores;
    key.scale = static_cast<double>(cfg.shards);
    key.seed = cfg.traffic.seed;
    for (const GcCycleStats& s : r.samples) reg.record(key, cfg.sim, s);
  };
  record_all("service-closed-loop-baseline", base_cfg, base);
  record_all("service-closed-loop-tuned", tuned_cfg, tuned);

  std::map<std::string, std::string> extras;
  extras["service-closed-loop-baseline"] =
      throughput_fields(base, base_cfg.host_threads, false);
  extras["service-closed-loop-tuned"] =
      throughput_fields(tuned, tuned_cfg.host_threads, true) +
      ",\"speedup_vs_ticked\":" + fmt(speedup);
  const std::string jsonl = append_fields(reg.to_jsonl("service"), extras);

  if (opt.write_json) {
    if (!write_jsonl_file(opt.json_path, jsonl)) {
      std::fprintf(stderr, "error: cannot write %s\n", opt.json_path.c_str());
      return 1;
    }
    std::printf("wrote %zu metric record(s) to %s\n", reg.size(),
                opt.json_path.c_str());
  }

  if (opt.min_speedup > 0.0 && speedup < opt.min_speedup) {
    std::fprintf(stderr,
                 "error: fast-forward speedup %.2fx below required %.2fx\n",
                 speedup, opt.min_speedup);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  SweepOptions opt;
  Flags t("bench_service",
          "the 8-shard perf-baseline harness: ticked vs fast-forward engine,\n"
          "bit-identical simulated results required");
  t.opt_value("--json", opt.write_json, opt.json_path,
              "write the records as hwgc-bench-v1 JSONL\n"
              "(default path BENCH_service.json)");
  t.value("--shards", opt.shards, "fleet size of the sweep");
  t.value("--requests", opt.requests, "requests per engine run");
  t.value("--min-speedup", opt.min_speedup,
          "fail when the fast-forward gain falls short (0 = report only)");
  t.parse(argc, argv);
  return run_perf_baseline(opt);
}
