// heapd — multi-tenant heap service sweep driver.
//
// Stands up a HeapService (N sharded runtimes behind a seeded traffic
// stream and a pluggable GC scheduler) for every point of the sweep matrix
// (shards × scheduler × load) and drives `--requests` requests through it
// in virtual time. Per configuration it reports per-shard and fleet-wide
// request latency (p50/p99/p999, split exactly into service + queue + GC
// stall), collection counts, admission-control rejections and SLO
// violations — and it never trusts a run it did not verify: the
// conformance post-structure oracle runs after every collection cycle on
// every shard, and the final cross-shard shadow-graph walk must come back
// clean. Any oracle finding, read mismatch or validation diff makes heapd
// exit nonzero.
//
// The sweep recipes from EXPERIMENTS.md:
//   heapd --shards 8 --scheduler proactive --requests 50000 --seed 1
//   heapd --shards 2,4,8 --scheduler reactive,proactive,pauseless
//         --load 0.5,1.0,2.0 --requests 20000 --json BENCH_heapd.json
//   heapd --shards 4 --faults 2 --fault-shard 1 --requests 10000
//
// Options (space-separated values, fault_lab style):
//   --shards a,b,..     shard counts to sweep (default 4)
//   --scheduler a,b,..  policies: reactive proactive roundrobin
//                       pauseless (default reactive)
//   --load a,b,..       offered loads, open loop only (default 1.0)
//   --requests N        requests per configuration (default 20000)
//   --seed N            traffic seed (default 1)
//   --sessions N        concurrent sessions (default 64)
//   --heap-words N      per-shard semispace words (default 8192)
//   --cores N           GC cores per shard coprocessor (default 4)
//   --closed-loop       one outstanding request per session (default open)
//   --host-threads N    host threads running shard work (default 1 =
//                       serial; output is byte-identical either way).
//                       0 = one per hardware thread. Ignored while
//                       --trace-json is attached to a configuration
//   --fast-forward B    1/0: event-driven clock fast-forward in each
//                       shard's coprocessor (default 1; observationally
//                       invisible, see DESIGN.md §13)
//   --slo N             SLO bound in cycles (default 16384; 0 disables)
//   --max-backlog N     admission-control backlog bound (default 0 = none)
//   --faults N          seeded fault events per collection on the fault
//                       shard (runs it through the recovery machinery)
//   --fault-shard N     shard receiving the faults (default 0 with --faults)
//   --fault-seed N      fault plan seed (default 1)
//   --storm-fraction F  fault-storm: fraction of the fleet taking repeating
//                       per-collection faults (0 disables; storm shards run
//                       every collection through the recovery machinery)
//   --storm-events N    fault events per collection on stormed shards
//   --storm-seed N      storm plan seed (shard pick, phases, fault streams)
//   --storm-burst N     burst window length in per-shard arrivals (0 = the
//                       storm never pauses); --storm-calm N sets the gap
//   --storm-crashes N   crash every Nth active arrival on a stormed shard
//                       (requires --supervise)
//   --supervise         enable health supervision + checkpoint/restore
//   --deadline N        per-request deadline budget in cycles (enables
//                       failover routing + load shedding; 0 = none)
//   --retries N         max failover hops per request (default 2)
//   --backoff N         retry backoff in cycles per failover hop
//   --checkpoint-interval N  verified-clean cycles between checkpoints
//   --restore-cost N    virtual cycles a checkpoint restore occupies
//   --trace a,b,..      hwgc-trace-v1 files: sessions replay recorded op
//                       streams (trace-per-session, session % files) instead
//                       of seeded churn; read probes verify recorded digests.
//                       Incompatible with --supervise/--deadline (checkpoint
//                       restores would rewind roots under live trace cursors)
//   --trace-ops N       trace mode: baseline replay ops per request
//                       (default 16; scaled by request kind)
//   --no-oracle         skip the per-cycle post-structure oracle
//   --json PATH         write hwgc-bench-v1 (per-shard GC aggregates) +
//                       hwgc-service-v1 (latency/SLO) JSONL sections
//   --trace-json PATH   Chrome-trace timeline of the FIRST configuration
//   --profile           per-cycle stall attribution + request tracing
//                       (src/profile/): prints each shard's binding
//                       resource and the fleet's slowest request
//   --exemplars N       slow-request exemplars kept per shard and fleet-
//                       wide (default 4; implies nothing by itself)
//   --profile-json PATH hwgc-profile-v1 JSONL — per-shard attribution
//                       records + exemplar span trees for every sweep
//                       point (implies --profile)
//   --flame PATH        Chrome-trace flame view of the FIRST
//                       configuration's exemplar span trees (implies
//                       --profile)
//   -v, --verbose       per-shard table for every configuration
//
// Unknown options and malformed values exit 2 with a usage summary on
// stderr — a sweep driven from CI must never silently ignore a typo.
#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "profile/profile_metrics.hpp"
#include "profile/request_trace.hpp"
#include "profile/stall_class.hpp"
#include "service/heap_service.hpp"
#include "service/service_metrics.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_export.hpp"

namespace {

using namespace hwgc;

struct Options {
  std::vector<std::size_t> shards{4};
  std::vector<GcSchedulerKind> schedulers{GcSchedulerKind::kReactive};
  std::vector<double> loads{1.0};
  std::uint64_t requests = 20000;
  std::uint64_t seed = 1;
  std::uint32_t sessions = 64;
  Word heap_words = 8192;
  std::uint32_t cores = 4;
  bool closed_loop = false;
  std::size_t host_threads = 1;
  bool fast_forward = true;
  Cycle slo = 1u << 14;
  Cycle max_backlog = 0;
  std::uint32_t faults = 0;
  std::size_t fault_shard = ServiceConfig::kNoShard;
  std::uint64_t fault_seed = 1;
  FaultStormConfig storm{};
  ResilienceConfig resilience{};
  std::vector<std::string> trace_files;
  std::shared_ptr<const std::vector<Trace>> traces;
  std::uint32_t trace_ops = 16;
  bool oracle = true;
  std::string json_path;
  std::string trace_json;
  bool profile = false;
  std::uint32_t exemplars = 4;
  std::string profile_json;
  std::string flame;
  bool verbose = false;
};

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream is(csv);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: heapd [options]\n"
      "  sweep:   --shards a,b,..  --scheduler\n"
      "           reactive|proactive|roundrobin|pauseless,..\n"
      "           --load a,b,..  --requests N  --seed N  --sessions N\n"
      "  shard:   --heap-words N  --cores N  --closed-loop  --host-threads N\n"
      "           --fast-forward 0|1  --slo N  --max-backlog N  --no-oracle\n"
      "  faults:  --faults N  --fault-shard N  --fault-seed N\n"
      "  storm:   --storm-fraction F  --storm-events N  --storm-seed N\n"
      "           --storm-burst N  --storm-calm N  --storm-crashes N\n"
      "  resil.:  --supervise  --deadline N  --retries N  --backoff N\n"
      "           --checkpoint-interval N  --restore-cost N\n"
      "  trace:   --trace FILE,..  --trace-ops N\n"
      "  output:  --json PATH  --trace-json PATH  -v|--verbose\n"
      "  profile: --profile  --exemplars N  --profile-json PATH"
      "  --flame PATH\n"
      "see the header of examples/heapd.cpp for semantics\n");
}

[[noreturn]] void die_usage(const char* fmt, const char* a0) {
  std::fprintf(stderr, "heapd: ");
  std::fprintf(stderr, fmt, a0);
  std::fprintf(stderr, "\n");
  usage(stderr);
  std::exit(2);
}

/// Strict unsigned parse: the whole token must be a number. "12x", "",
/// "-3" and overflow all reject — a malformed sweep value must never
/// silently become 0 requests or shard 0.
std::uint64_t parse_u64(const char* flag, const std::string& s) {
  if (s.empty() || s.front() == '-') {
    die_usage("malformed value for %s (need an unsigned integer)",
              flag);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE) {
    die_usage("malformed value for %s (need an unsigned integer)", flag);
  }
  return v;
}

double parse_f64(const char* flag, const std::string& s) {
  if (s.empty()) die_usage("malformed value for %s (need a number)", flag);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE) {
    die_usage("malformed value for %s (need a number)", flag);
  }
  return v;
}

bool parse_args(int argc, char** argv, Options& opt) {
  const auto next = [&](int& i) -> const char* {
    if (i + 1 >= argc) die_usage("missing value for %s", argv[i]);
    return argv[++i];
  };
  const auto next_u64 = [&](int& i) {
    const char* flag = argv[i];
    return parse_u64(flag, next(i));
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--shards") {
      opt.shards.clear();
      const char* flag = argv[i];
      for (const auto& s : split_list(next(i))) {
        opt.shards.push_back(
            static_cast<std::size_t>(parse_u64(flag, s)));
      }
      if (opt.shards.empty()) die_usage("empty list for %s", flag);
    } else if (a == "--scheduler") {
      opt.schedulers.clear();
      const char* flag = argv[i];
      for (const auto& s : split_list(next(i))) {
        const auto k = parse_scheduler(s);
        if (!k.has_value()) die_usage("unknown scheduler \"%s\"", s.c_str());
        opt.schedulers.push_back(*k);
      }
      if (opt.schedulers.empty()) die_usage("empty list for %s", flag);
    } else if (a == "--load") {
      opt.loads.clear();
      const char* flag = argv[i];
      for (const auto& s : split_list(next(i))) {
        opt.loads.push_back(parse_f64(flag, s));
      }
      if (opt.loads.empty()) die_usage("empty list for %s", flag);
    } else if (a == "--requests") {
      opt.requests = next_u64(i);
    } else if (a == "--seed") {
      opt.seed = next_u64(i);
    } else if (a == "--sessions") {
      opt.sessions = static_cast<std::uint32_t>(next_u64(i));
    } else if (a == "--heap-words") {
      opt.heap_words = static_cast<Word>(next_u64(i));
    } else if (a == "--cores") {
      opt.cores = static_cast<std::uint32_t>(next_u64(i));
    } else if (a == "--closed-loop") {
      opt.closed_loop = true;
    } else if (a == "--host-threads") {
      opt.host_threads = static_cast<std::size_t>(next_u64(i));
      if (opt.host_threads == 0) {
        opt.host_threads =
            std::max(1u, std::thread::hardware_concurrency());
      }
    } else if (a == "--fast-forward") {
      opt.fast_forward = next_u64(i) != 0;
    } else if (a == "--slo") {
      opt.slo = next_u64(i);
    } else if (a == "--max-backlog") {
      opt.max_backlog = next_u64(i);
    } else if (a == "--faults") {
      opt.faults = static_cast<std::uint32_t>(next_u64(i));
    } else if (a == "--fault-shard") {
      opt.fault_shard = static_cast<std::size_t>(next_u64(i));
    } else if (a == "--fault-seed") {
      opt.fault_seed = next_u64(i);
    } else if (a == "--storm-fraction") {
      const char* flag = argv[i];
      opt.storm.shard_fraction = parse_f64(flag, next(i));
      if (opt.storm.shard_fraction < 0.0 || opt.storm.shard_fraction > 1.0) {
        die_usage("%s must be in [0, 1]", flag);
      }
    } else if (a == "--storm-events") {
      opt.storm.events_per_collection = static_cast<std::uint32_t>(next_u64(i));
    } else if (a == "--storm-seed") {
      opt.storm.seed = next_u64(i);
    } else if (a == "--storm-burst") {
      opt.storm.burst_requests = static_cast<std::uint32_t>(next_u64(i));
    } else if (a == "--storm-calm") {
      opt.storm.calm_requests = static_cast<std::uint32_t>(next_u64(i));
    } else if (a == "--storm-crashes") {
      opt.storm.crash_period = static_cast<std::uint32_t>(next_u64(i));
    } else if (a == "--supervise") {
      opt.resilience.supervise = true;
    } else if (a == "--deadline") {
      opt.resilience.deadline_cycles = next_u64(i);
    } else if (a == "--retries") {
      opt.resilience.max_retries = static_cast<std::uint32_t>(next_u64(i));
    } else if (a == "--backoff") {
      opt.resilience.retry_backoff = next_u64(i);
    } else if (a == "--checkpoint-interval") {
      opt.resilience.checkpoint_interval =
          static_cast<std::uint32_t>(next_u64(i));
    } else if (a == "--restore-cost") {
      opt.resilience.restore_cost = next_u64(i);
    } else if (a == "--trace") {
      const char* flag = argv[i];
      opt.trace_files = split_list(next(i));
      if (opt.trace_files.empty()) die_usage("empty list for %s", flag);
    } else if (a == "--trace-ops") {
      opt.trace_ops = static_cast<std::uint32_t>(next_u64(i));
      if (opt.trace_ops == 0) {
        die_usage("%s", "--trace-ops must be >= 1");
      }
    } else if (a == "--no-oracle") {
      opt.oracle = false;
    } else if (a == "--json") {
      opt.json_path = next(i);
    } else if (a == "--trace-json") {
      opt.trace_json = next(i);
    } else if (a == "--profile") {
      opt.profile = true;
    } else if (a == "--exemplars") {
      opt.exemplars = static_cast<std::uint32_t>(next_u64(i));
    } else if (a == "--profile-json") {
      opt.profile_json = next(i);
    } else if (a == "--flame") {
      opt.flame = next(i);
    } else if (a == "-v" || a == "--verbose") {
      opt.verbose = true;
    } else if (a == "--help" || a == "-h") {
      usage(stdout);
      std::exit(0);
    } else {
      die_usage("unknown option: %s", a.c_str());
    }
  }
  if (opt.faults > 0 && opt.fault_shard == ServiceConfig::kNoShard) {
    opt.fault_shard = 0;
  }
  if (opt.storm.crash_period > 0 && !opt.resilience.supervise) {
    die_usage("%s", "--storm-crashes requires --supervise (a crashed shard "
                    "must be quarantined and restored)");
  }
  if (!opt.profile_json.empty() || !opt.flame.empty()) opt.profile = true;
  if (!opt.trace_files.empty() && opt.resilience.enabled()) {
    die_usage("%s", "--trace is incompatible with --supervise/--deadline "
                    "(checkpoint restores would rewind the root table under "
                    "live trace cursors)");
  }
  return true;
}

ServiceConfig make_config(const Options& o, std::size_t shards,
                          GcSchedulerKind sched, double load) {
  ServiceConfig cfg;
  cfg.shards = shards;
  cfg.semispace_words = o.heap_words;
  cfg.sim.coprocessor.num_cores = o.cores;
  cfg.traffic.seed = o.seed;
  cfg.traffic.sessions = o.sessions;
  cfg.traffic.open_loop = !o.closed_loop;
  cfg.traffic.load = load;
  cfg.host_threads = o.host_threads;
  cfg.sim.coprocessor.fast_forward = o.fast_forward;
  cfg.scheduler = sched;
  cfg.max_backlog = o.max_backlog;
  cfg.slo_cycles = o.slo;
  cfg.oracle = o.oracle;
  if (o.faults > 0) {
    cfg.fault_shard = o.fault_shard;
    cfg.fault_events = o.faults;
    cfg.fault_seed = o.fault_seed;
  }
  cfg.storm = o.storm;
  cfg.resilience = o.resilience;
  cfg.traces = o.traces;
  cfg.trace_ops_per_request = o.trace_ops;
  cfg.profile.enabled = o.profile;
  cfg.profile.exemplars = o.exemplars;
  return cfg;
}

void print_stats_row(const char* label, const SloStats& s) {
  std::printf(
      "  %-6s %8llu req %8llu ok %6llu shed | p50 %6llu p99 %7llu "
      "p999 %7llu clk | %5llu gc (%llu sched, %llu recov) | %llu slo viol\n",
      label, static_cast<unsigned long long>(s.offered),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.rejected),
      static_cast<unsigned long long>(s.latency.percentile(0.50)),
      static_cast<unsigned long long>(s.latency.percentile(0.99)),
      static_cast<unsigned long long>(s.latency.percentile(0.999)),
      static_cast<unsigned long long>(s.collections),
      static_cast<unsigned long long>(s.scheduled_collections),
      static_cast<unsigned long long>(s.recovered_collections),
      static_cast<unsigned long long>(s.slo_violations));
}

/// One sweep point. Returns false when the oracle, a read probe or the
/// cross-shard validation found anything.
bool run_config(const Options& o, const ServiceConfig& cfg,
                MetricsRegistry& registry, std::string& service_jsonl,
                std::string& profile_jsonl,
                std::vector<RequestExemplar>* flame_out, TelemetryBus* bus) {
  HeapService service(cfg);
  if (bus != nullptr) service.set_telemetry(bus);
  service.serve(o.requests);

  const SloStats fleet = service.fleet_stats();
  std::string tags;
  if (cfg.fault_events > 0) tags += " (fault-injected)";
  if (service.storm().enabled()) {
    tags += " (storm: " + std::to_string(service.storm().stormed_count()) +
            "/" + std::to_string(cfg.shards) + " shards)";
  }
  if (service.resilient()) tags += " (supervised)";
  std::printf("shards=%zu scheduler=%s load=%.2f%s\n", cfg.shards,
              to_string(cfg.scheduler), cfg.traffic.load, tags.c_str());
  if (o.verbose) {
    for (std::size_t i = 0; i < service.shard_count(); ++i) {
      char label[24];
      std::snprintf(label, sizeof label, "s%zu", i);
      print_stats_row(label, service.shard_stats(i));
      if (service.resilient()) {
        std::printf("         health=%-11s", to_string(service.shard_health(i)));
        const SloStats& ss = service.shard_stats(i);
        std::printf(
            " served %llu retried %llu failed %llu | ckpt %llu restore %llu "
            "quar %llu degrade %llu crash %llu\n",
            static_cast<unsigned long long>(ss.served()),
            static_cast<unsigned long long>(ss.retried),
            static_cast<unsigned long long>(ss.failed),
            static_cast<unsigned long long>(ss.checkpoints),
            static_cast<unsigned long long>(ss.restores),
            static_cast<unsigned long long>(ss.quarantines),
            static_cast<unsigned long long>(ss.degradations),
            static_cast<unsigned long long>(ss.crashes));
      }
    }
  }
  print_stats_row("fleet", fleet);
  if (service.resilient()) {
    std::printf(
        "  fleet health=%s | served %llu retried %llu failed %llu shed %llu "
        "| ckpt %llu restore %llu quar %llu degrade %llu crash %llu | %zu "
        "health event(s)\n",
        to_string(service.fleet_health()),
        static_cast<unsigned long long>(fleet.served()),
        static_cast<unsigned long long>(fleet.retried),
        static_cast<unsigned long long>(fleet.failed),
        static_cast<unsigned long long>(fleet.rejected),
        static_cast<unsigned long long>(fleet.checkpoints),
        static_cast<unsigned long long>(fleet.restores),
        static_cast<unsigned long long>(fleet.quarantines),
        static_cast<unsigned long long>(fleet.degradations),
        static_cast<unsigned long long>(fleet.crashes),
        service.health_events().size());
  }

  // Cross-shard isolation proof: every shard's heap must still agree with
  // its shadow model, fault-injected neighbors or not.
  const std::size_t mismatches = service.validate_all_shards();
  bool ok = true;
  if (fleet.oracle_failures > 0) {
    ok = false;
    std::printf("  ORACLE: %llu post-structure failure(s)\n",
                static_cast<unsigned long long>(fleet.oracle_failures));
    for (std::size_t i = 0; i < service.shard_count(); ++i) {
      for (const auto& d : service.oracle_diagnostics(i)) {
        std::printf("    %s\n", d.c_str());
      }
    }
  }
  if (fleet.read_mismatches > 0) {
    ok = false;
    std::printf("  READS: %llu probe mismatch(es) against shadow graphs\n",
                static_cast<unsigned long long>(fleet.read_mismatches));
  }
  if (mismatches > 0) {
    ok = false;
    std::printf("  VALIDATION: %zu cross-shard mismatch(es)\n", mismatches);
  }
  if (fleet.checkpoint_digest_failures > 0) {
    ok = false;
    std::printf("  CHECKPOINT: %llu digest failure(s) on restore\n",
                static_cast<unsigned long long>(
                    fleet.checkpoint_digest_failures));
  }
  const std::string oracle =
      cfg.oracle ? "oracle on " + std::to_string(fleet.collections) + " cycles"
                 : std::string("oracle: off");
  std::printf("  verification: %s (%s, cross-shard walk clean=%s)\n\n",
              ok ? "OK" : "FAILED", oracle.c_str(),
              mismatches == 0 ? "yes" : "NO");

  if (!o.json_path.empty()) {
    // Per-shard GC aggregates land in the bench-v1 section...
    for (std::size_t i = 0; i < service.shard_count(); ++i) {
      MetricsRegistry::Key key;
      key.benchmark = "heapd/" + std::string(to_string(cfg.scheduler)) +
                      "/shard" + std::to_string(i) + "of" +
                      std::to_string(cfg.shards);
      key.cores = o.cores;
      key.scale = cfg.traffic.load;
      key.seed = o.seed;
      const Runtime& rt = service.runtime(i);
      for (const auto& s : rt.gc_history()) {
        registry.record(key, cfg.sim, s);
      }
    }
    // ...and latency/SLO accounting in the service-v1 section.
    service_jsonl += service_report_jsonl(service, "heapd");
  }
  if (service.profiling()) {
    std::printf("  profile: binding resource per shard:");
    for (std::size_t i = 0; i < service.shard_count(); ++i) {
      std::printf(" s%zu=%s", i,
                  std::string(to_string(service.shard_attribution(i).binding()))
                      .c_str());
    }
    std::printf("\n");
    const std::vector<RequestExemplar> slow = service.slowest_requests();
    if (!slow.empty()) {
      const RequestExemplar& e = slow.front();
      std::printf("  profile: slowest request #%llu on s%zu: %llu clk "
                  "(wait %llu, gc-inherited %llu, gc-own %llu, service %llu, "
                  "%u hop(s))\n\n",
                  static_cast<unsigned long long>(e.request_id), e.shard,
                  static_cast<unsigned long long>(e.latency()),
                  static_cast<unsigned long long>(e.start - e.arrival),
                  static_cast<unsigned long long>(e.inherited_stall),
                  static_cast<unsigned long long>(e.own_gc),
                  static_cast<unsigned long long>(e.service), e.hops);
    }
    if (!o.profile_json.empty()) {
      profile_jsonl += profile_report_jsonl(service, "heapd");
    }
    if (flame_out != nullptr) *flame_out = slow;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;

  if (!opt.trace_files.empty()) {
    auto loaded = std::make_shared<std::vector<Trace>>();
    for (const std::string& f : opt.trace_files) {
      try {
        loaded->push_back(load_trace(f));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "heapd: --trace %s: %s\n", f.c_str(), e.what());
        return 2;
      }
    }
    opt.traces = std::move(loaded);
    std::printf("trace mode: %zu trace(s), sessions pinned session %% %zu\n",
                opt.trace_files.size(), opt.trace_files.size());
  }

  MetricsRegistry registry;
  std::string service_jsonl;
  std::string profile_jsonl;
  std::vector<RequestExemplar> flame;
  TelemetryBus bus;
  bool all_ok = true;
  bool first = true;

  for (std::size_t shards : opt.shards) {
    for (GcSchedulerKind sched : opt.schedulers) {
      for (double load : opt.loads) {
        const ServiceConfig cfg = make_config(opt, shards, sched, load);
        TelemetryBus* attach =
            (first && !opt.trace_json.empty()) ? &bus : nullptr;
        std::vector<RequestExemplar>* flame_out =
            (first && !opt.flame.empty()) ? &flame : nullptr;
        first = false;
        all_ok &= run_config(opt, cfg, registry, service_jsonl, profile_jsonl,
                             flame_out, attach);
      }
    }
  }

  if (!opt.trace_json.empty()) {
    if (!write_chrome_trace(bus, opt.trace_json)) {
      std::fprintf(stderr, "error: failed to write %s\n",
                   opt.trace_json.c_str());
      return 1;
    }
    std::printf("wrote fleet timeline (%zu epochs, %zu spans) to %s\n",
                bus.epochs().size(), bus.spans().size(),
                opt.trace_json.c_str());
  }
  if (!opt.json_path.empty()) {
    if (!write_jsonl_file(opt.json_path,
                          registry.to_jsonl("heapd") + service_jsonl)) {
      std::fprintf(stderr, "error: failed to write %s\n",
                   opt.json_path.c_str());
      return 1;
    }
    std::printf("wrote %zu bench record(s) + service records to %s\n",
                registry.size(), opt.json_path.c_str());
  }
  if (!opt.profile_json.empty()) {
    if (!write_jsonl_file(opt.profile_json, profile_jsonl)) {
      std::fprintf(stderr, "error: failed to write %s\n",
                   opt.profile_json.c_str());
      return 1;
    }
    std::printf("wrote profile attribution + exemplar spans to %s\n",
                opt.profile_json.c_str());
  }
  if (!opt.flame.empty()) {
    if (!write_exemplar_flame(flame, opt.flame)) {
      std::fprintf(stderr, "error: failed to write %s\n", opt.flame.c_str());
      return 1;
    }
    std::printf("wrote %zu exemplar span tree(s) to %s\n", flame.size(),
                opt.flame.c_str());
  }
  return all_ok ? 0 : 1;
}
