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
// every shard, and the final cross-shard walk of every session's mirror
// must come back clean. Any oracle finding, read mismatch or validation
// diff makes heapd exit nonzero.
//
// The sweep recipes from EXPERIMENTS.md:
//   heapd --shards 8 --scheduler proactive --requests 50000 --seed 1
//   heapd --shards 2,4,8 --scheduler reactive,proactive,pauseless
//         --load 0.5,1.0,2.0 --requests 20000 --json BENCH_heapd.json
//   heapd --shards 4 --faults 2 --fault-shard 1 --requests 10000
//
// Flags: `heapd --help` lists them all with their defaults. Semantics
// the table does not spell out:
//   * --host-threads spreads shard work over host threads; the output is
//     byte-identical at any count, and a configuration with --trace-json
//     attached runs serially. --fast-forward 0|1 toggles the event-driven
//     clock fast-forward, observationally invisible (DESIGN.md §13).
//   * --faults N runs the fault shard's collections through the recovery
//     machinery; --storm-fraction F storms that fraction of the fleet with
//     repeating per-collection faults (--storm-burst/--storm-calm pace
//     it), and --storm-crashes N crashes every Nth active arrival on a
//     stormed shard, which needs --supervise to quarantine and restore it.
//   * --deadline enables failover routing and load shedding.
//   * --trace replays recorded hwgc-trace-v1 op streams (trace-per-session,
//     session % files) instead of seeded churn, and read probes verify the
//     recorded digests. Checkpoints capture the trace cursors like the
//     churn ones, so --trace combines with --supervise/--deadline.
//   * --profile-json and --flame imply --profile. --trace-json and --flame
//     cover the first configuration only; --json and --profile-json cover
//     the whole sweep (exemplar trace ids are offset per configuration, so
//     span keys stay unique in the file).
//
// Unknown options and malformed values exit 2 with a usage summary on
// stderr — a sweep driven from CI must never silently ignore a typo.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "profile/profile_metrics.hpp"
#include "profile/request_trace.hpp"
#include "profile/stall_class.hpp"
#include "service/heap_service.hpp"
#include "service/service_metrics.hpp"
#include "sim/flags.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_export.hpp"
#include "trace/churn.hpp"

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
  std::size_t fault_shard = 0;
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

void parse_args(int argc, char** argv, Options& opt) {
  Flags t("heapd", "multi-tenant heap service sweep driver (semantics: the "
                   "header of examples/heapd.cpp)");
  t.section("sweep");
  t.list("--shards", opt.shards, "shard counts to sweep");
  t.list("--scheduler", opt.schedulers,
         choice(parse_scheduler,
                [](GcSchedulerKind k) { return to_string(k); },
                all_schedulers()),
         "GC scheduler policies to sweep")
      .metavar("POLICY,..");
  t.list("--load", opt.loads, "offered loads, open loop only");
  t.value("--requests", opt.requests, "requests per configuration");
  t.value("--seed", opt.seed, "traffic seed");
  t.value("--sessions", opt.sessions, "concurrent sessions");
  t.section("shard");
  t.value("--heap-words", opt.heap_words, "per-shard semispace words");
  t.value("--cores", opt.cores, "GC cores per shard coprocessor");
  t.toggle("--closed-loop", opt.closed_loop,
           "one outstanding request per session (default open)");
  t.value("--host-threads", opt.host_threads,
          "host threads running shard work (0 = one per hardware thread)");
  t.value("--fast-forward", opt.fast_forward,
          choice([](const std::string& s) -> std::optional<bool> {
                   if (s != "0" && s != "1") return std::nullopt;
                   return s == "1";
                 },
                 [](bool on) { return on ? "1" : "0"; },
                 std::vector<bool>{false, true}),
          "event-driven clock fast-forward in each shard's coprocessor");
  t.value("--slo", opt.slo, "SLO bound in cycles (0 disables)");
  t.value("--max-backlog", opt.max_backlog,
          "admission-control backlog bound (0 = none)");
  t.toggle("--no-oracle", opt.oracle,
           "skip the per-cycle post-structure oracle", false);
  t.section("faults");
  t.value("--faults", opt.faults,
          "seeded fault events per collection on the fault shard");
  t.value("--fault-shard", opt.fault_shard, "shard receiving the faults");
  t.value("--fault-seed", opt.fault_seed, "fault plan seed");
  t.section("storm");
  t.value("--storm-fraction", opt.storm.shard_fraction,
          "fraction of the fleet under a repeating fault storm");
  t.value("--storm-events", opt.storm.events_per_collection,
          "fault events per collection on stormed shards");
  t.value("--storm-seed", opt.storm.seed, "storm plan seed");
  t.value("--storm-burst", opt.storm.burst_requests,
          "burst window in per-shard arrivals (0 = never pauses)");
  t.value("--storm-calm", opt.storm.calm_requests, "gap between bursts");
  t.value("--storm-crashes", opt.storm.crash_period,
          "crash every Nth active arrival on a stormed shard\n"
          "(requires --supervise)");
  t.section("resilience");
  t.toggle("--supervise", opt.resilience.supervise,
           "health supervision + checkpoint/restore");
  t.value("--deadline", opt.resilience.deadline_cycles,
          "per-request deadline budget in cycles (0 = none)");
  t.value("--retries", opt.resilience.max_retries,
          "max failover hops per request");
  t.value("--backoff", opt.resilience.retry_backoff,
          "retry backoff in cycles per failover hop");
  t.value("--checkpoint-interval", opt.resilience.checkpoint_interval,
          "verified-clean cycles between checkpoints");
  t.value("--restore-cost", opt.resilience.restore_cost,
          "virtual cycles a checkpoint restore occupies");
  t.section("trace");
  t.list("--trace", opt.trace_files,
         "hwgc-trace-v1 files the sessions replay")
      .metavar("FILE,..");
  t.value("--trace-ops", opt.trace_ops, "baseline replay ops per request");
  t.section("output");
  t.value("--json", opt.json_path,
          "hwgc-bench-v1 + hwgc-service-v1 JSONL sections")
      .metavar("PATH");
  t.value("--trace-json", opt.trace_json,
          "Chrome-trace timeline of the first configuration")
      .metavar("PATH");
  t.toggle("--verbose", opt.verbose, "per-shard table for every configuration")
      .alias("-v");
  t.section("profile");
  t.toggle("--profile", opt.profile,
           "per-cycle stall attribution + request tracing");
  t.value("--exemplars", opt.exemplars,
          "slow-request exemplars kept per shard and fleet-wide");
  t.value("--profile-json", opt.profile_json,
          "hwgc-profile-v1 JSONL for every sweep point (implies --profile)")
      .metavar("PATH");
  t.value("--flame", opt.flame,
          "Chrome-trace flame view of the first configuration's\n"
          "exemplars (implies --profile)")
      .metavar("PATH");
  t.parse(argc, argv);

  for (const std::size_t shards : opt.shards) {
    if (shards == 0) t.fail("--shards must be >= 1");
  }
  if (opt.sessions == 0) t.fail("--sessions must be >= 1");
  // Trace mode sizes each shard's semispace from its traces; otherwise the
  // churn needs room for one max-shape object.
  const Word min_words = ChurnSource::Config{}.max_object_words();
  if (opt.trace_files.empty() && opt.heap_words < min_words) {
    t.fail("--heap-words must be >= " + std::to_string(min_words) +
           " (one max-shape object)");
  }
  if (opt.host_threads == 0) {
    opt.host_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  if (opt.storm.shard_fraction < 0.0 || opt.storm.shard_fraction > 1.0) {
    t.fail("--storm-fraction must be in [0, 1]");
  }
  if (opt.trace_ops == 0) t.fail("--trace-ops must be >= 1");
  if (opt.storm.crash_period > 0 && !opt.resilience.supervise) {
    t.fail("--storm-crashes requires --supervise (a crashed shard must be "
           "quarantined and restored)");
  }
  if (!opt.profile_json.empty() || !opt.flame.empty()) opt.profile = true;
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
/// cross-shard validation found anything. `trace_base` offsets this
/// point's exemplar trace ids so the sweep's profile file keeps them
/// unique (request ids restart at 0 in every configuration).
bool run_config(const Options& o, const ServiceConfig& cfg,
                std::uint64_t trace_base, MetricsRegistry& registry,
                std::string& service_jsonl, std::string& profile_jsonl,
                std::vector<RequestExemplar>* flame_out, TelemetryBus* bus) {
  HeapService service(cfg);
  if (bus != nullptr) service.set_cycle_observer(bus);
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

  if (!service.resilient() && fleet.failed > 0) {
    // Contained failures: heap exhaustion or an unrecoverable collection
    // failed these requests, and their shards kept serving.
    std::printf("  failed %llu request(s) (heap exhausted or collection "
                "unrecoverable)\n",
                static_cast<unsigned long long>(fleet.failed));
  }

  // Cross-shard isolation proof: every shard's heap must still agree with
  // its sessions' mirrors, fault-injected neighbors or not.
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
      profile_jsonl += profile_report_jsonl(service, "heapd", trace_base);
    }
    if (flame_out != nullptr) *flame_out = slow;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  parse_args(argc, argv, opt);

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
  std::uint64_t trace_base = 0;

  for (std::size_t shards : opt.shards) {
    for (GcSchedulerKind sched : opt.schedulers) {
      for (double load : opt.loads) {
        const ServiceConfig cfg = make_config(opt, shards, sched, load);
        TelemetryBus* attach =
            (first && !opt.trace_json.empty()) ? &bus : nullptr;
        std::vector<RequestExemplar>* flame_out =
            (first && !opt.flame.empty()) ? &flame : nullptr;
        first = false;
        all_ok &= run_config(opt, cfg, trace_base, registry, service_jsonl,
                             profile_jsonl, flame_out, attach);
        trace_base += opt.requests;
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
