// gc_top — live terminal dashboard over the managed runtime.
//
// Drives seeded churn (a TraceCursor over a ChurnSource) against a small
// semispace so collection cycles happen continuously, and redraws a
// per-core activity panel after every cycle: busy/stall/idle bars, the
// dominant stall reason, worklist occupancy, header-FIFO effectiveness
// and (with --faults) the recovery ladder counters. This is the
// interactive face of the paper's Section VI-A monitoring framework: the
// same hardware performance counters, read once per collection instead
// of post-mortem.
//
// Flags: `gc_top --help`. --faults routes every collection through the
// recovery ladder, whose counters join the panel. --profile adds the
// cycle attribution drill-down (src/profile/): a critical-path line plus a
// per-class share bar chart, and --json gains the hwgc-profile-v1
// attribution record. --json writes the session's aggregated metrics
// (min/mean/p50/p99 across all cycles) as hwgc-bench-v1 JSONL;
// --trace-json exports the whole session timeline, one telemetry epoch per
// collection, as Chrome-trace JSON.
//
// Service mode (--shards=N): instead of one runtime, drives a HeapService
// fleet panel — one row per shard with occupancy, backlog, collections,
// request latency percentiles and the stall share — serving --every
// requests per frame for --collections frames under --scheduler. --json
// then writes the hwgc-service-v1 section. Stormed shards (--storm=PCT)
// are marked *storm; --supervise grows a health column and a transition
// ticker. With --profile in service mode the shard table grows a
// binding-resource column and a per-shard drill-down panel (top stall
// classes by share, slowest request so far); --json appends the
// hwgc-profile-v1 section.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "profile/critical_path.hpp"
#include "profile/profile_metrics.hpp"
#include "profile/request_trace.hpp"
#include "runtime/runtime.hpp"
#include "service/heap_service.hpp"
#include "service/service_metrics.hpp"
#include "sim/flags.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_export.hpp"
#include "trace/replayer.hpp"

using namespace hwgc;

namespace {

struct CliOptions {
  std::uint32_t cores = 4;
  Word heap_words = 8192;
  std::uint32_t collections = 8;
  std::uint32_t every = 300;
  std::uint32_t interval_ms = 150;
  std::uint64_t seed = 1;
  std::uint32_t faults = 0;
  std::uint32_t shards = 0;
  std::uint32_t storm_pct = 0;   ///< --storm=PCT: % of shards fault-stormed
  bool supervise = false;        ///< --supervise: health + checkpoint/restore
  GcSchedulerKind scheduler = GcSchedulerKind::kProactive;
  bool no_clear = false;
  bool profile = false;          ///< --profile: attribution drill-down panel
  std::string json_path;
  std::string trace_json;
};

CliOptions parse(int argc, char** argv) {
  CliOptions o;
  Flags t("gc_top",
          "live GC dashboard. The dashboard is frame-driven, not keyboard-\n"
          "driven: the only binding is Ctrl-C (quit). Use --no-clear to keep\n"
          "history scrolling instead of redrawing in place.");
  t.section("panel");
  t.value("--cores", o.cores, "GC cores");
  t.value("--heap-words", o.heap_words, "semispace size in words");
  t.value("--collections", o.collections,
          "collection cycles (service mode: frames)");
  t.value("--every", o.every,
          "mutator steps between forced collections\n"
          "(service mode: requests per frame)");
  t.value("--interval-ms", o.interval_ms, "frame delay (0 for CI/scripts)");
  t.value("--seed", o.seed, "mutator / traffic seed");
  t.value("--faults", o.faults,
          "seeded fault events per cycle, routed through recovery");
  t.toggle("--no-clear", o.no_clear,
           "append frames instead of redrawing (logs, CI)");
  t.section("fleet");
  t.value("--shards", o.shards, "fleet size; 0 keeps the classic panel");
  t.value("--scheduler", o.scheduler,
          choice(parse_scheduler,
                 [](GcSchedulerKind k) { return to_string(k); },
                 all_schedulers()),
          "fleet GC scheduler");
  t.value("--storm", o.storm_pct, "fault-storm PCT% of the fleet")
      .metavar("PCT");
  t.toggle("--supervise", o.supervise,
           "health supervision + checkpoint/restore");
  t.section("profile and output");
  t.toggle("--profile", o.profile,
           "stall-attribution drill-down: critical path, per-class share\n"
           "bars, binding resource per shard, slowest request so far");
  t.value("--json", o.json_path,
          "aggregated session metrics as hwgc-bench-v1 JSONL\n"
          "(service mode: hwgc-service-v1)")
      .metavar("PATH");
  t.value("--trace-json", o.trace_json,
          "whole-session timeline as Chrome-trace JSON")
      .metavar("PATH");
  t.parse(argc, argv);
  if (o.cores == 0) t.fail("--cores must be >= 1");
  const Word min_words = ChurnSource::Config{}.max_object_words();
  if (o.heap_words < min_words) {
    t.fail("--heap-words must be >= " + std::to_string(min_words) +
           " (one max-shape object)");
  }
  if (o.storm_pct > 100) t.fail("--storm must be a percentage (0..100)");
  return o;
}

/// Renders busy/stall/idle as a fixed-width ASCII bar: '#' busy, '=' stall,
/// '.' idle.
std::string activity_bar(const CoreCounters& c, int width) {
  const double busy = static_cast<double>(c.busy_cycles);
  const double stall = static_cast<double>(c.total_stalls());
  const double idle = static_cast<double>(c.idle_cycles);
  const double total = busy + stall + idle;
  std::string bar;
  if (total <= 0.0) {
    bar.assign(static_cast<std::size_t>(width), '.');
    return bar;
  }
  const int nb = static_cast<int>(busy / total * width + 0.5);
  int ns = static_cast<int>(stall / total * width + 0.5);
  if (nb + ns > width) ns = width - nb;
  bar.append(static_cast<std::size_t>(nb), '#');
  bar.append(static_cast<std::size_t>(ns), '=');
  bar.append(static_cast<std::size_t>(width - nb - ns), '.');
  return bar;
}

StallReason dominant_stall(const CoreCounters& c) {
  StallReason best = StallReason::kNone;
  Cycle most = 0;
  for (std::size_t r = 1; r < kStallReasonCount; ++r) {
    if (c.stalls[r] > most) {
      most = c.stalls[r];
      best = static_cast<StallReason>(r);
    }
  }
  return best;
}

void render(const CliOptions& o, const Runtime& rt, const TraceCursor& churn) {
  const auto& hist = rt.gc_history();
  const GcCycleStats& s = hist.back();
  if (!o.no_clear) std::printf("\x1b[2J\x1b[H");

  Cycle sum = 0, worst = 0;
  for (const auto& h : hist) {
    sum += h.total_cycles;
    if (h.total_cycles > worst) worst = h.total_cycles;
  }
  std::printf("gc_top — %u cores, %llu-word semispace  |  collection %zu\n",
              o.cores, static_cast<unsigned long long>(o.heap_words),
              hist.size());
  std::printf("heap %llu/%llu words in use, %llu roots, %llu allocations\n",
              static_cast<unsigned long long>(rt.words_in_use()),
              static_cast<unsigned long long>(o.heap_words),
              static_cast<unsigned long long>(rt.live_roots()),
              static_cast<unsigned long long>(churn.ids()));
  std::printf("last cycle: %llu clk (%llu obj, %llu words copied), "
              "worklist empty %.1f%%\n",
              static_cast<unsigned long long>(s.total_cycles),
              static_cast<unsigned long long>(s.objects_copied),
              static_cast<unsigned long long>(s.words_copied),
              100.0 * s.worklist_empty_fraction());
  std::printf("fifo: %llu hits / %llu misses / %llu overflows  |  "
              "mem requests: %llu\n",
              static_cast<unsigned long long>(s.fifo_hits),
              static_cast<unsigned long long>(s.fifo_misses),
              static_cast<unsigned long long>(s.fifo_overflows),
              static_cast<unsigned long long>(s.mem_requests));
  if (s.snapshot_stores + s.reconciliation_repairs + s.safe_point_waits > 0) {
    // Pauseless snapshot collector only — the barrier/reconciliation line.
    std::printf("barrier: %llu snapshot stores, %llu repairs, "
                "%llu safe-point waits\n",
                static_cast<unsigned long long>(s.snapshot_stores),
                static_cast<unsigned long long>(s.reconciliation_repairs),
                static_cast<unsigned long long>(s.safe_point_waits));
  }
  std::printf("session: mean %.0f clk/cycle, worst %llu\n\n",
              static_cast<double>(sum) / static_cast<double>(hist.size()),
              static_cast<unsigned long long>(worst));

  std::printf("      %-44s %5s %5s %5s  top stall\n", "# busy  = stall  . idle",
              "busy%", "stl%", "idle%");
  for (std::size_t i = 0; i < s.per_core.size(); ++i) {
    const CoreCounters& c = s.per_core[i];
    const double total = static_cast<double>(c.busy_cycles) +
                         static_cast<double>(c.total_stalls()) +
                         static_cast<double>(c.idle_cycles);
    const double denom = total > 0.0 ? total : 1.0;
    const StallReason top = dominant_stall(c);
    std::printf("c%-3zu [%s] %4.0f%% %4.0f%% %4.0f%%  %s\n", i,
                activity_bar(c, 44).c_str(),
                100.0 * static_cast<double>(c.busy_cycles) / denom,
                100.0 * static_cast<double>(c.total_stalls()) / denom,
                100.0 * static_cast<double>(c.idle_cycles) / denom,
                top == StallReason::kNone ? "-"
                                          : std::string(to_string(top)).c_str());
  }

  if (rt.profiling_enabled() && !rt.profile_history().empty()) {
    const CycleProfile& p = rt.profile_history().back();
    std::printf("\nprofile: %s\n", critical_path(p).summary().c_str());
    ProfileAttribution a;
    a.source = "gc_top";
    a.add(p);
    for (std::size_t k = 0; k < kStallClassCount; ++k) {
      const StallClass cls = static_cast<StallClass>(k);
      const double share = a.share(cls);
      if (share <= 0.0) continue;
      const std::size_t w = static_cast<std::size_t>(share * 30 + 0.5);
      std::string bar(w, '#');
      bar.append(30 - std::min<std::size_t>(w, 30), '.');
      std::printf("  %-19s %5.1f%% [%s]\n",
                  std::string(to_string(cls)).c_str(), 100.0 * share,
                  bar.c_str());
    }
  }

  const auto& rec = rt.recovery_history();
  if (!rec.empty()) {
    std::uint64_t fired = 0, attempts = 0, fallbacks = 0, deconf = 0;
    for (const auto& r : rec) {
      fired += r.faults_fired;
      attempts += r.attempts.size();
      fallbacks += r.used_sequential_fallback ? 1 : 0;
      deconf += r.deconfigured.size();
    }
    std::printf("\nrecovery: %llu fault(s) fired, %llu attempt(s), "
                "%llu core(s) deconfigured, %llu sequential fallback(s)\n",
                static_cast<unsigned long long>(fired),
                static_cast<unsigned long long>(attempts),
                static_cast<unsigned long long>(deconf),
                static_cast<unsigned long long>(fallbacks));
  }
  std::fflush(stdout);
}

/// Occupancy as a fixed-width bar: '#' used, '.' free.
std::string occupancy_bar(double occ, int width) {
  if (occ < 0.0) occ = 0.0;
  if (occ > 1.0) occ = 1.0;
  const int used = static_cast<int>(occ * width + 0.5);
  std::string bar(static_cast<std::size_t>(used), '#');
  bar.append(static_cast<std::size_t>(width - used), '.');
  return bar;
}

void render_fleet(const CliOptions& o, const HeapService& service,
                  std::uint32_t frame) {
  if (!o.no_clear) std::printf("\x1b[2J\x1b[H");
  const SloStats fleet = service.fleet_stats();
  std::printf("gc_top — %u shards × %u cores, %s scheduler  |  frame %u\n",
              o.shards, o.cores, to_string(o.scheduler), frame);
  std::printf("fleet: %llu served, %llu shed, %llu collections "
              "(%llu scheduled), clock %llu\n\n",
              static_cast<unsigned long long>(fleet.completed),
              static_cast<unsigned long long>(fleet.rejected),
              static_cast<unsigned long long>(fleet.collections),
              static_cast<unsigned long long>(fleet.scheduled_collections),
              static_cast<unsigned long long>(service.now()));
  const bool prof = service.profiling();
  std::printf("      %-20s %5s %6s %5s %8s %8s %6s %-7s %-11s%s\n",
              "occupancy", "occ%", "roots", "gc", "p50", "p99", "stl%",
              "oracle", "health", prof ? " binding" : "");
  for (std::size_t i = 0; i < service.shard_count(); ++i) {
    const ShardObservation ob = service.observe(i);
    const SloStats& s = service.shard_stats(i);
    const double stall_share =
        s.latency.sum() > 0
            ? 100.0 * static_cast<double>(s.stall_cycles) /
                  static_cast<double>(s.latency.sum())
            : 0.0;
    const std::string binding =
        prof ? std::string(to_string(service.shard_attribution(i).binding()))
             : std::string();
    std::printf(
        "s%-4zu [%s] %4.0f%% %6llu %5llu %8llu %8llu %5.1f%% %-7s %-11s%s%s%s\n",
        i, occupancy_bar(ob.occupancy, 20).c_str(), 100.0 * ob.occupancy,
        static_cast<unsigned long long>(ob.live_roots),
        static_cast<unsigned long long>(s.collections),
        static_cast<unsigned long long>(s.latency.percentile(0.50)),
        static_cast<unsigned long long>(s.latency.percentile(0.99)),
        stall_share, s.oracle_failures == 0 ? "ok" : "FAIL",
        to_string(service.shard_health(i)), prof ? " " : "", binding.c_str(),
        service.storm().enabled() && service.storm().stormed(i) ? " *storm"
                                                                : "");
  }
  if (prof) {
    std::printf("\nprofile drill-down (cumulative per shard):\n");
    for (std::size_t i = 0; i < service.shard_count(); ++i) {
      const ProfileAttribution a = service.shard_attribution(i);
      std::printf("  s%-3zu", i);
      std::vector<std::pair<double, StallClass>> shares;
      for (std::size_t k = 0; k < kStallClassCount; ++k) {
        const StallClass cls = static_cast<StallClass>(k);
        if (a.share(cls) > 0.0) shares.emplace_back(a.share(cls), cls);
      }
      std::sort(shares.begin(), shares.end(),
                [](const auto& x, const auto& y) { return x.first > y.first; });
      if (shares.empty()) std::printf(" (no profiled collections yet)");
      for (std::size_t k = 0; k < std::min<std::size_t>(shares.size(), 3);
           ++k) {
        std::printf(" %s %4.1f%%",
                    std::string(to_string(shares[k].second)).c_str(),
                    100.0 * shares[k].first);
      }
      std::printf(" | %llu gc, %llu unprofiled\n",
                  static_cast<unsigned long long>(a.collections),
                  static_cast<unsigned long long>(a.unprofiled));
    }
    const std::vector<RequestExemplar> slow = service.slowest_requests();
    if (!slow.empty()) {
      const RequestExemplar& e = slow.front();
      std::printf("  slowest request #%llu on s%zu: %llu clk "
                  "(gc-inherited %llu, gc-own %llu)\n",
                  static_cast<unsigned long long>(e.request_id), e.shard,
                  static_cast<unsigned long long>(e.latency()),
                  static_cast<unsigned long long>(e.inherited_stall),
                  static_cast<unsigned long long>(e.own_gc));
    }
  }
  if (service.resilient()) {
    const std::size_t shown =
        std::min<std::size_t>(service.health_events().size(), 4);
    const auto& ev = service.health_events();
    for (std::size_t k = ev.size() - shown; k < ev.size(); ++k) {
      std::printf("  [%llu] s%zu %s -> %s (%s)\n",
                  static_cast<unsigned long long>(ev[k].at), ev[k].shard,
                  to_string(ev[k].from), to_string(ev[k].to),
                  ev[k].reason.c_str());
    }
  }
  std::fflush(stdout);
}

/// --shards=N: fleet panel over a HeapService instead of one runtime.
int run_service_mode(const CliOptions& o) {
  ServiceConfig cfg;
  cfg.shards = o.shards;
  cfg.semispace_words = o.heap_words;
  cfg.sim.coprocessor.num_cores = o.cores;
  cfg.traffic.seed = o.seed;
  cfg.scheduler = o.scheduler;
  if (o.faults > 0) {
    cfg.fault_shard = 0;
    cfg.fault_events = o.faults;
    cfg.fault_seed = o.seed;
  }
  if (o.storm_pct > 0) {
    cfg.storm.shard_fraction = o.storm_pct / 100.0;
    cfg.storm.seed = o.seed;
  }
  cfg.resilience.supervise = o.supervise;
  cfg.profile.enabled = o.profile;
  HeapService service(cfg);

  TelemetryBus bus;
  if (!o.trace_json.empty()) service.set_cycle_observer(&bus);

  for (std::uint32_t frame = 1; frame <= o.collections; ++frame) {
    service.serve(o.every);
    render_fleet(o, service, frame);
    if (o.interval_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(o.interval_ms));
    }
  }

  const SloStats fleet = service.fleet_stats();
  const std::size_t mismatches = service.validate_all_shards();
  std::printf("\ncross-shard validation after %llu collection(s): "
              "%zu mismatches, %llu oracle failure(s)\n",
              static_cast<unsigned long long>(fleet.collections), mismatches,
              static_cast<unsigned long long>(fleet.oracle_failures));

  if (!o.trace_json.empty()) {
    if (!write_chrome_trace(bus, o.trace_json)) {
      std::fprintf(stderr, "error: failed to write %s\n", o.trace_json.c_str());
      return 1;
    }
    std::printf("wrote fleet timeline (%zu epochs, %zu spans) to %s\n",
                bus.epochs().size(), bus.spans().size(), o.trace_json.c_str());
  }
  if (!o.json_path.empty()) {
    std::string jsonl = service_report_jsonl(service, "gc_top");
    if (service.profiling()) jsonl += profile_report_jsonl(service, "gc_top");
    if (!write_jsonl_file(o.json_path, jsonl)) {
      std::fprintf(stderr, "error: failed to write %s\n", o.json_path.c_str());
      return 1;
    }
    std::printf("wrote %zu service record(s)%s to %s\n",
                service.shard_count() + 1,
                service.profiling() ? " + profile section" : "",
                o.json_path.c_str());
  }
  return (mismatches == 0 && fleet.oracle_failures == 0) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions o = parse(argc, argv);
  if (o.shards > 0) return run_service_mode(o);

  SimConfig cfg;
  cfg.coprocessor.num_cores = o.cores;
  if (o.faults > 0) {
    cfg.fault.events = o.faults;
    cfg.fault.seed = o.seed;
  }
  Runtime rt(o.heap_words, cfg);
  if (o.profile) rt.enable_profiling();

  TelemetryBus bus;
  if (!o.trace_json.empty()) rt.set_cycle_observer(&bus);

  TraceCursor churn(ChurnSource({.seed = o.seed}));
  for (std::uint32_t n = 0; n < o.collections; ++n) {
    churn.apply(rt, o.every);
    rt.collect();
    render(o, rt, churn);
    if (o.interval_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(o.interval_ms));
    }
  }

  const std::size_t mismatches = churn.validate(rt);
  std::printf("\nshadow validation after %zu collection(s): %zu mismatches\n",
              rt.gc_history().size(), mismatches);

  if (!o.trace_json.empty()) {
    if (!write_chrome_trace(bus, o.trace_json)) {
      std::fprintf(stderr, "error: failed to write %s\n", o.trace_json.c_str());
      return 1;
    }
    std::printf("wrote session timeline (%zu epochs, %zu spans) to %s\n",
                bus.epochs().size(), bus.spans().size(), o.trace_json.c_str());
  }
  if (!o.json_path.empty()) {
    MetricsRegistry reg;
    MetricsRegistry::Key key;
    key.benchmark = "gc_top";
    key.cores = o.cores;
    key.scale = 0.0;
    key.seed = o.seed;
    for (const auto& s : rt.gc_history()) reg.record(key, cfg, s);
    std::string jsonl = reg.to_jsonl("gc_top");
    if (o.profile) {
      ProfileAttribution a;
      a.source = "gc_top";
      for (const auto& p : rt.profile_history()) a.add(p);
      jsonl += profile_attribution_jsonl(a, "gc_top");
    }
    if (!write_jsonl_file(o.json_path, jsonl)) {
      std::fprintf(stderr, "error: failed to write %s\n", o.json_path.c_str());
      return 1;
    }
    std::printf("wrote %zu aggregated metric record(s)%s to %s\n", reg.size(),
                o.profile ? " + profile attribution" : "", o.json_path.c_str());
  }
  return mismatches == 0 ? 0 : 1;
}
