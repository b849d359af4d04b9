// serve-churn / serve-lisp: the request path. An 8-shard HeapService with
// heapd's defaults (4 GC cores and 8192 words per shard, 64 open-loop
// sessions at load 1.0, reactive scheduler, per-cycle oracle on,
// fast-forward on) is warmed up and then timed over a fixed request count.
// serve-churn drives seeded ShadowMutator traffic; serve-lisp replays the
// committed lisp-interpreter trace per session and bypasses the
// ShadowMutator entirely.
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "service/heap_service.hpp"
#include "spans.hpp"
#include "trace/trace_format.hpp"

namespace perfbench {
namespace {

using namespace hwgc;

struct ServeSpec {
  bool lisp = false;
  std::uint64_t warmup = 0;    ///< requests before the timed phase
  std::uint64_t requests = 0;  ///< requests in the timed phase
};

ServeSpec spec_of(const std::string& workload) {
  if (workload == "serve-lisp") return {true, 50'000, 350'000};
  // The shadow graph reaches its steady occupancy after about 100k requests.
  return {false, 100'000, 100'000};
}

/// Traced pass granularity: one span per serve() call of this many requests.
constexpr std::uint64_t kChunk = 10'000;

/// Forwards every callback to the service's own observer unchanged and
/// times its three parts: the pre-cycle snapshot (the wrapped
/// before_collection), the cycle itself, and the post-cycle oracle (the
/// wrapped after_collection).
class SpanObserver final : public CollectionObserver {
 public:
  SpanObserver(CollectionObserver* inner, SpanRecorder& rec,
               std::int64_t shard)
      : inner_(inner), rec_(rec), shard_(shard) {}

  void before_collection(Runtime& r) override {
    {
      ScopedSpan s(&rec_, "conformance.snapshot", shard_);
      if (inner_ != nullptr) inner_->before_collection(r);
    }
    cycle_ = rec_.open("core.collect", shard_);
  }

  void after_collection(Runtime& r, const GcCycleStats& s) override {
    rec_.close(cycle_);
    ScopedSpan sp(&rec_, "conformance.oracle", shard_);
    if (inner_ != nullptr) inner_->after_collection(r, s);
  }

 private:
  CollectionObserver* inner_;
  SpanRecorder& rec_;
  std::int64_t shard_;
  std::size_t cycle_ = 0;
};

/// FNV-1a 64 over one shard's mutator-visible op stream.
class DigestSink final : public RuntimeTraceSink {
 public:
  std::uint64_t digest() const noexcept { return h_; }

  void on_alloc(Runtime&, std::size_t slot, Word pi, Word delta) override {
    mix(1, slot, pi, delta);
  }
  void on_release(Runtime&, std::size_t slot) override { mix(2, slot, 0, 0); }
  void on_set_ptr(Runtime&, std::size_t obj, Word field, bool null,
                  std::size_t target) override {
    mix(3, obj, field, null ? ~std::uint64_t{0} : target);
  }
  void on_load_ptr(Runtime&, std::size_t obj, Word field,
                   std::size_t out) override {
    mix(4, obj, field, out);
  }
  void on_dup(Runtime&, std::size_t src, std::size_t out) override {
    mix(5, src, out, 0);
  }
  void on_set_data(Runtime&, std::size_t obj, Word j, Word value) override {
    mix(6, obj, j, value);
  }
  void on_read(Runtime&, std::size_t obj, const ReadProbe& p) override {
    mix(7, obj, p.words, p.digest);
  }
  void on_collect(Runtime&) override { mix(8, 0, 0, 0); }

 private:
  void mix(std::uint64_t kind, std::uint64_t a, std::uint64_t b,
           std::uint64_t c) {
    for (std::uint64_t v : {kind, a, b, c}) fnv_mix(h_, v);
  }
  std::uint64_t h_ = kFnvOffset;
};

/// Everything simulated a pass produces. Bit-identical across host thread
/// counts and across traced/untraced passes of one seed.
struct ServeSim {
  CycleTotals timed;  ///< collections of the timed phase
  std::uint64_t collections = 0;  ///< over the fleet's lifetime
  std::uint64_t offered = 0, completed = 0, rejected = 0, failed = 0;
  std::uint64_t lost = 0;  ///< requests never run after the fleet died
  std::uint64_t slo_violations = 0;
  std::uint64_t lat_count = 0, p50 = 0, p99 = 0, p999 = 0;
  std::uint64_t service_cycles = 0, queue_cycles = 0, stall_cycles = 0;
  std::uint64_t latency_sum = 0;
  double live_frac_max = 0.0;  ///< peak post-collection live / semispace
  std::uint64_t semispace = 0;  ///< per-shard words (trace mode scales it)
  std::uint64_t oracle_failures = 0, read_mismatches = 0;

  friend bool operator==(const ServeSim&, const ServeSim&) = default;
};

struct ServePass {
  double load_s = 0.0, construct_s = 0.0, warmup_s = 0.0, run_s = 0.0;
  double wall_s = 0.0;
  double setup_s() const { return load_s + construct_s + warmup_s; }
  ServeSim sim;
  bool died = false;
  std::string death;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  std::uint64_t digest = 0;  ///< churn op-stream digest (traced pass only)
};

ServiceConfig make_config(const RunOptions& opt, std::size_t threads) {
  ServiceConfig cfg;  // heapd's defaults, spelled out
  cfg.shards = 8;
  cfg.semispace_words = 8192;
  cfg.sim.coprocessor.num_cores = 4;
  cfg.sim.coprocessor.fast_forward = true;
  cfg.traffic.seed = opt.seed;
  cfg.traffic.sessions = 64;
  cfg.traffic.open_loop = true;
  cfg.traffic.load = 1.0;
  cfg.scheduler = GcSchedulerKind::kReactive;
  cfg.slo_cycles = kSloCycles;
  cfg.oracle = true;
  cfg.host_threads = threads;
  return cfg;
}

ServePass run_pass(const RunOptions& opt, const ServeSpec& spec,
                   std::size_t threads, SpanRecorder* rec) {
  ServePass p;
  const Clock::time_point start = Clock::now();
  ScopedSpan root(rec, "bench.pass");
  ServiceConfig cfg = make_config(opt, threads);
  Clock::time_point t0 = Clock::now();
  if (spec.lisp) {
    ScopedSpan s(rec, "trace.load");
    auto traces = std::make_shared<std::vector<Trace>>();
    traces->push_back(load_trace(opt.lisp_trace));
    p.digest = traces->front().digest();
    cfg.traces = std::move(traces);
  }
  p.load_s = seconds_since(t0);

  // Declared before the service so they outlive every collection it runs.
  std::vector<std::unique_ptr<SpanObserver>> observers;
  std::vector<std::unique_ptr<DigestSink>> sinks;
  t0 = Clock::now();
  std::optional<HeapService> svc;
  {
    ScopedSpan s(rec, "service.construct");
    svc.emplace(cfg);
  }
  p.construct_s = seconds_since(t0);
  if (rec != nullptr) {
    for (std::size_t i = 0; i < svc->shard_count(); ++i) {
      Runtime& rt = svc->runtime(i);
      observers.push_back(std::make_unique<SpanObserver>(
          rt.collection_observer(), *rec, static_cast<std::int64_t>(i)));
      rt.set_collection_observer(observers.back().get());
      if (!spec.lisp) {
        sinks.push_back(std::make_unique<DigestSink>());
        rt.set_trace_sink(sinks.back().get());
      }
    }
  }

  // Heap exhaustion surfaces as std::runtime_error out of serve(); the
  // fleet is then dead and every request it did not finish counts failed.
  auto serve_phase = [&](const char* phase, std::uint64_t n) {
    ScopedSpan s(rec, phase);
    const Clock::time_point t = Clock::now();
    try {
      if (rec == nullptr) {
        svc->serve(n);
      } else {
        for (std::uint64_t done = 0; done < n; done += kChunk) {
          ScopedSpan chunk(rec, "service.serve");
          svc->serve(std::min(kChunk, n - done));
        }
      }
    } catch (const std::runtime_error& e) {
      p.died = true;
      p.death = e.what();
    }
    return seconds_since(t);
  };
  p.warmup_s = serve_phase("service.warmup", spec.warmup);
  std::vector<std::size_t> base(svc->shard_count());
  for (std::size_t i = 0; i < base.size(); ++i) {
    base[i] = svc->runtime(i).gc_history().size();
  }
  if (!p.died) p.run_s = serve_phase("service.timed", spec.requests);

  ScopedSpan check(rec, "bench.check");
  ServeSim& sim = p.sim;
  for (std::size_t i = 0; i < svc->shard_count(); ++i) {
    const Runtime& rt = svc->runtime(i);
    const auto& hist = rt.gc_history();
    sim.semispace = rt.heap().capacity_words();
    for (std::size_t k = 0; k < hist.size(); ++k) {
      if (k >= base[i]) sim.timed.add(hist[k]);
      // A copying cycle's words_copied is its post-collection live set.
      const double live = static_cast<double>(hist[k].words_copied) /
                          static_cast<double>(sim.semispace);
      sim.live_frac_max = std::max(sim.live_frac_max, live);
    }
  }
  const SloStats fleet = svc->fleet_stats();
  const std::uint64_t planned = spec.warmup + spec.requests;
  sim.collections = fleet.collections;
  sim.offered = fleet.offered;
  sim.completed = fleet.completed;
  sim.rejected = fleet.rejected;
  sim.failed = fleet.failed;
  sim.slo_violations = fleet.slo_violations;
  sim.lat_count = fleet.latency.count();
  sim.p50 = fleet.latency.percentile(0.50);
  sim.p99 = fleet.latency.percentile(0.99);
  sim.p999 = fleet.latency.percentile(0.999);
  sim.service_cycles = fleet.service_cycles;
  sim.queue_cycles = fleet.queue_cycles;
  sim.stall_cycles = fleet.stall_cycles;
  sim.latency_sum = fleet.latency.sum();
  sim.oracle_failures = fleet.oracle_failures;
  sim.read_mismatches = fleet.read_mismatches;

  p.attempted = planned;
  auto fail = [&](std::uint64_t n, std::string what) {
    p.failed += n;
    p.errors.push_back(std::move(what));
  };
  if (p.died) {
    const std::uint64_t settled = fleet.completed + fleet.rejected +
                                  fleet.failed;
    sim.lost = planned > settled ? planned - settled : 0;
    p.failed += fleet.failed + sim.lost;
  } else {
    p.failed += fleet.failed;
    if (fleet.completed + fleet.rejected + fleet.failed != fleet.offered ||
        fleet.offered != planned || svc->requests_offered() != planned) {
      fail(1, "request partition broken: completed + rejected + failed = " +
                  std::to_string(fleet.completed + fleet.rejected +
                                 fleet.failed) +
                  ", offered = " + std::to_string(fleet.offered) +
                  ", planned = " + std::to_string(planned));
    }
  }
  if (fleet.oracle_failures > 0) {
    fail(fleet.oracle_failures,
         std::to_string(fleet.oracle_failures) + " oracle finding(s)");
    for (std::size_t i = 0; i < svc->shard_count(); ++i) {
      for (const std::string& d : svc->oracle_diagnostics(i)) {
        if (p.errors.size() < 16) p.errors.push_back(d);
      }
    }
  }
  if (fleet.read_mismatches > 0) {
    fail(fleet.read_mismatches,
         std::to_string(fleet.read_mismatches) + " read mismatch(es)");
  }
  const std::size_t diffs = svc->validate_all_shards();
  if (diffs > 0) {
    fail(diffs, std::to_string(diffs) +
                    " shadow-graph mismatch(es) in the cross-shard walk");
  }
  p.failed = std::min(p.failed, p.attempted);
  if (rec != nullptr && !spec.lisp) {
    p.digest = kFnvOffset;
    for (const auto& s : sinks) fnv_mix(p.digest, s->digest());
  }
  p.wall_s = seconds_since(start);
  return p;
}

void put_end_to_end(const std::vector<ServePass>& passes, Outcome& out) {
  std::vector<double> run, setup;
  for (const ServePass& p : passes) {
    run.push_back(p.run_s);
    setup.push_back(p.setup_s());
  }
  const ServePass& p = passes.front();
  const ServeSim& s = p.sim;
  const std::uint64_t offered = p.attempted;
  out.end_to_end["run_s"] = median(run);
  out.end_to_end["setup_s"] = median(setup);
  out.end_to_end["gc_cycles"] = static_cast<double>(s.timed.total_cycles);
  out.end_to_end["lat_p50_clk"] = static_cast<double>(s.p50);
  out.end_to_end["lat_p99_clk"] = static_cast<double>(s.p99);
  out.end_to_end["lat_p999_clk"] = static_cast<double>(s.p999);
  out.end_to_end["slo_miss_frac"] =
      static_cast<double>(s.slo_violations + s.rejected + s.failed + s.lost) /
      static_cast<double>(offered);
  out.info.push_back(
      "latency: completed requests over the fleet's lifetime (warm-up "
      "included), " +
      std::to_string(s.lat_count) + " samples, " +
      std::to_string(s.slo_violations) + " over the SLO");
  std::string line = "run_s per pass:";
  for (double r : run) line += " " + std::to_string(r);
  out.info.push_back(line);
}

/// Host-time layers of one traced pass. Setup layers are the whole span
/// of their phase; run layers are self times inside the timed phase.
std::map<std::string, double> layer_times(const SpanRecorder& rec,
                                          double wall_s) {
  std::map<std::string, double> m;
  std::size_t timed_root = 0;
  for (std::size_t i = 0; i < rec.spans().size(); ++i) {
    const std::string name = rec.spans()[i].name;
    if (name == "service.timed") timed_root = i;
    if (name == "service.construct") m["service.construct_s"] = rec.seconds(i);
    if (name == "service.warmup") m["service.warmup_s"] = rec.seconds(i);
    if (name == "trace.load") m["trace.load_s"] = rec.seconds(i);
  }
  if (timed_root != 0) {
    const std::map<std::string, double> self = rec.self_times(timed_root);
    auto get = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    m["core.collect_s"] = get("core.collect");
    m["conformance.snapshot_s"] = get("conformance.snapshot");
    m["conformance.oracle_s"] = get("conformance.oracle");
    m["service.request_s"] = get("service.serve");
  }
  m["bench.span_coverage"] = span_coverage(rec.self_times(0), wall_s);
  return m;
}

/// Per-layer metrics: host-time layers as medians over the traced passes,
/// simulated layers from the traced pass (every pass agrees exactly).
void put_per_layer(const std::vector<ServePass>& traced,
                   const std::vector<std::map<std::string, double>>& times,
                   const std::vector<ServePass>& serial,
                   const ServePass& pooled, const ServeSpec& spec,
                   Outcome& out) {
  auto& m = out.per_layer;
  m = medians(times);
  const ServeSim& s = traced.back().sim;
  m["workloads.live_frac_max"] = s.live_frac_max;
  m["core.ns_per_sim_cycle"] =
      s.timed.total_cycles == 0
          ? 0.0
          : 1e9 * m["core.collect_s"] /
                static_cast<double>(s.timed.total_cycles);
  put_cycle_layers(s.timed, m);
  std::vector<double> serial_run, serial_wall, traced_wall;
  for (const ServePass& p : serial) {
    serial_run.push_back(p.run_s);
    serial_wall.push_back(p.wall_s);
  }
  for (const ServePass& p : traced) traced_wall.push_back(p.wall_s);
  m["service.pool_speedup"] =
      pooled.run_s > 0.0 ? median(serial_run) / pooled.run_s : 0.0;
  m["service.collections_per_kreq"] =
      1000.0 * static_cast<double>(s.timed.collections) /
      static_cast<double>(spec.requests);
  m["service.gc_cycles_per_collection"] =
      s.timed.collections == 0
          ? 0.0
          : static_cast<double>(s.timed.total_cycles) /
                static_cast<double>(s.timed.collections);
  const double lat = static_cast<double>(s.latency_sum);
  m["service.latency_share.service"] =
      lat == 0.0 ? 0.0 : static_cast<double>(s.service_cycles) / lat;
  m["service.latency_share.queue"] =
      lat == 0.0 ? 0.0 : static_cast<double>(s.queue_cycles) / lat;
  m["service.latency_share.stall"] =
      lat == 0.0 ? 0.0 : static_cast<double>(s.stall_cycles) / lat;
  m["bench.tracing_overhead"] = median(traced_wall) / median(serial_wall);
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

Outcome run_serve(const RunOptions& opt) {
  const ServeSpec spec = spec_of(opt.workload);
  Outcome out;
  std::vector<ServePass> timed;
  auto account = [&](const ServePass& p, const char* engine) {
    out.attempted += p.attempted;
    out.failed += p.failed;
    for (const std::string& e : p.errors) {
      if (out.errors.size() < 16) out.errors.push_back(e);
    }
    if (p.died) {
      out.info.push_back(std::string(engine) + ": fleet died (" + p.death +
                         "); " + std::to_string(p.sim.lost) +
                         " requests never ran and count as failed");
    }
  };
  // A dead fleet's partial stats depend on which shard lanes had run ahead
  // of the throw, so only surviving passes are compared exactly.
  auto same_sim = [&](const ServePass& a, const ServePass& b,
                      const std::string& what) {
    if (a.died || b.died) {
      out.info.push_back("determinism (" + what + "): not compared, the " +
                         "fleet died");
    } else if (!(a.sim == b.sim)) {
      out.errors.push_back("nondeterministic: simulated output differs (" +
                           what + ")");
      ++out.failed;
    }
  };

  const Clock::time_point start = Clock::now();
  if (!opt.trace) {
    while (timed.size() < 3 || seconds_since(start) < opt.seconds) {
      timed.push_back(run_pass(opt, spec, kPoolThreads, nullptr));
      account(timed.back(), "timed pass");
      same_sim(timed.front(), timed.back(), "repeated timed passes");
    }
  } else {
    // One pass on the 3-thread engine, then serial untraced/traced pairs:
    // the traced passes give the per-layer numbers, the pairs the tracing
    // overhead on one engine.
    timed.push_back(run_pass(opt, spec, kPoolThreads, nullptr));
    account(timed.back(), "3-thread pass");
    std::vector<ServePass> serial, traced;
    std::vector<std::map<std::string, double>> times;
    std::optional<SpanRecorder> rec;
    auto run_serial = [&] {
      serial.push_back(run_pass(opt, spec, 1, nullptr));
      account(serial.back(), "serial pass");
    };
    while (traced.empty() || seconds_since(start) < opt.seconds) {
      // Alternate which side of a pair runs first, so that warm-up and
      // host drift do not bias the overhead one way.
      const bool traced_first = traced.size() % 2 == 1;
      if (!traced_first) run_serial();
      rec.emplace();
      traced.push_back(run_pass(opt, spec, 1, &*rec));
      account(traced.back(), "traced serial pass");
      for (const std::string& e : rec->errors()) out.errors.push_back(e);
      times.push_back(layer_times(*rec, traced.back().wall_s));
      if (traced_first) run_serial();
      same_sim(timed.front(), traced.back(),
               "3-thread timed vs serial traced");
      same_sim(serial.back(), traced.back(), "serial vs serial traced");
    }
    put_per_layer(traced, times, serial, timed.front(), spec, out);
    if (!spec.lisp) {
      out.info.push_back("input digest (op streams of all shards): " +
                         hex(traced.back().digest));
    }
    const std::string path = opt.out_dir + "/spans_" + opt.workload + ".json";
    if (rec->write_json(path)) out.info.push_back("spans: " + path);
  }
  put_end_to_end(timed, out);
  const ServePass& p = timed.front();
  if (spec.lisp) {
    out.info.push_back("input digest (traces/lisp.jsonl): " + hex(p.digest));
  }
  if (!opt.trace) {
    out.per_layer["workloads.live_frac_max"] = p.sim.live_frac_max;
  }
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "requests: %llu warm-up + %llu timed; %llu completed, %llu "
                "rejected, %llu failed; peak live set %.4f of a %llu-word "
                "semispace",
                static_cast<unsigned long long>(spec.warmup),
                static_cast<unsigned long long>(spec.requests),
                static_cast<unsigned long long>(p.sim.completed),
                static_cast<unsigned long long>(p.sim.rejected),
                static_cast<unsigned long long>(p.sim.failed + p.sim.lost),
                p.sim.live_frac_max,
                static_cast<unsigned long long>(p.sim.semispace));
  out.info.push_back(buf);
  return out;
}

}  // namespace perfbench
