#include "fuzz/oracle.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "conformance/forwarding.hpp"
#include "core/coprocessor.hpp"
#include "core/schedule_policy.hpp"
#include "heap/object_model.hpp"
#include "heap/verifier.hpp"
#include "sim/flags.hpp"
#include "sim/rng.hpp"

namespace hwgc {

SimConfig FuzzCase::sim_config() const {
  SimConfig cfg;
  cfg.coprocessor.num_cores = num_cores;
  cfg.coprocessor.header_fifo_capacity = header_fifo_capacity;
  cfg.coprocessor.schedule = schedule;
  cfg.coprocessor.schedule_seed = schedule_seed;
  cfg.coprocessor.subobject_copy = subobject_copy;
  cfg.coprocessor.markbit_early_read = markbit_early_read;
  cfg.memory.latency_jitter = latency_jitter;
  cfg.memory.jitter_seed = schedule_seed ^ 0x9e3779b97f4a7c15ULL;
  cfg.fault = fault;
  cfg.recovery.enabled = fault.enabled();
  return cfg;
}

void add_fuzz_case_flags(Flags& t, FuzzCase& fc) {
  t.section("explicit case (replays a minimized reproducer; disables --seed)");
  t.value("--graph-seed", fc.graph_seed, "object-graph seed").pin();
  t.value("--schedule", fc.schedule,
          choice(parse_schedule_policy,
                 [](SchedulePolicyKind k) { return to_string(k); },
                 all_schedule_policies()),
          "step-order policy")
      .pin();
  t.value("--schedule-seed", fc.schedule_seed, "schedule and jitter seed")
      .pin();
  t.value("--cores", fc.num_cores, "coprocessor cores").pin();
  t.value("--fifo", fc.header_fifo_capacity, "header FIFO capacity").pin();
  t.value("--jitter", fc.latency_jitter, "memory latency jitter (cycles)")
      .pin();
  t.toggle("--subobject", fc.subobject_copy, "cache-line-granularity copying");
  t.toggle("--earlyread", fc.markbit_early_read,
           "mark-bit early-read optimization");
  t.section("fault injection (routes the case through recovery; see "
            "fault_lab for sweeps)");
  t.value("--fault-events", fc.fault.events,
          "seeded fault events to inject (0 = off)");
  t.value("--fault-seed", fc.fault.seed, "fault plan seed");
  t.value("--fault-mask", fc.fault.class_mask,
          "bitmask of fault classes (bit i = class i)");
  t.value("--fault-persistent", fc.fault.persistent_fraction,
          "fraction of events that are hard faults");
  t.value("--fault-scale", fc.fault.trigger_scale,
          "trigger-point scale (cycles / transaction counts)");
  t.section("graph shape");
  t.value("--min-nodes", fc.graph.min_nodes, "fewest graph nodes");
  t.value("--max-nodes", fc.graph.max_nodes, "most graph nodes");
  t.value("--max-pi", fc.graph.max_pi, "most pointer fields per object");
  t.value("--max-delta", fc.graph.max_delta, "most data words per object");
  t.value("--edge-prob", fc.graph.edge_probability,
          "chance a pointer field is wired");
  t.value("--garbage", fc.graph.garbage_fraction, "unreachable node share");
  t.value("--huge-frac", fc.graph.huge_fraction, "huge object share");
  t.value("--huge-delta", fc.graph.huge_delta, "most data words of a huge object");
  t.value("--hubs", fc.graph.hubs, "hub objects");
  t.value("--mutation", fc.graph.mutation_fraction,
          "share of wired fields re-targeted after the build");
  t.value("--max-roots", fc.graph.max_roots, "most roots");
}

std::string FuzzCase::summary() const {
  FuzzCase shown;  // bound at its defaults, which the table records
  Flags t("fuzz_gc");
  add_fuzz_case_flags(t, shown);
  shown = *this;
  return t.render();
}

std::string FuzzVerdict::summary() const {
  if (ok) return "OK";
  std::ostringstream os;
  os << errors.size() << " oracle error(s):";
  for (const auto& e : errors) os << "\n  - " << e;
  if (!schedule_tail.empty()) {
    os << "\nschedule tail:\n" << schedule_tail;
  }
  return os.str();
}

namespace {

/// Forwarding-map bijectivity + dense-tiling check, via the shared
/// implementation in src/conformance/forwarding.hpp (the coprocessor and
/// the sequential reference are both Cheney-dense, so tiling is required).
bool build_forwarding_map(const char* who, const HeapSnapshot& pre,
                          const Heap& post, FuzzVerdict& v,
                          std::unordered_map<Addr, Addr>& fwd) {
  std::vector<std::string> errors;
  const bool ok = extract_forwarding_map(who, pre, post, errors, fwd) &&
                  check_dense_tiling(who, pre, post, fwd, errors);
  for (auto& e : errors) v.fail(std::move(e));
  return ok;
}

}  // namespace

FuzzVerdict run_fuzz_case(const FuzzCase& fc, TelemetryBus* telemetry) {
  FuzzVerdict v;
  const GraphPlan plan = make_fuzz_plan(fc.graph_seed, fc.graph);
  Workload hw = materialize(plan);
  Workload ref = materialize(plan);

  const HeapSnapshot pre = HeapSnapshot::capture(*hw.heap);
  const HeapSnapshot pre_ref = HeapSnapshot::capture(*ref.heap);
  v.live_objects = pre.objects.size();
  if (pre.objects.size() != pre_ref.objects.size()) {
    v.fail("materialization diverged between the two heaps");
    return v;
  }

  ScheduleTrace sched(64);
  if (fc.fault.enabled()) {
    // Fault-injected runs go through the recovery machinery. The oracle's
    // contract: the run either completes with a verified-identical heap
    // (fault masked or explicitly recovered) or fails loudly here — an
    // injected fault must never corrupt silently.
    v.fault_run = true;
    RecoveringCollector collector(fc.sim_config(), *hw.heap);
    v.recovery = collector.collect(nullptr, telemetry);
    v.coproc = v.recovery.stats;
    if (!v.recovery.ok) {
      v.fail("recovery failed: " + v.recovery.summary());
      return v;
    }
    if (v.recovery.faults_injected != fc.fault.events) {
      v.fail("fault plan holds " + std::to_string(v.recovery.faults_injected) +
             " events, config requested " + std::to_string(fc.fault.events));
    }
    std::uint64_t fired = 0;
    for (const auto& a : v.recovery.attempts) fired += a.faults_fired;
    if (fired != v.recovery.faults_fired) {
      v.fail("fault accounting mismatch: attempts account for " +
             std::to_string(fired) + " firings, injector reports " +
             std::to_string(v.recovery.faults_fired));
    }
    if (v.recovery.faults_fired != v.recovery.fault_log.size()) {
      v.fail("fault log holds " + std::to_string(v.recovery.fault_log.size()) +
             " entries for " + std::to_string(v.recovery.faults_fired) +
             " firings");
    }
  } else {
    Coprocessor coproc(fc.sim_config(), *hw.heap);
    try {
      v.coproc = coproc.collect(nullptr, &sched, nullptr, telemetry);
    } catch (const std::exception& e) {
      v.fail(std::string("coprocessor threw: ") + e.what());
      v.schedule_tail = sched.dump();
      return v;
    }
  }
  v.sequential = SequentialCheney::collect(*ref.heap);

  // Per-heap verification against the pre-cycle snapshots.
  const VerifyResult vr = verify_collection(pre, *hw.heap);
  for (const auto& e : vr.errors) v.fail("coprocessor: " + e);
  const VerifyResult vs = verify_collection(pre_ref, *ref.heap);
  for (const auto& e : vs.errors) v.fail("sequential: " + e);

  // Lock-order auditor must be silent (DESIGN.md invariant 6).
  for (const auto& x : v.coproc.lock_order_violations) {
    v.fail("lock order: " + x);
  }

  // Per-object single-evacuation counters. (Not meaningful when recovery
  // escalated to the software fallback: the sequential pass reports no
  // per-core counters.)
  if (!v.recovery.used_sequential_fallback) {
    std::uint64_t evacuations = 0;
    for (const auto& c : v.coproc.per_core) evacuations += c.objects_evacuated;
    if (evacuations != pre.objects.size()) {
      v.fail("evacuation count " + std::to_string(evacuations) +
             " != " + std::to_string(pre.objects.size()) + " live objects");
    }
  }
  if (v.coproc.objects_copied != v.sequential.objects_copied ||
      v.coproc.words_copied != v.sequential.words_copied) {
    v.fail("copy totals diverge from sequential reference: objects " +
           std::to_string(v.coproc.objects_copied) + "/" +
           std::to_string(v.sequential.objects_copied) + ", words " +
           std::to_string(v.coproc.words_copied) + "/" +
           std::to_string(v.sequential.words_copied));
  }

  // Forwarding-map bijectivity, then image equivalence modulo copy order.
  std::unordered_map<Addr, Addr> fwd_hw, fwd_ref;
  const bool hw_ok = build_forwarding_map("coprocessor", pre, *hw.heap, v, fwd_hw);
  const bool ref_ok =
      build_forwarding_map("sequential", pre_ref, *ref.heap, v, fwd_ref);
  if (hw_ok && ref_ok) {
    std::vector<std::string> errors;
    cross_compare_images("coprocessor", "sequential", pre, *hw.heap,
                         *ref.heap, fwd_hw, fwd_ref, errors);
    for (auto& e : errors) v.fail(std::move(e));
  }

  if (!v.ok) v.schedule_tail = sched.dump();
  return v;
}

FuzzCase case_from_seed(std::uint64_t master_seed) {
  std::uint64_t s = master_seed;
  FuzzCase fc;
  fc.graph_seed = splitmix64(s);
  fc.schedule = static_cast<SchedulePolicyKind>(splitmix64(s) % 4);
  fc.schedule_seed = splitmix64(s);
  static constexpr std::uint32_t kCores[] = {1, 2, 3, 4, 6, 8, 12, 16};
  fc.num_cores = kCores[splitmix64(s) % 8];
  // Tiny capacities force the FIFO-overflow path (scan-locked header
  // loads); 32k is the prototype's configuration.
  static constexpr std::uint32_t kFifo[] = {32 * 1024, 32 * 1024, 64, 4, 0};
  fc.header_fifo_capacity = kFifo[splitmix64(s) % 5];
  static constexpr Cycle kJitter[] = {0, 0, 1, 3, 7};
  fc.latency_jitter = kJitter[splitmix64(s) % 5];
  const std::uint64_t features = splitmix64(s);
  fc.subobject_copy = features % 4 == 0;
  fc.markbit_early_read = features % 8 >= 6;
  return fc;
}

FuzzCase minimize_case(const FuzzCase& failing, std::uint32_t budget) {
  FuzzCase best = failing;
  const auto fails = [&budget](const FuzzCase& c) {
    if (budget == 0) return false;
    --budget;
    return !run_fuzz_case(c).ok;
  };

  bool progress = true;
  while (progress && budget > 0) {
    progress = false;
    std::vector<FuzzCase> candidates;
    const auto propose = [&](auto&& mutate) {
      FuzzCase c = best;
      if (mutate(c)) candidates.push_back(c);
    };
    // Shrink the graph first — a small graph makes every later probe cheap.
    propose([](FuzzCase& c) {
      if (c.graph.max_nodes <= 4) return false;
      c.graph.max_nodes /= 2;
      c.graph.min_nodes = std::min(c.graph.min_nodes, c.graph.max_nodes);
      return true;
    });
    propose([](FuzzCase& c) {
      if (c.graph.max_delta <= 1 && c.graph.huge_fraction == 0.0) return false;
      c.graph.max_delta = std::max<Word>(1, c.graph.max_delta / 2);
      c.graph.huge_fraction = 0.0;
      return true;
    });
    propose([](FuzzCase& c) {
      if (c.graph.hubs == 0 && c.graph.mutation_fraction == 0.0) return false;
      c.graph.hubs = 0;
      c.graph.mutation_fraction = 0.0;
      return true;
    });
    propose([](FuzzCase& c) {
      if (c.graph.garbage_fraction == 0.0) return false;
      c.graph.garbage_fraction = 0.0;
      return true;
    });
    // Then the collector features and hardware knobs.
    propose([](FuzzCase& c) {
      if (!c.subobject_copy && !c.markbit_early_read) return false;
      c.subobject_copy = false;
      c.markbit_early_read = false;
      return true;
    });
    propose([](FuzzCase& c) {
      if (c.latency_jitter == 0) return false;
      c.latency_jitter = 0;
      return true;
    });
    propose([](FuzzCase& c) {
      if (c.header_fifo_capacity >= 32 * 1024) return false;
      c.header_fifo_capacity = 32 * 1024;
      return true;
    });
    propose([](FuzzCase& c) {
      if (c.schedule == SchedulePolicyKind::kFixedPriority) return false;
      c.schedule = SchedulePolicyKind::kFixedPriority;
      return true;
    });
    propose([](FuzzCase& c) {
      if (c.num_cores <= 2) return false;
      c.num_cores /= 2;
      return true;
    });
    propose([](FuzzCase& c) {
      if (c.num_cores <= 1) return false;
      --c.num_cores;
      return true;
    });
    for (const auto& c : candidates) {
      if (fails(c)) {
        best = c;
        progress = true;
        break;
      }
      if (budget == 0) break;
    }
  }
  return best;
}

}  // namespace hwgc
