#include "fuzz/fuzz_case.hpp"

#include <algorithm>
#include <vector>

#include "core/schedule_policy.hpp"
#include "sim/flags.hpp"
#include "sim/rng.hpp"

namespace hwgc {

ConformanceCase FuzzCase::conformance_case() const {
  ConformanceCase c;
  c.plan = make_fuzz_plan(graph_seed, graph);
  static_cast<CoprocessorKnobs&>(c.harness) = *this;
  c.harness.fault = fault;
  return c;
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
  t.value("--cores", fc.cores, "coprocessor cores").pin();
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

ConformanceVerdict run_fuzz_case(const FuzzCase& fc) {
  return run_conformance_case(CollectorId::kCoprocessor, fc.conformance_case());
}

FuzzCase case_from_seed(std::uint64_t master_seed) {
  std::uint64_t s = master_seed;
  FuzzCase fc;
  fc.graph_seed = splitmix64(s);
  fc.schedule = static_cast<SchedulePolicyKind>(splitmix64(s) % 4);
  fc.schedule_seed = splitmix64(s);
  static constexpr std::uint32_t kCores[] = {1, 2, 3, 4, 6, 8, 12, 16};
  fc.cores = kCores[splitmix64(s) % 8];
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
      if (c.cores <= 2) return false;
      c.cores /= 2;
      return true;
    });
    propose([](FuzzCase& c) {
      if (c.cores <= 1) return false;
      --c.cores;
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
