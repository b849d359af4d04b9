// fault_lab — hardware fault-injection sweep driver.
//
// Sweeps the fault matrix (fault class × event rate × core count × seeds)
// through the conformance oracle as fuzz cases: every run injects a seeded
// fault plan, collects through the detection-and-recovery machinery and
// cross-checks the result against the sequential Cheney reference. Per
// run the outcome is classified as
//   masked        collection succeeded on the first attempt,
//   retried       recovered by abort-and-retry on the same cores,
//   deconfigured  recovered after dropping at least one suspect core,
//   fallback      recovered by the sequential software collector,
//   FAILED        oracle rejected the run — silent corruption or an
//                 unrecoverable collection; the driver exits nonzero.
//
// The sweep recipe from EXPERIMENTS.md:
//   fault_lab                         # default matrix, ~1 minute
//   fault_lab --classes mem-corrupt --cores 8 --events 4 --seeds 10 -v
//   fault_lab --graph-seed 3 --max-nodes 64   # smaller, faster graphs
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fault/recovery.hpp"
#include "fuzz/fuzz_case.hpp"
#include "sim/flags.hpp"
#include "telemetry/trace_export.hpp"

namespace {

struct Options {
  std::vector<hwgc::FaultKind> classes = hwgc::all_fault_kinds();
  std::vector<std::uint32_t> cores{2, 4, 8};
  std::vector<std::uint32_t> events{1, 4};
  std::uint32_t seeds = 3;
  std::uint64_t base_seed = 1;
  std::uint64_t graph_seed = 42;
  std::uint32_t max_nodes = 96;
  std::uint32_t fault_scale = 48;
  std::string trace_json;
  bool verbose = false;
};

void parse_args(int argc, char** argv, Options& opt) {
  hwgc::Flags t("fault_lab", "hardware fault-injection sweep driver");
  t.list("--classes", opt.classes,
         hwgc::choice(hwgc::parse_fault_kind,
                      [](hwgc::FaultKind k) { return to_string(k); },
                      hwgc::all_fault_kinds()),
         "fault classes to sweep")
      .metavar("CLASS,..");
  t.list("--cores", opt.cores, "core counts to sweep");
  t.list("--events", opt.events, "events per run, the fault rate axis");
  t.value("--seeds", opt.seeds, "seeds per matrix cell");
  t.value("--base-seed", opt.base_seed, "first fault/schedule seed");
  t.value("--graph-seed", opt.graph_seed,
          "first object-graph seed (+1 per seed)");
  t.value("--max-nodes", opt.max_nodes, "object-graph size cap");
  t.value("--fault-scale", opt.fault_scale,
          "trigger-point scale (small keeps the trigger points inside\n"
          "these short collections)");
  t.value("--trace-json", opt.trace_json,
          "re-run the most interesting case (first one that needed\n"
          "recovery, else first that fired a fault) with telemetry\n"
          "attached and export its timeline as Chrome-trace JSON")
      .metavar("PATH");
  t.toggle("--verbose", opt.verbose, "print every run, not just the matrix")
      .alias("-v");
  t.parse(argc, argv);
  if (opt.seeds == 0) t.fail("--seeds must be >= 1");
  for (const std::uint32_t cores : opt.cores) {
    if (cores == 0) t.fail("--cores must be >= 1");
  }
}

/// Run outcomes in summary-table order, with their names and columns.
enum Outcome : std::size_t {
  kMasked, kRetried, kDeconfigured, kFallback, kFailed
};
constexpr const char* kOutcomes[] = {"masked", "retried", "deconfigured",
                                     "fallback", "FAILED"};
constexpr int kOutcomeWidths[] = {8, 8, 7, 7, 7};

struct Tally {
  std::uint64_t runs = 0;
  std::uint64_t outcomes[std::size(kOutcomes)] = {};
  std::uint64_t injected = 0;
  std::uint64_t fired = 0;

  Tally& operator+=(const Tally& o) {
    runs += o.runs;
    for (std::size_t i = 0; i < std::size(kOutcomes); ++i) {
      outcomes[i] += o.outcomes[i];
    }
    injected += o.injected;
    fired += o.fired;
    return *this;
  }
};

void print_row(const std::string& label, const Tally& t) {
  std::cout << std::left << std::setw(16) << label << std::right
            << std::setw(6) << t.runs;
  for (std::size_t i = 0; i < std::size(kOutcomes); ++i) {
    std::cout << std::setw(kOutcomeWidths[i]) << t.outcomes[i];
  }
  std::cout << std::setw(10) << t.injected << std::setw(6) << t.fired << "\n";
}

Outcome classify(bool ok, const hwgc::RecoveryReport& r) {
  if (!ok) return kFailed;
  if (r.used_sequential_fallback) return kFallback;
  if (!r.deconfigured.empty()) return kDeconfigured;
  if (r.attempts.size() > 1) return kRetried;
  return kMasked;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  parse_args(argc, argv, opt);

  // The schedule policies rotate with the seed index so every matrix cell
  // also explores different core interleavings.
  static constexpr hwgc::SchedulePolicyKind kSchedules[] = {
      hwgc::SchedulePolicyKind::kFixedPriority,
      hwgc::SchedulePolicyKind::kRotating,
      hwgc::SchedulePolicyKind::kRandom,
      hwgc::SchedulePolicyKind::kAdversarial,
  };

  std::vector<Tally> per_class(hwgc::kFaultKindCount);
  Tally total;
  bool any_failed = false;

  // The case re-run for --trace-json: prefer the first run that actually
  // exercised recovery, then the first whose faults at least fired, then
  // the first run at all. Runs are seeded, so the re-run is exact.
  hwgc::FuzzCase interesting{};
  std::string interesting_outcome;
  int interesting_rank = -1;

  for (const hwgc::FaultKind kind : opt.classes) {
    Tally& t = per_class[static_cast<std::size_t>(kind)];
    for (const std::uint32_t cores : opt.cores) {
      for (const std::uint32_t events : opt.events) {
        for (std::uint32_t s = 0; s < opt.seeds; ++s) {
          hwgc::FuzzCase fc;
          fc.graph_seed = opt.graph_seed + s;
          fc.graph.max_nodes = opt.max_nodes;
          // A floor of half the cap keeps the collection long enough that
          // trigger points drawn from [0, fault_scale) actually land in it.
          fc.graph.min_nodes = std::max(opt.max_nodes / 2, 1u);
          fc.cores = cores;
          fc.schedule = kSchedules[s % 4];
          fc.schedule_seed = opt.base_seed + s;
          fc.fault.seed = opt.base_seed + s;
          fc.fault.events = events;
          fc.fault.trigger_scale = opt.fault_scale;
          fc.fault.class_mask = 1u << static_cast<std::uint32_t>(kind);
          const hwgc::ConformanceVerdict v = hwgc::run_fuzz_case(fc);
          const hwgc::RecoveryReport recovery =
              v.report.recovery.value_or(hwgc::RecoveryReport{});

          ++t.runs;
          t.injected += recovery.faults_injected;
          t.fired += recovery.faults_fired;
          const Outcome kind_of_run = classify(v.ok, recovery);
          const std::string outcome = kOutcomes[kind_of_run];
          ++t.outcomes[kind_of_run];
          const int rank = kind_of_run != kMasked      ? 2
                           : recovery.faults_fired > 0 ? 1
                                                       : 0;
          if (rank > interesting_rank) {
            interesting = fc;
            interesting_outcome = outcome;
            interesting_rank = rank;
          }
          if (kind_of_run == kFailed) {
            any_failed = true;
            std::cout << "FAILED: " << to_string(kind) << " cores=" << cores
                      << " events=" << events << " seed=" << fc.fault.seed
                      << "\n"
                      << v.summary() << "\nrepro: fuzz_gc " << fc.summary()
                      << "\n";
          }
          if (opt.verbose) {
            std::cout << to_string(kind) << " cores=" << cores
                      << " events=" << events << " seed=" << fc.fault.seed
                      << ": " << outcome << " (" << recovery.attempts.size()
                      << " attempt(s), " << recovery.faults_fired
                      << " fired)\n";
          }
        }
      }
    }
  }

  std::cout << "\nfault class      runs  masked retried deconf fallbk FAILED"
               "  injected fired\n";
  for (std::size_t k = 0; k < hwgc::kFaultKindCount; ++k) {
    if (per_class[k].runs == 0) continue;
    print_row(to_string(static_cast<hwgc::FaultKind>(k)), per_class[k]);
    total += per_class[k];
  }
  print_row("TOTAL", total);

  if (!opt.trace_json.empty() && interesting_rank >= 0) {
    // Runs are deterministic: collecting the case's plan again, with the
    // bus attached, replays the recovery the oracle judged.
    const hwgc::ConformanceCase c = interesting.conformance_case();
    hwgc::Workload w = hwgc::materialize(c.plan);
    hwgc::TelemetryBus bus;
    const hwgc::RecoveryReport r =
        hwgc::RecoveringCollector(c.harness.coprocessor_config(), *w.heap)
            .collect(&bus);
    if (!hwgc::write_chrome_trace(bus, opt.trace_json)) {
      std::cerr << "error: failed to write " << opt.trace_json << "\n";
      return 1;
    }
    std::cout << "\nre-ran '" << interesting_outcome << "' case ("
              << interesting.summary() << ") with telemetry: "
              << r.attempts.size() << " attempt(s), " << r.faults_fired
              << " fault(s) fired\n"
              << "wrote recovery timeline (" << bus.spans().size()
              << " spans, " << bus.instants().size() << " instants) to "
              << opt.trace_json << "\n";
  }

  if (any_failed) {
    std::cout << "fault_lab: FAILURES detected — silent corruption or "
                 "unrecoverable collection\n";
    return 1;
  }
  std::cout << "fault_lab: all " << total.runs
            << " fault-injected run(s) recovered or masked; no silent "
               "corruption\n";
  return 0;
}
