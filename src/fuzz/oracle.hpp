// Differential oracle for schedule-exploration fuzzing.
//
// A FuzzCase fixes one (graph × schedule × hardware-knob) configuration.
// run_fuzz_case materializes the same plan twice, collects one heap with
// the coprocessor under the case's schedule policy and the other with the
// sequential Cheney reference, then checks:
//   * both heaps against their pre-cycle HeapSnapshot (DESIGN.md inv. 1-4),
//   * forwarding-map bijectivity onto the dense tospace extent,
//   * byte-for-byte equivalence of the two tospace images modulo copy
//     order (shapes, data words, and pointer fields resolved back to the
//     pre-cycle object they denote),
//   * lock-order-auditor emptiness,
//   * per-object single-evacuation counters against the snapshot and the
//     sequential reference.
// Everything is deterministic: the same FuzzCase reproduces the same run
// bit-for-bit, which is what makes minimized reproducers possible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/sequential_cheney.hpp"
#include "fault/recovery.hpp"
#include "fuzz/fuzz_graph.hpp"
#include "sim/config.hpp"
#include "sim/counters.hpp"

namespace hwgc {

struct FuzzCase {
  std::uint64_t graph_seed = 1;
  FuzzGraphConfig graph{};

  SchedulePolicyKind schedule = SchedulePolicyKind::kFixedPriority;
  std::uint64_t schedule_seed = 0;

  std::uint32_t num_cores = 8;
  std::uint32_t header_fifo_capacity = 32 * 1024;
  Cycle latency_jitter = 0;
  bool subobject_copy = false;
  bool markbit_early_read = false;

  /// Hardware fault injection (fault.enabled() routes the case through the
  /// detection-and-recovery machinery instead of the bare coprocessor).
  FaultConfig fault{};

  /// The simulator configuration this case runs under.
  SimConfig sim_config() const;

  /// Replayable one-line description in `fuzz_gc` flag syntax, rendered
  /// from add_fuzz_case_flags: the pinned core of the case plus every
  /// field that differs from its default.
  std::string summary() const;
};

class Flags;

/// Declares the flags that spell out one FuzzCase, bound to `fc`: the one
/// table fuzz_gc parses an explicit case with and summary() renders.
void add_fuzz_case_flags(Flags& flags, FuzzCase& fc);

struct FuzzVerdict {
  bool ok = true;
  std::vector<std::string> errors;

  GcCycleStats coproc;
  SequentialGcStats sequential;
  std::uint64_t live_objects = 0;

  /// Filled for fault-injected cases: how the run was recovered. The
  /// oracle guarantees that a !ok verdict is raised whenever recovery
  /// reported failure, the accounting doesn't add up, or the recovered
  /// heap diverges from the sequential reference — an injected fault can
  /// be masked or explicitly recovered, never silently corrupting.
  bool fault_run = false;
  RecoveryReport recovery;

  /// Tail of the per-cycle step orders; filled only on failure.
  std::string schedule_tail;

  void fail(std::string msg) {
    ok = false;
    if (errors.size() < 64) errors.push_back(std::move(msg));
  }
  std::string summary() const;
};

/// Runs one case through the differential oracle. `telemetry`, when
/// non-null, records the coprocessor (or recovery) run of the case — handy
/// for exporting the timeline of a failing schedule.
FuzzVerdict run_fuzz_case(const FuzzCase& fc, TelemetryBus* telemetry = nullptr);

/// Expands a single master seed into a full case: graph seed, schedule
/// policy and seed, core count, FIFO capacity, latency jitter and the
/// optional collector features are all derived from `master_seed` via
/// splitmix64, so `fuzz_gc --seed N` is a complete reproducer.
FuzzCase case_from_seed(std::uint64_t master_seed);

/// Greedy reproducer minimization: repeatedly tries to shrink the graph,
/// drop collector features and reduce the core count while the oracle
/// still fails, spending at most `budget` oracle runs. Returns the
/// smallest still-failing case found (the input itself in the worst case).
FuzzCase minimize_case(const FuzzCase& failing, std::uint32_t budget = 48);

}  // namespace hwgc
