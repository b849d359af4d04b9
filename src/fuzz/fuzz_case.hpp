// Schedule-exploration fuzz cases.
//
// A FuzzCase fixes one (graph × schedule × hardware-knob) configuration:
// a fuzz graph plan (fuzz/fuzz_graph.hpp) collected by the coprocessor
// under one CoprocessorKnobs record, optionally with a seeded fault plan.
// run_fuzz_case hands it to the conformance oracle as a coprocessor
// ConformanceCase, so a fuzz case is checked exactly like every other
// collection: liveness, forwarding bijectivity, dense tiling, lock order,
// evacuation counters, the image cross-compare against sequential Cheney,
// idempotent re-collection and, for fault cases, the recovery accounting.
// Everything is deterministic: the same FuzzCase reproduces the same run
// bit-for-bit, which is what makes minimized reproducers possible.
#pragma once

#include <cstdint>
#include <string>

#include "conformance/conformance.hpp"
#include "fuzz/fuzz_graph.hpp"
#include "sim/config.hpp"

namespace hwgc {

struct FuzzCase : CoprocessorKnobs {
  std::uint64_t graph_seed = 1;
  FuzzGraphConfig graph{};

  /// Hardware fault injection (fault.enabled() routes the case through the
  /// detection-and-recovery machinery instead of the bare coprocessor).
  FaultConfig fault{};

  /// The coprocessor conformance case this fuzz case names.
  ConformanceCase conformance_case() const;

  /// Replayable one-line description in `fuzz_gc` flag syntax, rendered
  /// from add_fuzz_case_flags: the pinned core of the case plus every
  /// field that differs from its default.
  std::string summary() const;
};

class Flags;

/// Declares the flags that spell out one FuzzCase, bound to `fc`: the one
/// table fuzz_gc parses an explicit case with and summary() renders.
void add_fuzz_case_flags(Flags& flags, FuzzCase& fc);

/// Runs one case through the conformance oracle as a coprocessor case.
ConformanceVerdict run_fuzz_case(const FuzzCase& fc);

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
