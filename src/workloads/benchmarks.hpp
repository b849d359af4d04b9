// Synthetic stand-ins for the paper's eight Java benchmarks.
//
// We cannot run SPEC-jvm98/javacc/jflex/jlisp on the simulated coprocessor
// (the prototype's Java toolchain is not available), but the collection-
// time behaviour the paper measures is a function of the *heap shape*
// alone: object-size distribution, graph linearity (object-level
// parallelism), fan-in hot spots and gray-population width. Each generator
// below reproduces the shape the paper attributes to its benchmark; see
// DESIGN.md §6 for the recipe table and EXPERIMENTS.md for the calibration.
//
//   compress  linear vine with cheap leaf nodes — object-level parallelism
//             saturates around 2-3 cores (Table I: empty worklist >98 %
//             from 4 cores on).
//   search    pure linear chain of tiny nodes — essentially no parallelism
//             (empty worklist from 2 cores on).
//   db        thousands of independent record chains with per-record value
//             objects — scales well; header-load bound at 16 cores.
//   javac     many statement chains whose expression nodes reference a few
//             hot symbol-table "hub" objects — header-LOCK contention.
//   javacc    a forest of narrow parse trees — scales well, modest stalls.
//   jflex     a handful of long transition chains — scales to ~8 cores,
//             starves at 16 (Table I: 35 % empty).
//   jlisp     a small cons-cell tree — tiny live set, small totals.
//   cup       very wide two-level parser-table graph — the gray population
//             exceeds the 32k-entry header FIFO, causing overflow misses
//             and the prolonged scan critical section of Table II.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "workloads/graph_plan.hpp"

namespace hwgc {

enum class BenchmarkId {
  kCompress,
  kCup,
  kDb,
  kJavac,
  kJavacc,
  kJflex,
  kJlisp,
  kSearch,
};

std::string_view benchmark_name(BenchmarkId id);

/// All eight benchmarks in the paper's (alphabetical) table order.
const std::vector<BenchmarkId>& all_benchmarks();

/// Parses a benchmark name as printed by benchmark_name; nullopt on junk.
std::optional<BenchmarkId> parse_benchmark(std::string_view name);

/// Builds the graph plan for one benchmark. `scale` multiplies the live-set
/// size (1.0 reproduces paper-magnitude collection cycles; benches default
/// to smaller scales for runtime, which does not change the shape of the
/// results — the paper notes heap size had little influence). `seed` varies
/// the pseudo-random details of the shape.
GraphPlan make_benchmark_plan(BenchmarkId id, double scale = 1.0,
                              std::uint64_t seed = 42);

/// Convenience: plan + materialize with the default 2x heap factor.
Workload make_benchmark(BenchmarkId id, double scale = 1.0,
                        std::uint64_t seed = 42);

}  // namespace hwgc
