// The benchmark trajectory: BENCH_trajectory.json at the repository root,
// one "hwgc-trajectory-v1" line per change, appended and never rewritten.
// Each line holds perfbench's end-to-end metrics (`--trace 0`) for both
// gated workloads, each workload's `core.ns_per_sim_cycle` (`--trace 1`)
// and the wall time of the tier-1 ctest run, together with the host they
// were measured on. Host times compare only between lines of one host, so
// the file is validated for its schema and never byte-gated.
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "telemetry/jsonl.hpp"

namespace hwgc {

constexpr std::string_view kTrajectorySchema = "hwgc-trajectory-v1";

struct TrajectoryRow {
  std::string commit;  ///< measured tree: a commit, or "<parent>+" before one
  std::string label;   ///< what the change did, in a few words
  std::string host;    ///< hardware, compiler and build type
  /// "<workload>_<metric>" -> value, for every metric of trajectory_table().
  std::map<std::string, double> metrics;
  double ctest_wall_s = 0.0;
};

/// The hwgc-trajectory-v1 field table: per workload (fig5_collect,
/// serve_lisp) its eight end-to-end metrics and ns_per_sim_cycle.
const JsonRecordTable<TrajectoryRow>& trajectory_table();

/// Validates one JSONL line against hwgc-trajectory-v1: the field table,
/// then the identities (positive times, ordered latency percentiles, a
/// miss fraction within [0, 1], a non-empty commit).
bool validate_trajectory_jsonl_line(const std::string& line,
                                    std::string* error);

}  // namespace hwgc
