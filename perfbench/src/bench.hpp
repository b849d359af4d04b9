// Shared pieces of the benchmark program: run options, the result one
// invocation reports, and the simulated-cycle aggregates both workload
// families compute from GcCycleStats.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/counters.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Per-key median over several passes' metric maps (a key missing from a
/// pass counts as 0 there).
inline std::map<std::string, double> medians(
    const std::vector<std::map<std::string, double>>& passes) {
  std::map<std::string, std::vector<double>> by_key;
  for (const auto& pass : passes) {
    for (const auto& [k, v] : pass) by_key[k];
  }
  for (auto& [k, vs] : by_key) {
    for (const auto& pass : passes) {
      const auto it = pass.find(k);
      vs.push_back(it == pass.end() ? 0.0 : it->second);
    }
  }
  std::map<std::string, double> out;
  for (const auto& [k, vs] : by_key) out[k] = median(vs);
  return out;
}

/// FNV-1a 64 over the 8 little-endian bytes of `v` (input fingerprints).
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
inline void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
}

/// Host threads of the timed passes: 3 pool workers plus the calling
/// thread on a 4-CPU host (the service's conductor, fig5's fourth worker).
constexpr std::size_t kPoolThreads = 3;

/// The SLO bound every workload judges latency against (heapd's default).
constexpr std::uint64_t kSloCycles = 1u << 14;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string lisp_trace;  ///< path of traces/lisp.jsonl
  std::string out_dir = ".";  ///< where the traced pass writes its spans
};

/// What one invocation reports. `end_to_end` and `per_layer` are keyed by
/// the metric names of BENCHMARK.json; main() prints them with units.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed correctness checks
  std::vector<std::string> info;    ///< digests, sample counts, notes
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
};

Outcome run_fig5(const RunOptions& opt);
Outcome run_serve(const RunOptions& opt);

/// Simulated-cycle aggregate over a set of collections.
struct CycleTotals {
  std::uint64_t collections = 0;
  std::uint64_t total_cycles = 0;
  std::uint64_t core_cycles = 0;  ///< sum of total_cycles x cores
  std::uint64_t worklist_empty_cycles = 0;
  std::array<std::uint64_t, hwgc::kStallReasonCount> stalls{};
  std::uint64_t mem_requests = 0;
  std::uint64_t fifo_hits = 0;
  std::uint64_t fifo_misses = 0;
  std::uint64_t fifo_overflows = 0;
  std::uint64_t words_copied = 0;
  std::uint64_t objects_copied = 0;

  void add(const hwgc::GcCycleStats& s) {
    ++collections;
    total_cycles += s.total_cycles;
    core_cycles += s.total_cycles * s.per_core.size();
    worklist_empty_cycles += s.worklist_empty_cycles;
    for (const auto& c : s.per_core) {
      for (std::size_t r = 0; r < stalls.size(); ++r) stalls[r] += c.stalls[r];
    }
    mem_requests += s.mem_requests;
    fifo_hits += s.fifo_hits;
    fifo_misses += s.fifo_misses;
    fifo_overflows += s.fifo_overflows;
    words_copied += s.words_copied;
    objects_copied += s.objects_copied;
  }

  /// Share of core-cycles stalled for `r`.
  double stall_share(hwgc::StallReason r) const {
    return core_cycles == 0 ? 0.0
                            : static_cast<double>(
                                  stalls[static_cast<std::size_t>(r)]) /
                                  static_cast<double>(core_cycles);
  }

  friend bool operator==(const CycleTotals&, const CycleTotals&) = default;
};

/// Per-layer metrics computed from collection aggregates, shared by every
/// workload: stall shares, memory-system counters, copy volume.
inline void put_cycle_layers(const CycleTotals& t,
                             std::map<std::string, double>& m) {
  using hwgc::StallReason;
  m["core.stall_share.scan_lock"] = t.stall_share(StallReason::kScanLock);
  m["core.stall_share.free_lock"] = t.stall_share(StallReason::kFreeLock);
  m["core.stall_share.header_lock"] = t.stall_share(StallReason::kHeaderLock);
  m["core.stall_share.barrier"] = t.stall_share(StallReason::kBarrier);
  m["mem.stall_share.header_load"] = t.stall_share(StallReason::kHeaderLoad);
  m["mem.stall_share.body_load"] = t.stall_share(StallReason::kBodyLoad);
  m["mem.stall_share.header_store"] = t.stall_share(StallReason::kHeaderStore);
  m["mem.stall_share.body_store"] = t.stall_share(StallReason::kBodyStore);
  m["mem.requests"] = static_cast<double>(t.mem_requests);
  const std::uint64_t scans = t.fifo_hits + t.fifo_misses;
  m["mem.fifo_hit_frac"] = scans == 0 ? 0.0
                                       : static_cast<double>(t.fifo_hits) /
                                             static_cast<double>(scans);
  m["mem.fifo_overflows"] = static_cast<double>(t.fifo_overflows);
  m["heap.words_copied"] = static_cast<double>(t.words_copied);
}

/// Tolerance on the traced pass: the spans below the pass's root must
/// account for at least this share of its wall time (the rest is untraced
/// glue in the benchmark's own loop).
constexpr double kMinSpanCoverage = 0.99;

/// bench.span_coverage of one traced pass: the time its root span's
/// descendants cover (their self times sum to it) over the pass's wall time.
inline double span_coverage(const std::map<std::string, double>& self,
                            double wall_s) {
  double covered = 0.0;
  for (const auto& [name, s] : self) {
    if (name != "bench.pass") covered += s;
  }
  return covered / wall_s;
}

}  // namespace perfbench
