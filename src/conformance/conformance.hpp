// Property-based conformance oracle, the one oracle every collection in
// the repository goes through: the conformance matrix, the torture driver,
// the schedule fuzzer (src/fuzz/, as coprocessor cases) and, per cycle of
// a live Runtime (CycleOracle), trace replay and every heap-service shard.
// One case = one graph plan + one harness configuration; the oracle
// materializes the plan, runs the collector behind its CollectorHarness,
// and checks the properties the collector's traits promise:
//
//   * forwarding-map bijectivity — total over the pre-live set and
//     injective (image-preserving collectors), injective over the
//     evacuated subset (concurrent, whose mutator may disconnect objects
//     mid-cycle so totality is not guaranteed by design);
//   * liveness preservation — verify_collection's graph isomorphism walk;
//   * dense tospace packing where the collector promises it, fragmentation
//     accounting (words_copied + wasted_words == consumed extent) where it
//     does not (chunk/LAB collectors);
//   * single-evacuation counters — the collector's own evacuation count
//     equals the pre-live object count (injectivity rules out doubles, the
//     counter rules out phantom or lost evacuations);
//   * cross-collector image equivalence against the sequential Cheney
//     reference run over the same plan;
//   * idempotence of immediate re-collection — a second cycle over the
//     freshly collected heap must preserve the graph again and copy
//     exactly the same live set;
//   * for fault-injected coprocessor runs, recovery and its fault
//     accounting — an injected fault may be masked or recovered, never
//     silently corrupting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "conformance/harness.hpp"
#include "heap/verifier.hpp"
#include "runtime/runtime.hpp"
#include "workloads/graph_plan.hpp"

namespace hwgc {

struct ConformanceCase {
  GraphPlan plan;
  HarnessConfig harness{};
  /// Re-collect the collected heap and re-verify (skipped for the
  /// concurrent collector, where the second cycle goes through the
  /// sequential reference instead — its mutator would change the graph).
  bool check_idempotence = true;
  /// Compare the tospace image against a sequential Cheney run over the
  /// same plan (image-preserving collectors only).
  bool cross_compare = true;
  /// Extra heap headroom multiplier on top of the computed factor — the
  /// torture driver raises it for heavy oversubscription sweeps.
  double extra_heap_factor = 1.0;
};

struct ConformanceVerdict {
  bool ok = true;
  std::vector<std::string> errors;
  std::size_t live_objects = 0;
  std::uint64_t live_words = 0;
  CycleReport report;

  void fail(std::string msg) {
    ok = false;
    if (errors.size() < 64) errors.push_back(std::move(msg));
  }
  std::string summary() const;
};

/// Heap sizing for a case: the paper's 2x rule of thumb, widened for
/// chunk/LAB collectors under heavy thread counts so per-thread allocation
/// slack cannot exhaust tospace on small graphs.
double conformance_heap_factor(CollectorId id, const ConformanceCase& c);

/// Structural post-state checks on an already-collected heap: recovery
/// accounting, lock order, liveness (verify_collection), forwarding
/// bijectivity, density or fragmentation accounting, and counter
/// consistency — everything that can be judged
/// from (pre snapshot, post heap, report). Shared by run_conformance_case
/// and the negative tests, which seed deliberate corruptions into the post
/// heap and expect these checks to name them specifically.
void check_post_structure(CollectorId id, const HeapSnapshot& pre,
                          const Heap& post, const CycleReport& report,
                          std::vector<std::string>& errors);

/// Runs one full conformance case for `id`.
ConformanceVerdict run_conformance_case(CollectorId id,
                                        const ConformanceCase& c);

/// The per-cycle oracle of a live Runtime: a snapshot before every
/// collection (explicit or allocation-triggered), and check_post_structure
/// after it against the report the Runtime's harness kept
/// (Runtime::last_report) — the full contract of the Runtime's collector,
/// recovery accounting included for faulted and recovered cycles. Refused
/// and unrecoverable cycles are never checked (the Runtime published no
/// heap for them).
class CycleOracle final : public CollectionObserver {
 public:
  /// Findings read "<label>cycle N: <finding>", N the cycle's index in
  /// gc_history(); the first `max_findings` are kept, all are counted.
  CycleOracle(std::string label, std::size_t max_findings)
      : label_(std::move(label)), max_findings_(max_findings) {}

  void before_collection(Runtime& rt) override;
  void after_collection(Runtime& rt, const GcCycleStats& stats) override;

  std::uint64_t failures() const noexcept { return failures_; }
  const std::vector<std::string>& findings() const noexcept {
    return findings_;
  }

 private:
  std::string label_;
  std::size_t max_findings_;
  HeapSnapshot pre_;
  std::uint64_t failures_ = 0;
  std::vector<std::string> findings_;
};

}  // namespace hwgc
