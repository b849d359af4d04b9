// Unit and agitation coverage for the pauseless SATB snapshot collector
// (src/concurrent_mutator/). The conformance matrix already sweeps it
// through the property oracle; this binary pins the collector-specific
// contracts — quiescent determinism, the barrier/reconciliation counter
// semantics, shared-allocation backoff, torture agitation with real
// mutator threads, and the harness adapter's payload plumbing. Carries the
// concurrent-mutator-smoke label: the TSan CI job runs exactly this suite.
#include <gtest/gtest.h>

#include "concurrent_mutator/snapshot_collector.hpp"
#include "conformance/conformance.hpp"
#include "conformance/harness.hpp"
#include "heap/object_model.hpp"
#include "workloads/random_graph.hpp"

namespace hwgc {
namespace {

GraphPlan small_plan(std::uint64_t seed, std::uint32_t nodes = 120) {
  RandomGraphConfig g;
  g.nodes = nodes;
  return make_random_plan(seed, g);
}

TEST(SnapshotCollector, QuiescentCycleIsDeterministic) {
  const GraphPlan plan = small_plan(7);
  SnapshotCollector::Config cfg;
  cfg.threads = 1;
  cfg.mutator_threads = 0;  // quiescent: no mutators, fully deterministic
  Workload a = materialize(plan, 2.0);
  Workload b = materialize(plan, 2.0);
  const SnapshotGcStats sa = SnapshotCollector(cfg).collect(*a.heap);
  const SnapshotGcStats sb = SnapshotCollector(cfg).collect(*b.heap);
  EXPECT_EQ(sa.objects_copied, sb.objects_copied);
  EXPECT_EQ(sa.words_copied, sb.words_copied);
  EXPECT_EQ(sa.cas_ops, sb.cas_ops);
  EXPECT_EQ(sa.cas_failures, sb.cas_failures);
  EXPECT_EQ(sa.pause_cycles, sb.pause_cycles);
  EXPECT_EQ(sa.concurrent_cycles, sb.concurrent_cycles);
  EXPECT_EQ(sa.reconciliation_repairs, 0u);
  EXPECT_EQ(sa.dual_writes, 0u);
  EXPECT_EQ(sa.safe_point_waits, 0u);
  EXPECT_EQ(sa.validation_mismatches, 0u);
  EXPECT_GT(sa.objects_copied, 0u);
  // Heap images of deterministic runs are bit-identical.
  ASSERT_EQ(a.heap->alloc_ptr(), b.heap->alloc_ptr());
  for (Addr w = a.heap->layout().current_base(); w < a.heap->alloc_ptr();
       ++w) {
    ASSERT_EQ(a.heap->memory().load(w), b.heap->memory().load(w)) << w;
  }
}

TEST(SnapshotCollector, QuiescentTotalsStableAcrossWorkerCounts) {
  const GraphPlan plan = small_plan(11);
  SnapshotGcStats base;
  for (std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    SnapshotCollector::Config cfg;
    cfg.threads = threads;
    cfg.mutator_threads = 0;
    Workload w = materialize(plan, 2.0);
    const SnapshotGcStats s = SnapshotCollector(cfg).collect(*w.heap);
    if (threads == 1) {
      base = s;
      continue;
    }
    // Schedules differ but the copied set cannot: every snapshot-reachable
    // object is evacuated exactly once at any width.
    EXPECT_EQ(s.objects_copied, base.objects_copied) << threads;
    EXPECT_EQ(s.words_copied, base.words_copied) << threads;
  }
}

TEST(SnapshotCollector, MutatorCountersAndValidation) {
  SnapshotCollector::Config cfg;
  cfg.threads = 2;
  cfg.mutator_threads = 2;
  cfg.mutator_registers = 8;
  cfg.mutator_seed = 5;
  Workload w = materialize(small_plan(5), 3.0);
  const SnapshotGcStats s = SnapshotCollector(cfg).collect(*w.heap);
  EXPECT_EQ(s.validation_mismatches, 0u);
  EXPECT_EQ(s.mutator_threads, 2u);
  EXPECT_GT(s.mutator_ops, 0u);
  // Warmup guarantees pre-cycle barrier traffic; pause 1 parks every
  // mutator at least once (a park can legally serve both pauses when the
  // concurrent window outruns the thread's next poll).
  EXPECT_GT(s.mutator_allocations, 0u);
  EXPECT_GE(s.safe_point_waits, cfg.mutator_threads);
  // The concurrent window is real: at least the warmup ops ran in kIdle,
  // and the barrier saw pointer stores in one phase or the other.
  EXPECT_GE(s.mutator_ops, 2u * cfg.mutator_warmup_ops);
  EXPECT_GT(s.dual_writes + s.snapshot_stores, 0u);
  // Everything the reconcile pause repaired came from a logged store.
  EXPECT_LE(s.reconciliation_repairs, s.snapshot_stores);
}

TEST(SnapshotCollector, SurvivesTortureAgitationAcrossSeeds) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    ConformanceCase c;
    c.plan = small_plan(seed);
    c.harness.cores = 4;
    c.harness.mutator_threads = 3;
    c.harness.mutator_seed = seed * 31 + 1;
    c.harness.torture.seed = seed * 2654435761ULL + 17;
    c.harness.torture.yield_period = 3;
    const ConformanceVerdict v =
        run_conformance_case(CollectorId::kSnapshot, c);
    EXPECT_TRUE(v.ok) << "seed " << seed << ": " << v.summary();
  }
}

TEST(SnapshotCollector, HarnessAdapterCarriesSnapshotPayload) {
  HarnessConfig hc;
  hc.cores = 2;
  Workload w = materialize(small_plan(3), 3.0);
  const CycleReport r =
      make_harness(CollectorId::kSnapshot, hc)->collect(*w.heap);
  ASSERT_TRUE(r.snapshot.has_value());
  EXPECT_FALSE(r.coproc || r.sequential || r.parallel || r.concurrent);
  EXPECT_EQ(r.objects_copied, r.snapshot->objects_copied);
  EXPECT_EQ(r.words_copied, r.snapshot->words_copied);
  EXPECT_EQ(r.sync_ops, r.snapshot->cas_ops);
  EXPECT_EQ(r.validation_mismatches, r.snapshot->validation_mismatches);
  EXPECT_GT(r.snapshot->pause_cycles, 0u);
}

TEST(SnapshotCollector, SharedAllocationBacksOffInsteadOfThrowing) {
  Workload w = materialize(small_plan(2, 40), 2.0);
  Heap& heap = *w.heap;
  // Fill the current space to the brim through the thread-safe bump path;
  // exhaustion must surface as kNullPtr, never as an exception or a wild
  // allocation past the semispace end.
  std::size_t granted = 0;
  for (;;) {
    const Addr obj = heap.allocate_shared(2, 2);
    if (obj == kNullPtr) break;
    ASSERT_LT(obj, heap.layout().current_end());
    ++granted;
    ASSERT_LT(granted, std::size_t{1} << 24) << "allocator never exhausted";
  }
  EXPECT_GT(granted, 0u);
  EXPECT_EQ(heap.allocate_shared(2, 2), kNullPtr);  // stays exhausted
  EXPECT_LE(heap.alloc_ptr(), heap.layout().current_end());
}

TEST(SnapshotCollector, BackToBackCyclesReuseBothSemispaces) {
  // Two consecutive pauseless cycles flip the heap twice; the second cycle
  // must not trip over the first cycle's leftover headers (black bits in
  // what is now fromspace, stale words in what is now tospace).
  SnapshotCollector::Config cfg;
  cfg.threads = 2;
  cfg.mutator_threads = 2;
  cfg.mutator_registers = 6;
  Workload w = materialize(small_plan(9), 3.0);
  const SnapshotGcStats first = SnapshotCollector(cfg).collect(*w.heap);
  EXPECT_EQ(first.validation_mismatches, 0u);
  // What the first cycle's mutators left reachable in their register slots
  // depends on how their threads interleaved; the second cycle's guarantee
  // does not: every object reachable from the roots just before it is
  // copied (SATB totality), and the copies are closed and counted.
  const HeapSnapshot pre = HeapSnapshot::capture(*w.heap);
  HarnessConfig hc;
  hc.cores = cfg.threads;
  hc.mutator_threads = cfg.mutator_threads;
  hc.mutator_registers = cfg.mutator_registers;
  hc.mutator_seed = 99;
  const CycleReport second =
      make_harness(CollectorId::kSnapshot, hc)->collect(*w.heap);
  EXPECT_GE(second.objects_copied, pre.objects.size());
  std::vector<std::string> errors;
  check_post_structure(CollectorId::kSnapshot, pre, *w.heap, second, errors);
  EXPECT_TRUE(errors.empty()) << errors.front();
}

TEST(ObjectModel, OffsetClassifiesPointerAndDataFields) {
  const Word attrs = make_attributes(3, 2);
  EXPECT_FALSE(offset_is_pointer_field(attrs, 0));  // attributes word
  EXPECT_FALSE(offset_is_pointer_field(attrs, 1));  // link word
  EXPECT_TRUE(offset_is_pointer_field(attrs, kHeaderWords));
  EXPECT_TRUE(offset_is_pointer_field(attrs, kHeaderWords + 2));
  EXPECT_FALSE(offset_is_pointer_field(attrs, kHeaderWords + 3));  // data
  EXPECT_FALSE(offset_is_pointer_field(make_attributes(0, 4), kHeaderWords));
  // Flag bits must not leak into the pointer-count window.
  EXPECT_TRUE(
      offset_is_pointer_field(make_attributes(1, 0) | kBlackBit, 2));
}

}  // namespace
}  // namespace hwgc
