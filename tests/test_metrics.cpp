// Measurement-plumbing tests: the counters behind Tables I and II must be
// internally consistent, and the qualitative phenomena the paper reports
// must be visible in them.
#include <gtest/gtest.h>

#include "core/coprocessor.hpp"
#include "heap/verifier.hpp"
#include "workloads/benchmarks.hpp"

namespace hwgc {
namespace {

GcCycleStats run(BenchmarkId id, std::uint32_t cores, double scale = 0.02,
                 SimConfig cfg = SimConfig{}) {
  Workload w = make_benchmark(id, scale);
  cfg.coprocessor.num_cores = cores;
  Coprocessor coproc(cfg, *w.heap);
  return coproc.collect();
}

TEST(Metrics, PerCoreCycleAccountingIsComplete) {
  const GcCycleStats s = run(BenchmarkId::kJavacc, 4);
  for (const auto& core : s.per_core) {
    // Every cycle a core lives through is busy, stalled or idle; the sum
    // can only fall short of total_cycles by the post-halt drain tail.
    const Cycle accounted =
        core.busy_cycles + core.idle_cycles + core.total_stalls();
    EXPECT_LE(accounted, s.total_cycles);
    EXPECT_GE(accounted + 64, s.total_cycles)
        << "unaccounted cycles beyond the flush tail";
  }
}

TEST(Metrics, ObjectCountsBalance) {
  const GcCycleStats s = run(BenchmarkId::kDb, 8);
  std::uint64_t scanned = 0, evacuated = 0;
  for (const auto& core : s.per_core) {
    scanned += core.objects_scanned;
    evacuated += core.objects_evacuated;
  }
  EXPECT_EQ(scanned, evacuated) << "every evacuated object is scanned once";
  EXPECT_EQ(evacuated, s.objects_copied);
  EXPECT_EQ(s.fifo_hits + s.fifo_misses, s.objects_copied)
      << "every scan header comes from the FIFO or from memory";
}

TEST(Metrics, WordsCopiedMatchesLiveSet) {
  Workload w = make_benchmark(BenchmarkId::kJlisp, 0.05);
  const HeapSnapshot pre = HeapSnapshot::capture(*w.heap);
  SimConfig cfg;
  cfg.coprocessor.num_cores = 4;
  Coprocessor coproc(cfg, *w.heap);
  const GcCycleStats s = coproc.collect();
  EXPECT_EQ(s.words_copied, pre.live_words);
}

TEST(Metrics, LinearGraphStarvesWorklistAtHighCoreCounts) {
  const GcCycleStats two = run(BenchmarkId::kSearch, 2, 0.05);
  const GcCycleStats sixteen = run(BenchmarkId::kSearch, 16, 0.05);
  EXPECT_GT(two.worklist_empty_fraction(), 0.5);
  EXPECT_GT(sixteen.worklist_empty_fraction(),
            two.worklist_empty_fraction());
}

TEST(Metrics, ParallelGraphKeepsWorklistFull) {
  const GcCycleStats s = run(BenchmarkId::kDb, 16, 0.05);
  EXPECT_LT(s.worklist_empty_fraction(), 0.05);
}

TEST(Metrics, HubContentionShowsAsHeaderLockStalls) {
  const GcCycleStats javac = run(BenchmarkId::kJavac, 16, 0.05);
  const GcCycleStats db = run(BenchmarkId::kDb, 16, 0.05);
  EXPECT_GT(javac.mean_stall(StallReason::kHeaderLock),
            10 * (db.mean_stall(StallReason::kHeaderLock) + 1));
}

TEST(Metrics, CupOverflowsTheHeaderFifo) {
  const GcCycleStats cup = run(BenchmarkId::kCup, 16, 0.05);
  EXPECT_GT(cup.fifo_overflows, 0u);
  EXPECT_GT(cup.fifo_misses, 0u);
  const GcCycleStats jlisp = run(BenchmarkId::kJlisp, 16, 0.05);
  EXPECT_EQ(jlisp.fifo_overflows, 0u);
}

TEST(Metrics, HigherLatencyImprovesRelativeScaling) {
  // Figure 6's counter-intuitive phenomenon, as a testable property.
  SimConfig base;
  SimConfig slow;
  slow.memory.latency += 20;
  slow.memory.header_latency += 20;
  const double speedup_base =
      static_cast<double>(run(BenchmarkId::kDb, 1, 0.05, base).total_cycles) /
      static_cast<double>(run(BenchmarkId::kDb, 16, 0.05, base).total_cycles);
  const double speedup_slow =
      static_cast<double>(run(BenchmarkId::kDb, 1, 0.05, slow).total_cycles) /
      static_cast<double>(run(BenchmarkId::kDb, 16, 0.05, slow).total_cycles);
  EXPECT_GT(speedup_slow, speedup_base);
}

TEST(Metrics, UncontendedLocksCostNothing) {
  // Section V-C: "synchronization operations incur no clock cycle penalty
  // in the uncontended case" — a single core must report zero lock stalls.
  const GcCycleStats s = run(BenchmarkId::kJavac, 1);
  EXPECT_EQ(s.per_core[0].stall(StallReason::kScanLock), 0u);
  EXPECT_EQ(s.per_core[0].stall(StallReason::kFreeLock), 0u);
  EXPECT_EQ(s.per_core[0].stall(StallReason::kHeaderLock), 0u);
}

TEST(Metrics, EmptyStatsProduceFiniteDerivedValues) {
  // A default (or aborted) stats object must not divide by zero: both
  // derived quantities feed the JSONL schema, which rejects NaN/inf.
  const GcCycleStats s;
  EXPECT_EQ(s.worklist_empty_fraction(), 0.0);
  EXPECT_EQ(s.mean_stall(StallReason::kScanLock), 0.0);
}

TEST(Metrics, WorklistEmptyFractionClampsInconsistentCounters) {
  GcCycleStats s;
  s.total_cycles = 10;
  s.worklist_empty_cycles = 25;  // inconsistent (e.g. aborted mid-update)
  EXPECT_EQ(s.worklist_empty_fraction(), 1.0);
  s.worklist_empty_cycles = 10;  // boundary: every cycle empty
  EXPECT_EQ(s.worklist_empty_fraction(), 1.0);
  s.worklist_empty_cycles = 5;
  EXPECT_EQ(s.worklist_empty_fraction(), 0.5);
}

TEST(Metrics, TotalStallsSaturatesInsteadOfWrapping) {
  // Hardware counters latch at all-ones; the software sum must do the
  // same — a wrapped total would report a saturated core as nearly
  // stall-free.
  CoreCounters c;
  c.stalls[static_cast<std::size_t>(StallReason::kScanLock)] = ~Cycle{0} - 10;
  c.stalls[static_cast<std::size_t>(StallReason::kBodyLoad)] = 100;
  EXPECT_EQ(c.total_stalls(), ~Cycle{0});
  // Exactly at the ceiling is still representable.
  c.stalls[static_cast<std::size_t>(StallReason::kBodyLoad)] = 10;
  EXPECT_EQ(c.total_stalls(), ~Cycle{0});
  // Comfortably below it, the sum is exact.
  c.stalls[static_cast<std::size_t>(StallReason::kScanLock)] = 7;
  EXPECT_EQ(c.total_stalls(), 17u);
}

TEST(Metrics, StoreStallsAreNegligible) {
  // Table II: store stalls are ~0 everywhere (stores retire on
  // acceptance).
  for (BenchmarkId id : {BenchmarkId::kDb, BenchmarkId::kJavacc}) {
    const GcCycleStats s = run(id, 16, 0.05);
    const double total = static_cast<double>(s.total_cycles);
    EXPECT_LT(s.mean_stall(StallReason::kBodyStore) / total, 0.02)
        << benchmark_name(id);
    EXPECT_LT(s.mean_stall(StallReason::kHeaderStore) / total, 0.02)
        << benchmark_name(id);
  }
}

}  // namespace
}  // namespace hwgc
