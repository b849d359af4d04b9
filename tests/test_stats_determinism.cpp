// Counter-determinism contract for ParallelGcStats (and the simulators).
//
// At one thread every software baseline is a deterministic program: same
// seed + same config => bit-identical counters, including the torture
// agitator's perturbation stream. At higher thread counts the host
// scheduler owns the interleaving, so only the schedule-independent subset
// (what was copied) is promised — the schedule-dependent sync-op counters
// varying run to run is precisely the software-synchronization cost
// nondeterminism the paper's hardware arbitration removes.
#include <gtest/gtest.h>

#include "conformance/harness.hpp"
#include "workloads/random_graph.hpp"

namespace hwgc {
namespace {

constexpr std::uint64_t kGraphSeed = 42;

CycleReport run_once(CollectorId id, std::uint32_t threads,
                     bool torture = true) {
  RandomGraphConfig g;
  g.nodes = 90;
  const GraphPlan plan = make_random_plan(kGraphSeed, g);
  Workload w = materialize(plan, 4.0);  // headroom for the LAB collectors
  HarnessConfig cfg;
  cfg.cores = threads;
  cfg.schedule_seed = 7;
  cfg.mutator_seed = 7;
  if (torture) cfg.torture.seed = 0xdecafbad;
  return make_harness(id, cfg)->collect(*w.heap);
}

const CollectorId kSoftwareBaselines[] = {
    CollectorId::kNaive, CollectorId::kChunked, CollectorId::kPackets,
    CollectorId::kStealing};

TEST(StatsDeterminism, SingleThreadCountersAreBitIdentical) {
  for (CollectorId id : kSoftwareBaselines) {
    const CycleReport a = run_once(id, 1);
    const CycleReport b = run_once(id, 1);
    ASSERT_TRUE(a.parallel && b.parallel) << to_string(id);
    const ParallelGcStats& sa = *a.parallel;
    const ParallelGcStats& sb = *b.parallel;
    EXPECT_EQ(sa.objects_copied, sb.objects_copied) << to_string(id);
    EXPECT_EQ(sa.words_copied, sb.words_copied) << to_string(id);
    EXPECT_EQ(sa.wasted_words, sb.wasted_words) << to_string(id);
    EXPECT_EQ(sa.cas_ops, sb.cas_ops) << to_string(id);
    EXPECT_EQ(sa.cas_failures, sb.cas_failures) << to_string(id);
    EXPECT_EQ(sa.mutex_acquisitions, sb.mutex_acquisitions) << to_string(id);
    EXPECT_EQ(sa.steal_attempts, sb.steal_attempts) << to_string(id);
    // A lone thread can never lose an evacuation race.
    EXPECT_EQ(sa.cas_failures, 0u) << to_string(id);
  }
}

TEST(StatsDeterminism, CopyCountersAreScheduleIndependent) {
  for (CollectorId id : kSoftwareBaselines) {
    const CycleReport a = run_once(id, 4);
    const CycleReport b = run_once(id, 4);
    // What was copied is fixed by the graph, not by the interleaving.
    EXPECT_EQ(a.objects_copied, b.objects_copied) << to_string(id);
    EXPECT_EQ(a.words_copied, b.words_copied) << to_string(id);
    EXPECT_EQ(a.evacuations, b.evacuations) << to_string(id);
    // Consistency invariants that hold under any schedule.
    ASSERT_TRUE(a.parallel) << to_string(id);
    // Every evacuation costs at least one synchronization operation in
    // every software scheme (the cost hardware arbitration makes free).
    EXPECT_GE(a.sync_ops, a.objects_copied) << to_string(id);
  }
}

TEST(StatsDeterminism, SingleThreadMatchesAnyWidth) {
  // The copied set must also agree across thread counts.
  for (CollectorId id : kSoftwareBaselines) {
    const CycleReport one = run_once(id, 1);
    const CycleReport eight = run_once(id, 8);
    EXPECT_EQ(one.objects_copied, eight.objects_copied) << to_string(id);
    EXPECT_EQ(one.words_copied, eight.words_copied) << to_string(id);
  }
}

TEST(StatsDeterminism, SimulatorsAreFullyDeterministic) {
  // The two cycle-accurate simulators promise determinism at any core
  // count: same seeds => same cycle counts, not just same copy totals.
  const CycleReport a = run_once(CollectorId::kCoprocessor, 8, false);
  const CycleReport b = run_once(CollectorId::kCoprocessor, 8, false);
  ASSERT_TRUE(a.coproc && b.coproc);
  EXPECT_EQ(a.coproc->total_cycles, b.coproc->total_cycles);
  EXPECT_EQ(a.coproc->objects_copied, b.coproc->objects_copied);
  EXPECT_EQ(a.coproc->worklist_empty_cycles, b.coproc->worklist_empty_cycles);
  EXPECT_EQ(a.coproc->mem_requests, b.coproc->mem_requests);

  const CycleReport c = run_once(CollectorId::kConcurrent, 4, false);
  const CycleReport d = run_once(CollectorId::kConcurrent, 4, false);
  ASSERT_TRUE(c.concurrent && d.concurrent);
  EXPECT_EQ(c.concurrent->gc.total_cycles, d.concurrent->gc.total_cycles);
  EXPECT_EQ(c.concurrent->mutator_ops, d.concurrent->mutator_ops);
  EXPECT_EQ(c.concurrent->barrier_gray_reads, d.concurrent->barrier_gray_reads);
  EXPECT_EQ(c.concurrent->barrier_evacuations,
            d.concurrent->barrier_evacuations);
  EXPECT_EQ(c.concurrent->barrier_dual_writes,
            d.concurrent->barrier_dual_writes);
  EXPECT_EQ(c.concurrent->longest_pause, d.concurrent->longest_pause);
}

}  // namespace
}  // namespace hwgc
