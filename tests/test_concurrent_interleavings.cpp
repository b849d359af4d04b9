// Concurrent-cycle mutator interleavings, oracle-verified at 1, 2 and 8
// GC cores: the three barrier mechanisms — barrier-assisted evacuation
// (the mutator copies an object itself on a gray read), the write-to-gray
// dual store, and Baker-style bump-down allocation — must each actually
// fire during the sweep, and every cycle they fire in must still pass the
// conformance oracle (shadow graph intact, evacuated subset dense and
// injective, roots redirected).
#include <gtest/gtest.h>

#include "conformance/conformance.hpp"
#include "conformance/harness.hpp"
#include "workloads/random_graph.hpp"

namespace hwgc {
namespace {

struct SweepTotals {
  std::uint64_t gray_reads = 0;
  std::uint64_t evacuations = 0;
  std::uint64_t dual_writes = 0;
  std::uint64_t allocations = 0;
  std::uint64_t alloc_backoffs = 0;
  std::uint64_t mutator_ops = 0;
};

/// Runs a seed sweep at `cores` and verifies every cycle; returns the
/// accumulated barrier counters so callers can assert coverage.
SweepTotals sweep(std::uint32_t cores) {
  SweepTotals totals;
  for (std::uint64_t seed : {11ull, 12ull, 13ull, 14ull, 15ull, 16ull}) {
    RandomGraphConfig g;
    g.nodes = 220;  // long enough cycles for the mutator to interleave
    ConformanceCase c;
    c.plan = make_random_plan(seed, g);
    c.harness.cores = cores;
    c.harness.mutator_seed = seed * 31 + cores;
    c.harness.mutator_op_spacing = 1;  // an operation every cycle
    const ConformanceVerdict v = run_conformance_case(CollectorId::kConcurrent, c);
    EXPECT_TRUE(v.ok) << "cores=" << cores << " seed=" << seed << ": "
                      << v.summary();
    if (!v.report.concurrent.has_value()) {
      ADD_FAILURE() << "concurrent payload missing for seed " << seed;
      continue;
    }
    const ConcurrentStats& s = *v.report.concurrent;
    EXPECT_EQ(s.validation_mismatches, 0u);
    totals.gray_reads += s.barrier_gray_reads;
    totals.evacuations += s.barrier_evacuations;
    totals.dual_writes += s.barrier_dual_writes;
    totals.allocations += s.mutator_allocations;
    totals.alloc_backoffs += s.mutator_alloc_backoffs;
    totals.mutator_ops += s.mutator_ops;
  }
  return totals;
}

class InterleavingSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(InterleavingSweep, AllThreeBarrierMechanismsFireAndVerify) {
  const SweepTotals t = sweep(GetParam());
  // The mutator must actually have run against the collector...
  EXPECT_GT(t.mutator_ops, 0u);
  // ...and each mechanism must have been exercised somewhere in the sweep:
  // reads redirected through gray backlinks, at least one of which found a
  // fromspace pointer and evacuated it from the mutator's side,
  EXPECT_GT(t.gray_reads, 0u);
  EXPECT_GT(t.evacuations, 0u);
  // stores to gray objects dual-written to frame and original,
  EXPECT_GT(t.dual_writes, 0u);
  // and Baker bump-down allocations born black during the cycle.
  EXPECT_GT(t.allocations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Cores, InterleavingSweep,
                         ::testing::Values(1u, 2u, 8u),
                         [](const ::testing::TestParamInfo<std::uint32_t>& i) {
                           return "cores" + std::to_string(i.param);
                         });

TEST(Interleavings, MoreCoresShortenThePauseStory) {
  // Not a performance test — a sanity check that the sweep's pause metric
  // is being recorded at all widths (the paper's concurrent headline).
  for (std::uint32_t cores : {1u, 2u, 8u}) {
    RandomGraphConfig g;
    g.nodes = 150;
    ConformanceCase c;
    c.plan = make_random_plan(77, g);
    c.harness.cores = cores;
    c.harness.mutator_op_spacing = 1;
    const ConformanceVerdict v =
        run_conformance_case(CollectorId::kConcurrent, c);
    ASSERT_TRUE(v.ok) << v.summary();
    ASSERT_TRUE(v.report.concurrent.has_value());
    EXPECT_LT(v.report.concurrent->longest_pause,
              v.report.concurrent->gc.total_cycles);
  }
}

}  // namespace
}  // namespace hwgc
