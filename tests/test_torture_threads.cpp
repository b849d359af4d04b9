// Concurrency torture sweep for the threaded baselines: thread counts up
// to heavy oversubscription, with the TortureAgitator injecting a
// barrier-synchronized start (all workers released into the racy first
// evacuations together), seeded start stagger and yield chaos. Carries the
// tsan-smoke ctest label: under -DHWGC_SANITIZE=thread this file is the
// designated race hunt.
#include <gtest/gtest.h>

#include <sstream>

#include "conformance/conformance.hpp"
#include "conformance/harness.hpp"
#include "workloads/random_graph.hpp"

namespace hwgc {
namespace {

struct TortureParam {
  CollectorId id;
  std::uint64_t seed;
  std::uint32_t threads;
};

std::string torture_name(const ::testing::TestParamInfo<TortureParam>& info) {
  std::ostringstream os;
  os << to_string(info.param.id) << "_s" << info.param.seed << "_t"
     << info.param.threads;
  return os.str();
}

class TortureSweep : public ::testing::TestWithParam<TortureParam> {};

TEST_P(TortureSweep, PerturbedScheduleStillConforms) {
  const TortureParam p = GetParam();
  RandomGraphConfig g;
  g.nodes = 64;  // small graphs maximize the racy fraction of the cycle
  ConformanceCase c;
  c.plan = make_random_plan(p.seed, g);
  c.harness.cores = p.threads;
  c.harness.torture.seed = p.seed * 2654435761u + p.threads;
  c.harness.torture.yield_period = 3;  // aggressive preemption chaos
  const ConformanceVerdict v = run_conformance_case(p.id, c);
  EXPECT_TRUE(v.ok) << v.summary();
}

std::vector<TortureParam> torture_params() {
  std::vector<TortureParam> params;
  const CollectorId kThreaded[] = {CollectorId::kNaive, CollectorId::kChunked,
                                   CollectorId::kPackets,
                                   CollectorId::kStealing};
  // 16 threads is heavy oversubscription on any CI host — every wait in
  // the collectors must tolerate a worker losing its timeslice anywhere.
  constexpr std::uint32_t kThreads[] = {2, 4, 16};
  constexpr std::uint64_t kSeeds[] = {101, 202};
  for (CollectorId id : kThreaded) {
    for (std::uint32_t t : kThreads) {
      for (std::uint64_t s : kSeeds) params.push_back({id, s, t});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(ThreadedBaselines, TortureSweep,
                         ::testing::ValuesIn(torture_params()), torture_name);

TEST(Torture, AgitatorOffIsANoOp) {
  // seed == 0 disables every perturbation: identical results to a config
  // that never mentions torture (the knob must be safe to leave default).
  RandomGraphConfig g;
  g.nodes = 50;
  const GraphPlan plan = make_random_plan(7, g);
  HarnessConfig with, without;
  with.cores = without.cores = 1;
  with.torture.seed = 0;
  Workload a = materialize(plan, 2.0);
  Workload b = materialize(plan, 2.0);
  const CycleReport ra = make_harness(CollectorId::kPackets, with)->collect(*a.heap);
  const CycleReport rb =
      make_harness(CollectorId::kPackets, without)->collect(*b.heap);
  ASSERT_TRUE(ra.parallel && rb.parallel);
  EXPECT_EQ(ra.parallel->cas_ops, rb.parallel->cas_ops);
  EXPECT_EQ(ra.parallel->mutex_acquisitions, rb.parallel->mutex_acquisitions);
  EXPECT_EQ(ra.objects_copied, rb.objects_copied);
}

}  // namespace
}  // namespace hwgc
