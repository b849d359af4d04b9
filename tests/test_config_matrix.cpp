// Exhaustive configuration matrix: every combination of the optional
// hardware features must preserve the collector invariants on
// representative workloads at several core counts. This is the guard
// against feature interactions (e.g. striping x FIFO-off x early-read).
#include <gtest/gtest.h>

#include "core/coprocessor.hpp"
#include "heap/verifier.hpp"
#include "workloads/benchmarks.hpp"

namespace hwgc {
namespace {

struct MatrixCase {
  bool fifo;
  bool early_read;
  bool subobject;
  bool header_cache;
  std::uint32_t cores;
};

class ConfigMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(ConfigMatrix, InvariantsHoldOnEveryConfiguration) {
  const MatrixCase& mc = GetParam();
  SimConfig cfg;
  cfg.coprocessor.num_cores = mc.cores;
  cfg.coprocessor.header_fifo_capacity = mc.fifo ? 32768 : 0;
  cfg.coprocessor.markbit_early_read = mc.early_read;
  cfg.coprocessor.subobject_copy = mc.subobject;
  cfg.coprocessor.stripe_threshold = 16;  // stripe aggressively when on
  cfg.memory.header_cache_entries = mc.header_cache ? 512 : 0;

  for (BenchmarkId id : {BenchmarkId::kJavac, BenchmarkId::kCompress,
                         BenchmarkId::kJlisp}) {
    Workload w = make_benchmark(id, 0.01);
    const HeapSnapshot pre = HeapSnapshot::capture(*w.heap);
    Coprocessor coproc(cfg, *w.heap);
    const GcCycleStats s = coproc.collect();
    EXPECT_EQ(s.objects_copied, pre.objects.size()) << benchmark_name(id);
    EXPECT_TRUE(s.lock_order_violations.empty()) << benchmark_name(id);
    const VerifyResult res = verify_collection(pre, *w.heap);
    EXPECT_TRUE(res.ok) << benchmark_name(id) << ": " << res.summary();
  }
}

std::vector<MatrixCase> all_configurations() {
  std::vector<MatrixCase> cases;
  for (bool fifo : {false, true}) {
    for (bool early : {false, true}) {
      for (bool sub : {false, true}) {
        for (bool cache : {false, true}) {
          for (std::uint32_t cores : {1u, 4u, 16u}) {
            cases.push_back({fifo, early, sub, cache, cores});
          }
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllFeatureCombinations, ConfigMatrix,
    ::testing::ValuesIn(all_configurations()),
    [](const auto& param_info) {
      const MatrixCase& mc = param_info.param;
      std::string name;
      name += mc.fifo ? "fifo_" : "nofifo_";
      name += mc.early_read ? "early_" : "lock_";
      name += mc.subobject ? "stripe_" : "whole_";
      name += mc.header_cache ? "cache_" : "nocache_";
      name += 'c';
      name += std::to_string(mc.cores);
      return name;
    });

// Determinism must also hold with every feature enabled at once.
TEST(ConfigMatrix, FullyLoadedConfigIsDeterministic) {
  SimConfig cfg;
  cfg.coprocessor.num_cores = 16;
  cfg.coprocessor.markbit_early_read = true;
  cfg.coprocessor.subobject_copy = true;
  cfg.memory.header_cache_entries = 1024;
  Workload w1 = make_benchmark(BenchmarkId::kDb, 0.02);
  Workload w2 = make_benchmark(BenchmarkId::kDb, 0.02);
  Coprocessor c1(cfg, *w1.heap);
  Coprocessor c2(cfg, *w2.heap);
  const GcCycleStats s1 = c1.collect();
  const GcCycleStats s2 = c2.collect();
  EXPECT_EQ(s1.total_cycles, s2.total_cycles);
  EXPECT_EQ(s1.mem_requests, s2.mem_requests);
}

}  // namespace
}  // namespace hwgc
