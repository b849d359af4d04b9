// Bit-determinism of the heap service: two runs from the same seed are
// indistinguishable — same per-shard request counts, same collection
// counts, byte-identical JSONL — under EVERY scheduler policy. This is
// what makes heapd sweeps reproducible and the golden-file tests stable.
#include <gtest/gtest.h>

#include <string>

#include "service/heap_service.hpp"
#include "service/service_metrics.hpp"

namespace hwgc {
namespace {

ServiceConfig run_config(GcSchedulerKind kind, std::uint64_t seed) {
  ServiceConfig cfg;
  cfg.shards = 3;
  cfg.semispace_words = 4096;
  cfg.sim.coprocessor.num_cores = 4;
  cfg.traffic.seed = seed;
  cfg.scheduler = kind;
  return cfg;
}

struct RunResult {
  std::string jsonl;
  std::vector<std::uint64_t> offered;
  std::vector<std::uint64_t> completed;
  std::vector<std::uint64_t> collections;
  Cycle clock = 0;
};

RunResult run_once(GcSchedulerKind kind, std::uint64_t seed,
                   std::uint64_t requests) {
  HeapService service(run_config(kind, seed));
  service.serve(requests);
  RunResult r;
  r.jsonl = service_report_jsonl(service, "determinism");
  for (std::size_t i = 0; i < service.shard_count(); ++i) {
    const SloStats& s = service.shard_stats(i);
    r.offered.push_back(s.offered);
    r.completed.push_back(s.completed);
    r.collections.push_back(s.collections);
  }
  r.clock = service.now();
  EXPECT_EQ(service.validate_all_shards(), 0u);
  return r;
}

class ServiceDeterminism : public ::testing::TestWithParam<GcSchedulerKind> {};

TEST_P(ServiceDeterminism, SameSeedBitIdentical) {
  const RunResult a = run_once(GetParam(), 1, 4000);
  const RunResult b = run_once(GetParam(), 1, 4000);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.collections, b.collections);
  EXPECT_EQ(a.clock, b.clock);
  EXPECT_EQ(a.jsonl, b.jsonl) << "service JSONL must be byte-identical";
}

TEST_P(ServiceDeterminism, SplitServeMatchesOneShot) {
  // Incremental serving (gc_top's frame loop) must land in the same state
  // as one big batch.
  HeapService split(run_config(GetParam(), 1));
  split.serve(1500);
  split.serve(1500);
  split.serve(1000);
  const std::string split_jsonl = service_report_jsonl(split, "determinism");
  const RunResult oneshot = run_once(GetParam(), 1, 4000);
  EXPECT_EQ(split_jsonl, oneshot.jsonl);
}

TEST_P(ServiceDeterminism, DifferentSeedsDiverge) {
  const RunResult a = run_once(GetParam(), 1, 4000);
  const RunResult b = run_once(GetParam(), 2, 4000);
  EXPECT_NE(a.jsonl, b.jsonl);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ServiceDeterminism,
                         ::testing::Values(GcSchedulerKind::kReactive,
                                           GcSchedulerKind::kProactive,
                                           GcSchedulerKind::kRoundRobin),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

}  // namespace
}  // namespace hwgc
