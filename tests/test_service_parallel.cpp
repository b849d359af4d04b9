// Parallel-vs-serial bit-determinism of the heap service (ISSUE 6
// tentpole): running heapd shards on a host thread pool must preserve the
// serial semantics EXACTLY — byte-identical hwgc-service-v1 JSONL and
// equal ServiceMetrics — because each shard is an independent simulator
// and the conductor joins at every data dependency (closed-loop arrival,
// admission control, fleet observation). Matrix: 2/4/8 host threads vs
// serial, 3 seeds x 3 schedulers, plus the join-heavy variants (closed
// loop, admission control, fault recovery).
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "service/heap_service.hpp"
#include "service/service_metrics.hpp"

namespace hwgc {
namespace {

ServiceConfig base_config(GcSchedulerKind kind, std::uint64_t seed) {
  ServiceConfig cfg;
  cfg.shards = 4;
  cfg.semispace_words = 4096;
  cfg.sim.coprocessor.num_cores = 4;
  cfg.traffic.seed = seed;
  cfg.scheduler = kind;
  return cfg;
}

struct RunResult {
  std::string jsonl;
  std::vector<std::uint64_t> offered, completed, rejected, collections,
      scheduled;
  std::vector<Cycle> service_cycles, queue_cycles, stall_cycles;
  Cycle clock = 0;
  std::uint64_t fleet_offered = 0;
};

RunResult run_once(ServiceConfig cfg, std::size_t threads,
                   std::uint64_t requests) {
  cfg.host_threads = threads;
  HeapService service(cfg);
  service.serve(requests);
  RunResult r;
  r.jsonl = service_report_jsonl(service, "parallel");
  for (std::size_t i = 0; i < service.shard_count(); ++i) {
    const SloStats& s = service.shard_stats(i);
    r.offered.push_back(s.offered);
    r.completed.push_back(s.completed);
    r.rejected.push_back(s.rejected);
    r.collections.push_back(s.collections);
    r.scheduled.push_back(s.scheduled_collections);
    r.service_cycles.push_back(s.service_cycles);
    r.queue_cycles.push_back(s.queue_cycles);
    r.stall_cycles.push_back(s.stall_cycles);
  }
  r.clock = service.now();
  r.fleet_offered = service.requests_offered();
  EXPECT_EQ(service.validate_all_shards(), 0u);
  return r;
}

void expect_equal(const RunResult& serial, const RunResult& parallel,
                  const std::string& what) {
  EXPECT_EQ(serial.offered, parallel.offered) << what;
  EXPECT_EQ(serial.completed, parallel.completed) << what;
  EXPECT_EQ(serial.rejected, parallel.rejected) << what;
  EXPECT_EQ(serial.collections, parallel.collections) << what;
  EXPECT_EQ(serial.scheduled, parallel.scheduled) << what;
  EXPECT_EQ(serial.service_cycles, parallel.service_cycles) << what;
  EXPECT_EQ(serial.queue_cycles, parallel.queue_cycles) << what;
  EXPECT_EQ(serial.stall_cycles, parallel.stall_cycles) << what;
  EXPECT_EQ(serial.clock, parallel.clock) << what;
  EXPECT_EQ(serial.fleet_offered, parallel.fleet_offered) << what;
  EXPECT_EQ(serial.jsonl, parallel.jsonl)
      << what << ": service JSONL must be byte-identical";
}

class ServiceParallel
    : public ::testing::TestWithParam<std::tuple<GcSchedulerKind,
                                                 std::uint64_t>> {};

TEST_P(ServiceParallel, MatchesSerialAtEveryThreadCount) {
  const auto [kind, seed] = GetParam();
  const RunResult serial = run_once(base_config(kind, seed), 1, 1500);
  for (std::size_t threads : {2u, 4u, 8u}) {
    const RunResult parallel =
        run_once(base_config(kind, seed), threads, 1500);
    expect_equal(serial, parallel,
                 std::string(to_string(kind)) + "/seed=" +
                     std::to_string(seed) + "/threads=" +
                     std::to_string(threads));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchedulerBySeed, ServiceParallel,
    ::testing::Combine(::testing::Values(GcSchedulerKind::kReactive,
                                         GcSchedulerKind::kProactive,
                                         GcSchedulerKind::kRoundRobin),
                       ::testing::Values(1u, 2u, 3u)),
    [](const auto& param_info) {
      return std::string(to_string(std::get<0>(param_info.param))) + "_seed" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(ServiceParallelModes, ClosedLoopMatchesSerial) {
  // Closed-loop arrivals latch onto the target shard's next-free time, so
  // the conductor must join that shard's lane before sampling — the
  // join-heaviest traffic mode.
  ServiceConfig cfg = base_config(GcSchedulerKind::kReactive, 7);
  cfg.traffic.open_loop = false;
  const RunResult serial = run_once(cfg, 1, 1200);
  for (std::size_t threads : {2u, 8u}) {
    expect_equal(serial, run_once(cfg, threads, 1200),
                 "closed-loop threads=" + std::to_string(threads));
  }
}

TEST(ServiceParallelModes, AdmissionControlMatchesSerial) {
  // Rejections happen conductor-side after a join; the reject/complete
  // split must not depend on the thread count.
  ServiceConfig cfg = base_config(GcSchedulerKind::kReactive, 5);
  cfg.traffic.load = 16.0;  // overdrive so the backlog bound actually trips
  cfg.max_backlog = 1500;
  const RunResult serial = run_once(cfg, 1, 1500);
  std::uint64_t total_rejected = 0;
  for (auto r : serial.rejected) total_rejected += r;
  EXPECT_GT(total_rejected, 0u) << "config must actually shed load";
  for (std::size_t threads : {2u, 8u}) {
    expect_equal(serial, run_once(cfg, threads, 1500),
                 "admission threads=" + std::to_string(threads));
  }
}

TEST(ServiceParallelModes, FaultRecoveryMatchesSerial) {
  // The fault-injected shard runs collections through the recovery ladder
  // inside its own lane; neighbors must still match serial byte-for-byte.
  ServiceConfig cfg = base_config(GcSchedulerKind::kProactive, 2);
  cfg.fault_shard = 1;
  cfg.fault_events = 2;
  const RunResult serial = run_once(cfg, 1, 1200);
  expect_equal(serial, run_once(cfg, 4, 1200), "fault threads=4");
}

TEST(ServiceParallelModes, SplitServeMatchesOneShot) {
  // Incremental serving must drain at every serve() boundary and land in
  // the same state as one big batch, in parallel mode too.
  ServiceConfig cfg = base_config(GcSchedulerKind::kRoundRobin, 1);
  cfg.host_threads = 4;
  HeapService split(cfg);
  split.serve(700);
  split.serve(500);
  split.serve(300);
  const std::string split_jsonl = service_report_jsonl(split, "parallel");
  const RunResult oneshot = run_once(cfg, 4, 1500);
  EXPECT_EQ(split_jsonl, oneshot.jsonl);
}

}  // namespace
}  // namespace hwgc
