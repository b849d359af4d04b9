// HeapService: the multi-tenant heap layer (src/service/).
//
// Covers the service contract end to end: every request accounted (the
// three-way latency split sums exactly), every collection verified (the
// conformance post-structure oracle runs per cycle per shard), shards
// isolated (a fault-injected shard recovers without perturbing a
// neighbor's shadow graph), and backpressure sheds instead of queueing
// without bound.
#include <gtest/gtest.h>

#include <stdexcept>

#include "service/heap_service.hpp"
#include "service/scheduler.hpp"

namespace hwgc {
namespace {

ServiceConfig small_config(std::size_t shards, GcSchedulerKind sched,
                           std::uint64_t seed = 1) {
  ServiceConfig cfg;
  cfg.shards = shards;
  cfg.semispace_words = 4096;
  cfg.sim.coprocessor.num_cores = 4;
  cfg.traffic.seed = seed;
  cfg.scheduler = sched;
  return cfg;
}

TEST(HeapService, ServesVerifiesAndCollects) {
  HeapService service(small_config(2, GcSchedulerKind::kProactive));
  service.serve(3000);

  const SloStats fleet = service.fleet_stats();
  EXPECT_EQ(fleet.offered, 3000u);
  EXPECT_EQ(fleet.completed + fleet.rejected, fleet.offered);
  EXPECT_GT(fleet.collections, 0u) << "run must exercise collection cycles";
  EXPECT_EQ(fleet.oracle_failures, 0u);
  EXPECT_EQ(fleet.read_mismatches, 0u);
  EXPECT_EQ(service.validate_all_shards(), 0u);
}

TEST(HeapService, EveryPolicyVerifiesClean) {
  for (GcSchedulerKind kind : all_schedulers()) {
    HeapService service(small_config(2, kind));
    service.serve(2500);
    const SloStats fleet = service.fleet_stats();
    EXPECT_EQ(fleet.oracle_failures, 0u) << to_string(kind);
    EXPECT_EQ(fleet.read_mismatches, 0u) << to_string(kind);
    EXPECT_EQ(service.validate_all_shards(), 0u) << to_string(kind);
  }
}

TEST(HeapService, ReactiveNeverSchedulesProactiveDoes) {
  HeapService reactive(small_config(2, GcSchedulerKind::kReactive));
  reactive.serve(3000);
  EXPECT_EQ(reactive.fleet_stats().scheduled_collections, 0u);
  EXPECT_GT(reactive.fleet_stats().collections, 0u)
      << "exhaustion must still trigger cycles (observer seam)";

  HeapService proactive(small_config(2, GcSchedulerKind::kProactive));
  proactive.serve(3000);
  EXPECT_GT(proactive.fleet_stats().scheduled_collections, 0u);
}

TEST(HeapService, RoundRobinPacesByPeriod) {
  ServiceConfig cfg = small_config(3, GcSchedulerKind::kRoundRobin);
  cfg.scheduling.round_robin_period = 500;
  HeapService service(cfg);
  service.serve(3000);
  const SloStats fleet = service.fleet_stats();
  // One budgeted cycle per period, spread across the rotation.
  EXPECT_GE(fleet.scheduled_collections, 5u);
  EXPECT_LE(fleet.scheduled_collections, 7u);
  for (std::size_t i = 0; i < service.shard_count(); ++i) {
    EXPECT_GE(service.shard_stats(i).scheduled_collections, 1u) << i;
  }
}

// The exact accounting identity the JSONL validator enforces: the three
// exclusive latency components sum to the recorded total, per shard.
TEST(HeapService, LatencySplitSumsExactly) {
  for (GcSchedulerKind kind : all_schedulers()) {
    HeapService service(small_config(2, kind));
    service.serve(2000);
    for (std::size_t i = 0; i < service.shard_count(); ++i) {
      const SloStats& s = service.shard_stats(i);
      EXPECT_EQ(s.service_cycles + s.queue_cycles + s.stall_cycles,
                s.latency.sum())
          << "shard " << i << " under " << to_string(kind);
      EXPECT_EQ(s.latency.count(), s.completed);
    }
  }
}

// GC-stall conservation. Under the reactive policy every cycle is
// exhaustion-triggered inside some request's execution, so fleet-wide
// stall equals fleet-wide collection time exactly — no cycle lost, none
// double-billed. Under proactive pacing, cycles that drain while a shard
// sits idle are charged to nobody, so stall must come in strictly UNDER
// collection time: the hidden remainder is the policy's whole point.
TEST(HeapService, StallAccountingConservesGcCycles) {
  HeapService reactive(small_config(2, GcSchedulerKind::kReactive));
  reactive.serve(4000);
  const SloStats r = reactive.fleet_stats();
  ASSERT_GT(r.collections, 0u);
  EXPECT_EQ(r.stall_cycles, r.gc_cycle_total);

  HeapService proactive(small_config(2, GcSchedulerKind::kProactive));
  proactive.serve(4000);
  const SloStats p = proactive.fleet_stats();
  ASSERT_GT(p.collections, 0u);
  EXPECT_LE(p.stall_cycles, p.gc_cycle_total);
  EXPECT_LT(p.stall_cycles, p.gc_cycle_total)
      << "proactive pacing should hide at least some GC in idle gaps";
}

TEST(HeapService, BackpressureShedsUnderOverload) {
  ServiceConfig cfg = small_config(2, GcSchedulerKind::kReactive);
  cfg.traffic.load = 8.0;  // overdrive far past the service rate
  cfg.max_backlog = 500;
  HeapService service(cfg);
  service.serve(4000);
  const SloStats fleet = service.fleet_stats();
  EXPECT_GT(fleet.rejected, 0u);
  EXPECT_EQ(fleet.completed + fleet.rejected, fleet.offered);
  EXPECT_EQ(fleet.oracle_failures, 0u);
  EXPECT_EQ(service.validate_all_shards(), 0u);

  // Same overload without the bound: everything queues, nothing sheds.
  ServiceConfig unbounded = cfg;
  unbounded.max_backlog = 0;
  HeapService patient(unbounded);
  patient.serve(4000);
  EXPECT_EQ(patient.fleet_stats().rejected, 0u);
}

TEST(HeapService, FaultShardRecoversNeighborsUnperturbed) {
  ServiceConfig cfg = small_config(3, GcSchedulerKind::kProactive, 2);
  cfg.fault_shard = 1;
  cfg.fault_events = 2;
  HeapService service(cfg);
  service.serve(8000);

  const SloStats& faulted = service.shard_stats(1);
  ASSERT_GT(faulted.collections, 0u)
      << "fault shard must actually collect for this test to mean anything";
  EXPECT_GT(faulted.recovered_collections, 0u);
  EXPECT_EQ(service.fleet_stats().oracle_failures, 0u);

  // Neighbors never saw a fault and must validate cleanly — per shard, so
  // a cross-shard perturbation cannot hide in an aggregate.
  for (std::size_t i = 0; i < service.shard_count(); ++i) {
    EXPECT_EQ(service.validate_shard(i), 0u) << "shard " << i;
    if (i != 1) {
      EXPECT_EQ(service.shard_stats(i).recovered_collections, 0u) << i;
    }
  }
}

TEST(HeapService, ExhaustionFailsRequestsNotTheFleet) {
  // An undersized fleet: 2048-word shards whose churn outgrows the
  // semispace. An allocation that still fails after a collection fails
  // its request; the shard keeps serving and every request is accounted.
  ServiceConfig cfg;
  cfg.shards = 4;
  cfg.semispace_words = 2048;
  cfg.sim.coprocessor.num_cores = 4;
  cfg.traffic.seed = 4;
  HeapService service(cfg);
  service.serve(20000);

  const SloStats fleet = service.fleet_stats();
  EXPECT_EQ(fleet.offered, 20000u);
  EXPECT_GT(fleet.failed, 0u) << "the fleet must reach exhaustion";
  EXPECT_EQ(fleet.completed + fleet.rejected + fleet.failed, fleet.offered);
  EXPECT_EQ(fleet.oracle_failures, 0u);
  EXPECT_EQ(service.validate_all_shards(), 0u);
}

TEST(HeapService, ServeIsResumable) {
  HeapService service(small_config(2, GcSchedulerKind::kProactive));
  service.serve(1000);
  const Cycle mid = service.now();
  service.serve(1000);
  EXPECT_GE(service.now(), mid);
  EXPECT_EQ(service.fleet_stats().offered, 2000u);
  EXPECT_EQ(service.requests_offered(), 2000u);
  EXPECT_EQ(service.validate_all_shards(), 0u);
}

TEST(HeapService, ObservationsReflectShardState) {
  HeapService service(small_config(2, GcSchedulerKind::kReactive));
  service.serve(2000);
  for (std::size_t i = 0; i < service.shard_count(); ++i) {
    const ShardObservation o = service.observe(i);
    EXPECT_EQ(o.shard, i);
    EXPECT_GE(o.occupancy, 0.0);
    EXPECT_LE(o.occupancy, 1.0);
    EXPECT_GT(o.live_roots, 0u);
    EXPECT_GE(o.root_high_water, o.live_roots);
    EXPECT_EQ(o.collections, service.shard_stats(i).collections);
  }
}

TEST(HeapService, RejectsBadConfig) {
  ServiceConfig none = small_config(1, GcSchedulerKind::kReactive);
  none.shards = 0;
  EXPECT_THROW(HeapService{none}, std::invalid_argument);

  ServiceConfig bad_fault = small_config(2, GcSchedulerKind::kReactive);
  bad_fault.fault_shard = 2;  // out of range
  bad_fault.fault_events = 1;
  EXPECT_THROW(HeapService{bad_fault}, std::invalid_argument);
}

TEST(Scheduler, NamesRoundTrip) {
  for (GcSchedulerKind kind : all_schedulers()) {
    const auto parsed = parse_scheduler(to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << to_string(kind);
    EXPECT_EQ(*parsed, kind);
    EXPECT_EQ(make_scheduler(kind)->kind(), kind);
  }
  EXPECT_FALSE(parse_scheduler("nonesuch").has_value());
}

}  // namespace
}  // namespace hwgc
