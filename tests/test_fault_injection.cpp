// Seeded fault plans and the FaultInjector hooks: plan determinism and
// class masking, plus the per-class injector behaviour each hardware
// module observes (dropped transactions, ghost duplicates, suppressed
// lock grants, stuck busy bits, core fates) and the transient/persistent
// re-arming and deconfiguration-dormancy rules recovery depends on.
#include <gtest/gtest.h>

#include <string>

#include "core/sync_block.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "mem/memory_system.hpp"

namespace hwgc {
namespace {

std::string plan_digest(const FaultPlan& plan) {
  std::string d;
  for (const FaultEvent& e : plan.events) d += e.summary() + "\n";
  return d;
}

TEST(FaultPlan, DeterministicForSeedAndConfig) {
  FaultConfig cfg;
  cfg.seed = 7;
  cfg.events = 16;
  const FaultPlan a = FaultPlan::from_config(cfg, 8);
  const FaultPlan b = FaultPlan::from_config(cfg, 8);
  ASSERT_EQ(a.size(), 16u);
  EXPECT_EQ(plan_digest(a), plan_digest(b));
}

TEST(FaultPlan, DifferentSeedsDiverge) {
  FaultConfig cfg;
  cfg.events = 16;
  cfg.seed = 1;
  const FaultPlan a = FaultPlan::from_config(cfg, 8);
  cfg.seed = 2;
  const FaultPlan b = FaultPlan::from_config(cfg, 8);
  EXPECT_NE(plan_digest(a), plan_digest(b));
}

TEST(FaultPlan, ClassMaskRestrictsKinds) {
  FaultConfig cfg;
  cfg.seed = 3;
  cfg.events = 32;
  cfg.class_mask = (1u << static_cast<std::uint32_t>(FaultKind::kMemDrop)) |
                   (1u << static_cast<std::uint32_t>(FaultKind::kCoreFailStop));
  const FaultPlan plan = FaultPlan::from_config(cfg, 4);
  for (const FaultEvent& e : plan.events) {
    EXPECT_TRUE(e.kind == FaultKind::kMemDrop ||
                e.kind == FaultKind::kCoreFailStop)
        << e.summary();
  }
}

TEST(FaultPlan, TargetsOnlyConfiguredCores) {
  FaultConfig cfg;
  cfg.seed = 9;
  cfg.events = 64;
  for (std::uint32_t cores : {1u, 3u, 16u}) {
    const FaultPlan plan = FaultPlan::from_config(cfg, cores);
    for (const FaultEvent& e : plan.events) {
      EXPECT_LT(e.target_core, cores) << e.summary();
    }
  }
}

TEST(FaultPlan, ParseRoundTripsEveryKindName) {
  for (const FaultKind kind : all_fault_kinds()) {
    EXPECT_EQ(parse_fault_kind(to_string(kind)), kind) << to_string(kind);
  }
  EXPECT_EQ(all_fault_kinds().size(), kFaultKindCount);
  EXPECT_FALSE(parse_fault_kind("definitely-not-a-fault").has_value());
}

FaultEvent mem_drop_event(CoreId core = 0) {
  FaultEvent e;
  e.kind = FaultKind::kMemDrop;
  e.target_core = core;
  e.port = Port::kHeader;
  e.op = MemOp::kLoad;
  e.trigger = 0;
  return e;
}

TEST(FaultInjector, DroppedLoadNeverCompletes) {
  FaultPlan plan;
  plan.events.push_back(mem_drop_event());
  FaultInjector inj(std::move(plan));
  inj.begin_attempt(0, {0});
  MemorySystem mem(MemoryConfig{}, 1, &inj);
  mem.issue_load(0, Port::kHeader, 100);
  for (Cycle t = 1; t <= 200; ++t) mem.tick(t);
  EXPECT_TRUE(mem.load_pending(0, Port::kHeader))
      << "the dropped reply must leave the load buffer stalled";
  EXPECT_EQ(inj.fired_total(), 1u);
}

TEST(FaultInjector, TransientFiresOnceAcrossAttempts) {
  FaultPlan plan;
  plan.events.push_back(mem_drop_event());
  FaultInjector inj(std::move(plan));
  inj.begin_attempt(0, {0});
  EXPECT_EQ(inj.on_mem_accept(0, Port::kHeader, MemOp::kLoad, 5).kind,
            MemFaultAction::Kind::kDrop);
  inj.begin_attempt(1, {0});
  EXPECT_EQ(inj.on_mem_accept(0, Port::kHeader, MemOp::kLoad, 5).kind,
            MemFaultAction::Kind::kNone);
  EXPECT_EQ(inj.fired_total(), 1u);
}

TEST(FaultInjector, PersistentRearmsEveryAttempt) {
  FaultPlan plan;
  plan.events.push_back(mem_drop_event());
  plan.events.back().persistent = true;
  FaultInjector inj(std::move(plan));
  for (std::uint32_t attempt = 0; attempt < 3; ++attempt) {
    inj.begin_attempt(attempt, {0});
    EXPECT_EQ(inj.on_mem_accept(0, Port::kHeader, MemOp::kLoad, 5).kind,
              MemFaultAction::Kind::kDrop);
  }
  EXPECT_EQ(inj.fired_total(), 3u);
}

TEST(FaultInjector, EventDormantWhenTargetCoreDeconfigured) {
  FaultPlan plan;
  plan.events.push_back(mem_drop_event(/*core=*/0));
  plan.events.back().persistent = true;
  FaultInjector inj(std::move(plan));
  // Physical core 0 was deconfigured: logical core 0 is physical core 1.
  inj.begin_attempt(0, {1});
  EXPECT_EQ(inj.on_mem_accept(0, Port::kHeader, MemOp::kLoad, 5).kind,
            MemFaultAction::Kind::kNone);
  EXPECT_EQ(inj.fired_total(), 0u);
}

TEST(FaultInjector, TriggerCountsMatchingTransactions) {
  FaultPlan plan;
  plan.events.push_back(mem_drop_event());
  plan.events.back().trigger = 2;  // third matching transaction
  FaultInjector inj(std::move(plan));
  inj.begin_attempt(0, {0});
  EXPECT_EQ(inj.on_mem_accept(0, Port::kHeader, MemOp::kLoad, 1).kind,
            MemFaultAction::Kind::kNone);
  // Non-matching port does not advance the trigger counter.
  EXPECT_EQ(inj.on_mem_accept(0, Port::kBody, MemOp::kLoad, 2).kind,
            MemFaultAction::Kind::kNone);
  EXPECT_EQ(inj.on_mem_accept(0, Port::kHeader, MemOp::kLoad, 3).kind,
            MemFaultAction::Kind::kNone);
  EXPECT_EQ(inj.on_mem_accept(0, Port::kHeader, MemOp::kLoad, 4).kind,
            MemFaultAction::Kind::kDrop);
}

TEST(FaultInjector, MemDelayStretchesCompletion) {
  FaultPlan plan;
  FaultEvent e;
  e.kind = FaultKind::kMemDelay;
  e.target_core = 0;
  e.port = Port::kBody;
  e.op = MemOp::kLoad;
  e.param = 37;
  plan.events.push_back(e);
  FaultInjector inj(std::move(plan));
  inj.begin_attempt(0, {0});
  MemoryConfig cfg;
  MemorySystem mem(cfg, 1, &inj);
  Cycle now = 0;
  mem.issue_load(0, Port::kBody, 100);
  while (mem.load_pending(0, Port::kBody)) {
    ++now;
    mem.tick(now);
    ASSERT_LT(now, 1000u);
  }
  EXPECT_EQ(now, cfg.latency + 1 + 37);
}

TEST(FaultInjector, StuckBusyReadsThroughSyncBlock) {
  FaultPlan plan;
  FaultEvent e;
  e.kind = FaultKind::kStuckBusy;
  e.target_core = 0;
  e.trigger = 3;
  plan.events.push_back(e);
  FaultInjector inj(std::move(plan));
  inj.begin_attempt(0, {0, 1});
  SyncBlock sb(2, &inj);
  inj.begin_clock(2);
  EXPECT_FALSE(sb.busy(0));
  EXPECT_TRUE(sb.all_idle());
  inj.begin_clock(3);
  EXPECT_TRUE(sb.busy(0)) << "busy bit must read stuck-at-1 from the trigger";
  EXPECT_FALSE(sb.busy_raw(0)) << "the architectural bit stays clear";
  EXPECT_FALSE(sb.all_idle());
}

TEST(FaultInjector, LockDelaySuppressesGrantDuringWindow) {
  FaultPlan plan;
  FaultEvent e;
  e.kind = FaultKind::kLockDelay;
  e.lock = LockKind::kScan;
  e.trigger = 10;
  e.param = 5;
  plan.events.push_back(e);
  FaultInjector inj(std::move(plan));
  inj.begin_attempt(0, {0});
  SyncBlock sb(1, &inj);
  inj.begin_clock(10);
  sb.begin_cycle();
  EXPECT_FALSE(sb.try_lock_scan(0));
  inj.begin_clock(15);  // window [10, 15) is over
  sb.begin_cycle();
  EXPECT_TRUE(sb.try_lock_scan(0));
  EXPECT_EQ(inj.fired_total(), 1u);
}

TEST(FaultInjector, CoreStallWindowAndFailStop) {
  FaultPlan plan;
  FaultEvent stall;
  stall.kind = FaultKind::kCoreStall;
  stall.target_core = 0;
  stall.trigger = 5;
  stall.param = 3;
  plan.events.push_back(stall);
  FaultEvent stop;
  stop.kind = FaultKind::kCoreFailStop;
  stop.target_core = 1;
  stop.trigger = 7;
  plan.events.push_back(stop);
  FaultInjector inj(std::move(plan));
  inj.begin_attempt(0, {0, 1});
  inj.begin_clock(4);
  EXPECT_EQ(inj.core_fate(0, false), CoreFate::kRun);
  EXPECT_EQ(inj.core_fate(1, false), CoreFate::kRun);
  inj.begin_clock(6);
  EXPECT_EQ(inj.core_fate(0, false), CoreFate::kStall);
  inj.begin_clock(8);
  EXPECT_EQ(inj.core_fate(0, false), CoreFate::kRun) << "stall window is over";
  EXPECT_EQ(inj.core_fate(1, false), CoreFate::kStopped);
  inj.begin_clock(9);
  EXPECT_EQ(inj.core_fate(1, false), CoreFate::kStopped)
      << "fail-stop is permanent for the attempt";
}

TEST(FaultInjector, FailStopConditionedOnFreeLock) {
  FaultPlan plan;
  FaultEvent e;
  e.kind = FaultKind::kCoreFailStop;
  e.target_core = 0;
  e.when_holding_free = true;
  plan.events.push_back(e);
  FaultInjector inj(std::move(plan));
  inj.begin_attempt(0, {0});
  inj.begin_clock(100);
  EXPECT_EQ(inj.core_fate(0, /*holds_free=*/false), CoreFate::kRun);
  EXPECT_EQ(inj.core_fate(0, /*holds_free=*/true), CoreFate::kStopped);
}

}  // namespace
}  // namespace hwgc
