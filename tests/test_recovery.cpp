// Abort-and-retry recovery: the escalation ladder (retry → core
// deconfiguration → sequential fallback), watchdog budget edge cases
// (budget exactly equal to the fault-free cycle count, zero-object
// collections, fail-stop inside the free critical section) and the
// Runtime-level Section V-E store-drain restart condition.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "conformance/conformance.hpp"
#include "core/coprocessor.hpp"
#include "fault/recovery.hpp"
#include "heap/verifier.hpp"
#include "runtime/runtime.hpp"
#include "sim/trace.hpp"
#include "trace/replayer.hpp"
#include "workloads/benchmarks.hpp"

namespace hwgc {
namespace {

GraphPlan small_plan() { return make_benchmark_plan(BenchmarkId::kJlisp, 0.05); }

TEST(Recovery, FaultFreeRunMatchesBareCoprocessor) {
  const GraphPlan plan = small_plan();
  Workload a = materialize(plan);
  Workload b = materialize(plan);

  SimConfig cfg;
  cfg.coprocessor.num_cores = 4;
  Coprocessor coproc(cfg, *a.heap);
  const GcCycleStats bare = coproc.collect();

  cfg.recovery.enabled = true;
  RecoveringCollector rc(cfg, *b.heap);
  const RecoveryReport report = rc.collect();

  ASSERT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.attempts.size(), 1u);
  EXPECT_FALSE(report.used_sequential_fallback);
  EXPECT_EQ(report.faults_injected, 0u);
  EXPECT_EQ(report.faults_fired, 0u);
  // The detection machinery (ECC shadow, watchdog budget, verifier) must
  // not perturb the simulated timing or the result.
  EXPECT_EQ(report.stats.total_cycles, bare.total_cycles);
  EXPECT_EQ(report.stats.objects_copied, bare.objects_copied);
  EXPECT_EQ(report.stats.words_copied, bare.words_copied);
  ASSERT_EQ(a.heap->alloc_ptr(), b.heap->alloc_ptr());
}

TEST(Recovery, WatchdogBudgetExactlyEqualToRuntimeSucceeds) {
  const GraphPlan plan = small_plan();
  Workload probe = materialize(plan);
  SimConfig cfg;
  cfg.coprocessor.num_cores = 4;
  Coprocessor coproc(cfg, *probe.heap);
  const Cycle actual = coproc.collect().total_cycles;

  // Budget == actual cycle count: the collection finishes on the last
  // allowed cycle — the break must win over the watchdog check.
  Workload w = materialize(plan);
  cfg.recovery.enabled = true;
  cfg.recovery.watchdog_base = actual;
  cfg.recovery.watchdog_per_live_word = 0;
  RecoveringCollector rc(cfg, *w.heap);
  const RecoveryReport report = rc.collect();
  ASSERT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.attempts.size(), 1u);
  EXPECT_EQ(report.stats.total_cycles, actual);
}

TEST(Recovery, WatchdogBudgetOneCycleShortEscalatesToFallback) {
  const GraphPlan plan = small_plan();
  Workload probe = materialize(plan);
  SimConfig cfg;
  cfg.coprocessor.num_cores = 4;
  Coprocessor coproc(cfg, *probe.heap);
  const Cycle actual = coproc.collect().total_cycles;

  // One cycle short: every coprocessor attempt deterministically hits the
  // watchdog (retries and reduced-core re-runs are no faster), so the
  // ladder must bottom out in the sequential software collector — and the
  // heap must still come out correct.
  Workload w = materialize(plan);
  const HeapSnapshot pre = HeapSnapshot::capture(*w.heap);
  cfg.recovery.enabled = true;
  cfg.recovery.watchdog_base = actual - 1;
  cfg.recovery.watchdog_per_live_word = 0;
  RecoveringCollector rc(cfg, *w.heap);
  const RecoveryReport report = rc.collect();
  ASSERT_TRUE(report.ok) << report.summary();
  EXPECT_TRUE(report.used_sequential_fallback);
  EXPECT_GE(report.aborts(AbortReason::kWatchdog), 1u);
  EXPECT_TRUE(verify_collection(pre, *w.heap).ok);
}

TEST(Recovery, ZeroObjectCollectionStaysUnderBaseBudget) {
  // Empty root set: live_words == 0, so the budget is the base alone —
  // the degenerate collection must fit and succeed on the first attempt.
  Heap heap(512);
  heap.allocate(2, 2);  // garbage only
  SimConfig cfg;
  cfg.coprocessor.num_cores = 8;
  cfg.recovery.enabled = true;
  cfg.recovery.watchdog_base = 1000;
  cfg.recovery.watchdog_per_live_word = 64;
  RecoveringCollector rc(cfg, heap);
  const RecoveryReport report = rc.collect();
  ASSERT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.attempts.size(), 1u);
  EXPECT_EQ(report.stats.objects_copied, 0u);
  EXPECT_LT(report.stats.total_cycles, 1000u);
}

TEST(Recovery, PersistentFailStopHoldingFreeLockDeconfiguresCore) {
  // The nastiest fail-stop: the core dies inside the free-lock critical
  // section, so every other core stalls on the free lock forever. A
  // persistent fault re-fires on every retry; recovery must localize the
  // dead core, deconfigure it and finish on the remaining cores.
  const GraphPlan plan = small_plan();
  Workload w = materialize(plan);
  const HeapSnapshot pre = HeapSnapshot::capture(*w.heap);

  FaultPlan fplan;
  FaultEvent e;
  e.kind = FaultKind::kCoreFailStop;
  e.persistent = true;
  e.target_core = 1;
  e.when_holding_free = true;
  fplan.events.push_back(e);

  SimConfig cfg;
  cfg.coprocessor.num_cores = 2;
  cfg.recovery.enabled = true;
  RecoveringCollector rc(cfg, *w.heap, fplan);
  const RecoveryReport report = rc.collect();

  ASSERT_TRUE(report.ok) << report.summary();
  EXPECT_GE(report.aborts(AbortReason::kWatchdog), 1u);
  ASSERT_EQ(report.deconfigured.size(), 1u);
  EXPECT_EQ(report.deconfigured[0], 1u);
  EXPECT_FALSE(report.used_sequential_fallback)
      << "one healthy core remains; the coprocessor must finish the job";
  EXPECT_TRUE(verify_collection(pre, *w.heap).ok);
}

TEST(Recovery, HeaderCorruptionCaughtByChecksumThenRetried) {
  // A transient single-bit flip on the first consumed header: the core's
  // ECC check must abort the attempt, and the clean retry must succeed
  // without escalating further.
  const GraphPlan plan = small_plan();
  Workload w = materialize(plan);
  const HeapSnapshot pre = HeapSnapshot::capture(*w.heap);

  FaultPlan fplan;
  FaultEvent e;
  e.kind = FaultKind::kMemCorrupt;
  e.target_core = 0;
  e.port = Port::kHeader;
  e.op = MemOp::kLoad;
  e.trigger = 0;
  e.bit = 5;
  fplan.events.push_back(e);

  SimConfig cfg;
  cfg.coprocessor.num_cores = 2;
  cfg.recovery.enabled = true;
  RecoveringCollector rc(cfg, *w.heap, fplan);
  const RecoveryReport report = rc.collect();

  ASSERT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.aborts(AbortReason::kChecksum), 1u);
  EXPECT_EQ(report.attempts.size(), 2u);
  EXPECT_FALSE(report.used_sequential_fallback);
  EXPECT_EQ(report.faults_fired, 1u);
  EXPECT_TRUE(verify_collection(pre, *w.heap).ok);
}

TEST(Recovery, ReportAccountsForEveryInjectedEvent) {
  // Seeded end-to-end plan: whatever fires, the report's global counters
  // must agree with the per-attempt records and the fault log.
  const GraphPlan plan = small_plan();
  Workload w = materialize(plan);
  SimConfig cfg;
  cfg.coprocessor.num_cores = 4;
  cfg.fault.seed = 11;
  cfg.fault.events = 6;
  cfg.fault.trigger_scale = 48;
  cfg.recovery.enabled = true;
  RecoveringCollector rc(cfg, *w.heap);
  const RecoveryReport report = rc.collect();
  ASSERT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.faults_injected, 6u);
  std::uint64_t per_attempt = 0;
  for (const auto& a : report.attempts) per_attempt += a.faults_fired;
  EXPECT_EQ(per_attempt, report.faults_fired);
  EXPECT_EQ(report.fault_log.size(), report.faults_fired);
}

TEST(Runtime, RestartRequiresDrainedStoreBuffers) {
  // Section V-E: the main processor may only resume once every GC store
  // has committed. The skip_store_drain_for_test backdoor deliberately
  // violates the condition; without the Runtime-level enforcement this
  // test would pass the corrupted restart through silently.
  SimConfig cfg;
  cfg.coprocessor.num_cores = 4;
  cfg.coprocessor.skip_store_drain_for_test = true;
  Runtime rt(1 << 16, cfg);
  Runtime::Ref a = rt.alloc(1, 2);
  Runtime::Ref b = rt.alloc(0, 3);
  rt.set_ptr(a, 0, b);
  EXPECT_THROW(rt.collect(), std::logic_error);
  EXPECT_EQ(rt.drain_violations(), 1u);
  EXPECT_TRUE(rt.gc_history().empty())
      << "a refused restart must not be recorded as a completed cycle";
}

TEST(Runtime, NormalCollectionDrainsAndRestarts) {
  SimConfig cfg;
  cfg.coprocessor.num_cores = 4;
  Runtime rt(1 << 16, cfg);
  Runtime::Ref a = rt.alloc(1, 2);
  Runtime::Ref b = rt.alloc(0, 3);
  rt.set_ptr(a, 0, b);
  const GcCycleStats& s = rt.collect();
  EXPECT_TRUE(s.restart_stores_drained);
  EXPECT_EQ(rt.drain_violations(), 0u);
  EXPECT_EQ(s.objects_copied, 2u);
}

TEST(Recovery, LadderExhaustionFailsWithPerAttemptAccounting) {
  // Every rung disabled: a persistent fail-stop with deconfiguration AND
  // the sequential fallback forbidden must exhaust the retry budget and
  // report failure honestly — exactly 1 + max_retries attempts, every one
  // recorded as an abort, and no rung silently skipped.
  const GraphPlan plan = small_plan();
  Workload w = materialize(plan);

  FaultPlan fplan;
  FaultEvent e;
  e.kind = FaultKind::kCoreFailStop;
  e.persistent = true;
  e.target_core = 1;
  e.when_holding_free = true;
  fplan.events.push_back(e);

  SimConfig cfg;
  cfg.coprocessor.num_cores = 2;
  cfg.recovery.enabled = true;
  cfg.recovery.max_retries = 2;
  cfg.recovery.allow_deconfigure = false;
  cfg.recovery.allow_sequential_fallback = false;

  // Pre-image of the whole allocated prefix, word for word.
  const Addr base = w.heap->layout().current_base();
  const Addr alloc = w.heap->alloc_ptr();
  std::vector<Word> pre_words;
  for (Addr a = base; a < alloc; ++a) {
    pre_words.push_back(w.heap->memory().load(a));
  }
  const std::vector<Addr> pre_roots = w.heap->roots();

  RecoveringCollector rc(cfg, *w.heap, fplan);
  const RecoveryReport report = rc.collect();

  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.attempts.size(), 3u)
      << "1 + max_retries attempts before giving up";
  for (const auto& a : report.attempts) {
    EXPECT_FALSE(a.success);
    EXPECT_EQ(a.num_cores, 2u) << "deconfiguration forbidden";
    EXPECT_GT(a.cycles, 0u);
  }
  EXPECT_TRUE(report.deconfigured.empty());
  EXPECT_FALSE(report.used_sequential_fallback);
  EXPECT_GE(report.aborts(AbortReason::kWatchdog), 3u);

  // No silent corruption: the failed collection must leave the pre-cycle
  // image bit-exact — same space, same words, same roots, same alloc_ptr.
  ASSERT_EQ(w.heap->layout().current_base(), base);
  ASSERT_EQ(w.heap->alloc_ptr(), alloc);
  for (Addr a = base; a < alloc; ++a) {
    ASSERT_EQ(w.heap->memory().load(a),
              pre_words[static_cast<std::size_t>(a - base)])
        << "word at " << a << " diverged from the pre-cycle image";
  }
  EXPECT_EQ(w.heap->roots(), pre_roots);
}

TEST(Runtime, UnrecoverableCollectionThrowsWithMessage) {
  // Runtime-level surface of ladder exhaustion: collect() must throw (not
  // return garbage), the message must say so, the failed cycle must NOT
  // appear in gc_history, and the failing report must be preserved with
  // its per-attempt accounting.
  SimConfig cfg;
  cfg.coprocessor.num_cores = 2;
  cfg.fault.seed = 7;
  cfg.fault.events = 4;
  cfg.fault.persistent_fraction = 1.0;  // every event re-fires on retry
  cfg.fault.class_mask = 1u << static_cast<int>(FaultKind::kCoreFailStop);
  cfg.fault.trigger_scale = 48;
  cfg.recovery.enabled = true;
  cfg.recovery.max_retries = 1;
  cfg.recovery.allow_deconfigure = false;
  cfg.recovery.allow_sequential_fallback = false;

  Runtime rt(1 << 16, cfg);
  Runtime::Ref a = rt.alloc(2, 1);
  Runtime::Ref b = rt.alloc(0, 4);
  rt.set_ptr(a, 0, b);
  rt.set_ptr(a, 1, a);

  try {
    rt.collect();
    FAIL() << "ladder exhaustion must surface as an exception";
  } catch (const std::runtime_error& ex) {
    EXPECT_NE(std::string(ex.what()).find("unrecoverable"), std::string::npos)
        << "actual message: " << ex.what();
  }
  EXPECT_TRUE(rt.gc_history().empty())
      << "a failed collection must not be recorded as completed";
  ASSERT_EQ(rt.recovery_history().size(), 1u);
  const RecoveryReport& report = rt.recovery_history()[0];
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.attempts.size(), 2u);  // 1 + max_retries
  for (const auto& at : report.attempts) EXPECT_FALSE(at.success);
}

TEST(Runtime, FaultConfigRoutesCollectionThroughRecovery) {
  SimConfig cfg;
  cfg.coprocessor.num_cores = 4;
  cfg.fault.seed = 5;
  cfg.fault.events = 3;
  cfg.fault.trigger_scale = 48;
  Runtime rt(1 << 16, cfg);
  Runtime::Ref a = rt.alloc(2, 1);
  Runtime::Ref b = rt.alloc(0, 4);
  rt.set_ptr(a, 0, b);
  rt.set_ptr(a, 1, a);
  rt.collect();
  ASSERT_EQ(rt.recovery_history().size(), 1u);
  const RecoveryReport& report = rt.recovery_history()[0];
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.faults_injected, 3u);
}

TEST(Runtime, SignalTraceSeesFaultAndRecoveryRuns) {
  // A fault-injected collection runs through the RecoveringCollector; the
  // runtime's observer must follow it there: the attempts' signal samples
  // and the fault and recovery notes all land in the attached trace.
  SimConfig cfg;
  cfg.coprocessor.num_cores = 2;
  cfg.fault.seed = 7;
  cfg.fault.events = 4;
  cfg.fault.persistent_fraction = 1.0;
  cfg.fault.class_mask = 1u << static_cast<int>(FaultKind::kCoreFailStop);
  cfg.fault.trigger_scale = 48;
  cfg.recovery.max_retries = 1;
  cfg.recovery.allow_deconfigure = false;
  Runtime rt(1 << 16, cfg);
  SignalTrace trace;
  rt.set_cycle_observer(&trace);
  Runtime::Ref a = rt.alloc(2, 1);
  Runtime::Ref b = rt.alloc(0, 4);
  rt.set_ptr(a, 0, b);
  rt.set_ptr(a, 1, a);
  rt.collect();
  ASSERT_EQ(rt.recovery_history().size(), 1u);
  ASSERT_TRUE(rt.recovery_history()[0].ok);
  EXPECT_FALSE(trace.events().empty());
  std::size_t fault_notes = 0, recovery_notes = 0;
  for (const auto& [cycle, text] : trace.notes()) {
    fault_notes += text.starts_with("fault: attempt ") ? 1 : 0;
    recovery_notes += text.starts_with("recovery: ") ? 1 : 0;
  }
  EXPECT_EQ(fault_notes, rt.recovery_history()[0].fault_log.size());
  EXPECT_GE(recovery_notes, 2u);  // an aborted attempt, then the fallback
}

TEST(Runtime, FaultedConfigRefusedByNonCoprocessorCollector) {
  // Only the coprocessor's recovery ladder owns a faulted cycle; any other
  // collector refuses it before touching the heap or the observers.
  SimConfig cfg;
  cfg.fault.seed = 5;
  cfg.fault.events = 3;
  Runtime rt(1 << 12, cfg, CollectorId::kSequential);
  CycleOracle oracle("", 64);
  rt.set_collection_observer(&oracle);
  Runtime::Ref a = rt.alloc(1, 2);
  rt.set_ptr(a, 0, rt.alloc(0, 3));
  EXPECT_THROW(rt.collect(), std::logic_error);
  EXPECT_TRUE(rt.gc_history().empty());
  EXPECT_TRUE(rt.recovery_history().empty());

  rt.set_fault_config(FaultConfig{});
  rt.collect();
  ASSERT_EQ(rt.gc_history().size(), 1u);
  EXPECT_EQ(rt.gc_history()[0].objects_copied, 2u);
  EXPECT_EQ(oracle.failures(), 0u)
      << (oracle.findings().empty() ? "" : oracle.findings().front());
}

TEST(CycleOracle, HoldsFaultedRuntimeCyclesToTheFullContract) {
  // Every cycle of a fault-injected Runtime — explicit or allocation-
  // triggered, recovered, retried or finished by the sequential fallback —
  // is checked against the report the Runtime's harness kept: liveness,
  // forwarding bijectivity, the evacuation counters and the recovery
  // accounting, not liveness alone.
  SimConfig cfg;
  cfg.coprocessor.num_cores = 4;
  cfg.fault.seed = 3;
  cfg.fault.events = 4;
  cfg.fault.trigger_scale = 48;
  Runtime rt(1024, cfg);
  CycleOracle oracle("", 64);
  rt.set_collection_observer(&oracle);
  TraceCursor churn(ChurnSource({.seed = 5, .target_live = 24}));
  churn.apply(rt, 4000);
  rt.collect();
  ASSERT_GE(rt.gc_history().size(), 3u);
  ASSERT_EQ(rt.recovery_history().size(), rt.gc_history().size());
  std::uint64_t fired = 0;
  for (const RecoveryReport& r : rt.recovery_history()) fired += r.faults_fired;
  EXPECT_GT(fired, 0u) << "faults must fire for this test to mean anything";
  EXPECT_EQ(oracle.failures(), 0u)
      << (oracle.findings().empty() ? "" : oracle.findings().front());
  EXPECT_EQ(churn.validate(rt), 0u);

  // One more cycle, its report's evacuation counter off by one. The
  // Runtime is not const, so writing through its report is defined.
  rt.set_collection_observer(nullptr);
  oracle.before_collection(rt);
  const GcCycleStats& s = rt.collect();
  ++const_cast<CycleReport&>(rt.last_report()).evacuations;
  oracle.after_collection(rt, s);
  EXPECT_EQ(oracle.failures(), 1u);
  ASSERT_EQ(oracle.findings().size(), 1u);
  EXPECT_NE(oracle.findings().front().find("evacuation count"),
            std::string::npos)
      << oracle.findings().front();
}

}  // namespace
}  // namespace hwgc
