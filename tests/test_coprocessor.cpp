// Coprocessor collector: edge cases, configuration knobs, determinism and
// the central property sweep — random graphs (cycles, self-loops, shared
// children, garbage) collected at every core count must always preserve
// the live graph, never violate the lock order, and agree with the
// sequential reference on what was copied.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "baselines/sequential_cheney.hpp"
#include "core/coprocessor.hpp"
#include "sim/trace.hpp"
#include "heap/verifier.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/random_graph.hpp"

namespace hwgc {
namespace {

GcCycleStats collect(Heap& heap, std::uint32_t cores,
                     SimConfig cfg = SimConfig{}) {
  cfg.coprocessor.num_cores = cores;
  Coprocessor coproc(cfg, heap);
  return coproc.collect();
}

TEST(Coprocessor, EmptyRootSetTerminatesImmediately) {
  Heap heap(256);
  heap.allocate(2, 2);  // garbage
  const GcCycleStats s = collect(heap, 8);
  EXPECT_EQ(s.objects_copied, 0u);
  EXPECT_EQ(s.words_copied, 0u);
  EXPECT_LT(s.total_cycles, 100u);
}

TEST(Coprocessor, NullRootsAreSkipped) {
  Heap heap(256);
  const Addr a = heap.allocate(0, 1);
  heap.set_data(a, 0, 5);
  heap.roots().assign({kNullPtr, a, kNullPtr});
  const HeapSnapshot pre = HeapSnapshot::capture(heap);
  collect(heap, 4);
  EXPECT_TRUE(verify_collection(pre, heap).ok);
  EXPECT_EQ(heap.roots()[0], kNullPtr);
  EXPECT_EQ(heap.roots()[2], kNullPtr);
}

TEST(Coprocessor, DuplicateRootsShareOneCopy) {
  Heap heap(256);
  const Addr a = heap.allocate(1, 1);
  heap.roots().assign({a, a, a});
  const GcCycleStats s = collect(heap, 4);
  EXPECT_EQ(s.objects_copied, 1u);
  EXPECT_EQ(heap.roots()[0], heap.roots()[1]);
  EXPECT_EQ(heap.roots()[1], heap.roots()[2]);
}

TEST(Coprocessor, SelfReferencePointsToOwnCopy) {
  Heap heap(256);
  const Addr a = heap.allocate(1, 0);
  heap.set_pointer(a, 0, a);
  heap.roots().assign({a});
  collect(heap, 4);
  const Addr copy = heap.roots()[0];
  EXPECT_EQ(heap.pointer(copy, 0), copy);
}

TEST(Coprocessor, CyclicGraphTerminates) {
  Heap heap(512);
  const Addr a = heap.allocate(1, 1);
  const Addr b = heap.allocate(1, 1);
  const Addr c = heap.allocate(1, 1);
  heap.set_pointer(a, 0, b);
  heap.set_pointer(b, 0, c);
  heap.set_pointer(c, 0, a);
  heap.roots().assign({a});
  const HeapSnapshot pre = HeapSnapshot::capture(heap);
  const GcCycleStats s = collect(heap, 8);
  EXPECT_EQ(s.objects_copied, 3u);
  EXPECT_TRUE(verify_collection(pre, heap).ok);
}

TEST(Coprocessor, GarbageIsNotCopied) {
  Heap heap(1024);
  const Addr live = heap.allocate(0, 4);
  for (int i = 0; i < 10; ++i) heap.allocate(2, 8);  // unreachable
  heap.roots().assign({live});
  const GcCycleStats s = collect(heap, 4);
  EXPECT_EQ(s.objects_copied, 1u);
  EXPECT_EQ(s.words_copied, object_words(0, 4));
}

TEST(Coprocessor, SingleCoreMatchesSequentialCheneyExactly) {
  // The paper: "this single-core configuration performs like the original
  // sequential implementation of Cheney's algorithm" — and it must also
  // produce the *identical* tospace image (same traversal order).
  const GraphPlan plan = make_benchmark_plan(BenchmarkId::kJlisp, 0.05);
  Workload a = materialize(plan);
  Workload b = materialize(plan);
  const HeapSnapshot pre_a = HeapSnapshot::capture(*a.heap);
  collect(*a.heap, 1);
  SequentialCheney::collect(*b.heap);
  ASSERT_EQ(a.heap->alloc_ptr(), b.heap->alloc_ptr());
  for (Addr x = a.heap->layout().current_base(); x < a.heap->alloc_ptr();
       ++x) {
    ASSERT_EQ(a.heap->memory().load(x), b.heap->memory().load(x))
        << "divergence at word " << x;
  }
  EXPECT_TRUE(verify_collection(pre_a, *a.heap).ok);
}

TEST(Coprocessor, DeterministicForFixedSeedAndConfig) {
  for (std::uint32_t cores : {3u, 16u}) {
    Workload w1 = make_benchmark(BenchmarkId::kJavacc, 0.02);
    Workload w2 = make_benchmark(BenchmarkId::kJavacc, 0.02);
    const GcCycleStats s1 = collect(*w1.heap, cores);
    const GcCycleStats s2 = collect(*w2.heap, cores);
    EXPECT_EQ(s1.total_cycles, s2.total_cycles);
    EXPECT_EQ(s1.worklist_empty_cycles, s2.worklist_empty_cycles);
    EXPECT_EQ(s1.mem_requests, s2.mem_requests);
    for (std::size_t c = 0; c < s1.per_core.size(); ++c) {
      EXPECT_EQ(s1.per_core[c].objects_scanned,
                s2.per_core[c].objects_scanned);
      EXPECT_EQ(s1.per_core[c].total_stalls(), s2.per_core[c].total_stalls());
    }
  }
}

TEST(Coprocessor, WorksWithFifoDisabled) {
  Workload w = make_benchmark(BenchmarkId::kDb, 0.01);
  const HeapSnapshot pre = HeapSnapshot::capture(*w.heap);
  SimConfig cfg;
  cfg.coprocessor.header_fifo_capacity = 0;
  const GcCycleStats s = collect(*w.heap, 8, cfg);
  EXPECT_TRUE(verify_collection(pre, *w.heap).ok);
  EXPECT_EQ(s.fifo_hits, 0u);
  EXPECT_EQ(s.fifo_misses, s.objects_copied);
}

TEST(Coprocessor, FifoDisabledIsSlower) {
  SimConfig with_fifo;
  SimConfig without = with_fifo;
  without.coprocessor.header_fifo_capacity = 0;
  Workload w1 = make_benchmark(BenchmarkId::kDb, 0.02);
  Workload w2 = make_benchmark(BenchmarkId::kDb, 0.02);
  const Cycle fast = collect(*w1.heap, 8, with_fifo).total_cycles;
  const Cycle slow = collect(*w2.heap, 8, without).total_cycles;
  EXPECT_GT(slow, fast);
}

TEST(Coprocessor, MarkbitEarlyReadPreservesCorrectness) {
  for (BenchmarkId id : {BenchmarkId::kJavac, BenchmarkId::kJlisp}) {
    Workload w = make_benchmark(id, 0.02);
    const HeapSnapshot pre = HeapSnapshot::capture(*w.heap);
    SimConfig cfg;
    cfg.coprocessor.markbit_early_read = true;
    const GcCycleStats s = collect(*w.heap, 16, cfg);
    EXPECT_EQ(s.objects_copied, pre.objects.size());
    EXPECT_TRUE(verify_collection(pre, *w.heap).ok) << benchmark_name(id);
  }
}

TEST(Coprocessor, WatchdogThrowsOnImpossibleBudget) {
  Workload w = make_benchmark(BenchmarkId::kJlisp, 0.05);
  SimConfig cfg;
  cfg.coprocessor.watchdog_cycles = 10;  // absurdly small
  cfg.coprocessor.num_cores = 2;
  Coprocessor coproc(cfg, *w.heap);
  EXPECT_THROW(coproc.collect(), std::runtime_error);
}

TEST(Coprocessor, MoreCoresNeverProduceWrongResultsUnderContention) {
  // Tiny objects + hot hubs + 16 cores: maximum contention on all three
  // lock classes at once.
  GraphPlan p;
  const auto hub = p.add(0, 1);
  std::vector<std::uint32_t> heads;
  for (int c = 0; c < 8; ++c) {
    std::uint32_t prev = 0;
    for (int i = 0; i < 200; ++i) {
      const auto n = p.add(2, 0);
      p.link(n, 1, hub);
      if (i == 0) {
        heads.push_back(n);
      } else {
        p.link(prev, 0, n);
      }
      prev = n;
    }
  }
  const auto root = p.add(static_cast<Word>(heads.size() + 1), 0);
  p.add_root(root);
  p.link(root, 0, hub);
  for (std::size_t i = 0; i < heads.size(); ++i) {
    p.link(root, static_cast<Word>(i + 1), heads[i]);
  }
  Workload w = materialize(p);
  const HeapSnapshot pre = HeapSnapshot::capture(*w.heap);
  const GcCycleStats s = collect(*w.heap, 16);
  EXPECT_EQ(s.objects_copied, pre.objects.size());
  EXPECT_TRUE(s.lock_order_violations.empty());
  EXPECT_TRUE(verify_collection(pre, *w.heap).ok);
}

// ---------------------------------------------------------------------------
// Property sweep: random graphs x core counts.
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Termination-condition edge cases (Section IV: terminate exactly when
// scan == free and every busy bit is clear). The condition is reconstructed
// cycle-by-cycle from the on-change SignalTrace samples, so the tests see
// every moment it changed, not just the final state.
// ---------------------------------------------------------------------------

struct TerminationProfile {
  std::uint64_t false_to_true = 0;  ///< cycles the condition became true
  std::uint64_t false_cycles = 0;   ///< sampled cycles with condition false
  bool final_true = false;          ///< condition at the last sampled cycle
};

TerminationProfile replay_termination(const SignalTrace& trace) {
  const auto& names = trace.signal_names();
  const auto idx = [&](const char* want) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == want) return static_cast<std::uint16_t>(i);
    }
    throw std::runtime_error(std::string("signal not traced: ") + want);
  };
  const std::uint16_t sig_scan = idx("scan");
  const std::uint16_t sig_free = idx("free");
  const std::uint16_t sig_busy = idx("busy_cores");

  TerminationProfile prof;
  std::uint64_t scan = 0, free = 0, busy = 0;
  bool prev = true, have_prev = false;
  const auto& events = trace.events();
  for (std::size_t i = 0; i < events.size();) {
    const Cycle cycle = events[i].cycle;
    for (; i < events.size() && events[i].cycle == cycle; ++i) {
      if (events[i].signal == sig_scan) scan = events[i].value;
      if (events[i].signal == sig_free) free = events[i].value;
      if (events[i].signal == sig_busy) busy = events[i].value;
    }
    // Sampling is on-change: between sampled cycles the condition is
    // constant, so this visits every value it ever took.
    const bool cond = scan == free && busy == 0;
    if (!cond) ++prof.false_cycles;
    if (have_prev && !prev && cond) ++prof.false_to_true;
    prev = cond;
    have_prev = true;
    prof.final_true = cond;
  }
  return prof;
}

GcCycleStats collect_traced(Heap& heap, std::uint32_t cores,
                            SignalTrace& trace) {
  SimConfig cfg;
  cfg.coprocessor.num_cores = cores;
  Coprocessor coproc(cfg, heap);
  return coproc.collect(&trace);
}

TEST(CoprocessorTermination, EmptyRootSetNeverLeavesTheCondition) {
  Heap heap(256);
  heap.allocate(2, 2);  // unreachable
  SignalTrace trace;
  const GcCycleStats s = collect_traced(heap, 8, trace);
  const TerminationProfile prof = replay_termination(trace);
  EXPECT_EQ(s.objects_copied, 0u);
  // scan == free and all-idle hold from the first sampled cycle onward:
  // the condition is never left, so it is never re-reached.
  EXPECT_EQ(prof.false_cycles, 0u) << "condition must hold throughout";
  EXPECT_EQ(prof.false_to_true, 0u);
  EXPECT_TRUE(prof.final_true);
}

TEST(CoprocessorTermination, SingleObjectReachesTheConditionExactlyOnce) {
  Heap heap(256);
  const Addr a = heap.allocate(0, 0);  // minimal object: header only
  heap.roots().assign({a});
  const HeapSnapshot pre = HeapSnapshot::capture(heap);
  SignalTrace trace;
  const GcCycleStats s = collect_traced(heap, 4, trace);
  EXPECT_EQ(s.objects_copied, 1u);
  EXPECT_TRUE(verify_collection(pre, heap).ok);
  const TerminationProfile prof = replay_termination(trace);
  EXPECT_GT(prof.false_cycles, 0u) << "evacuating the root must open a "
                                      "scan != free window";
  EXPECT_EQ(prof.false_to_true, 1u)
      << "the termination condition must be reached exactly once";
  EXPECT_TRUE(prof.final_true);
}

TEST(CoprocessorTermination, IdleCoresWithOneLateEvacuationIsNotTermination) {
  // Root object with a big data area and one pointer discovered mid-scan:
  // while core 0 copies the data, scan == free and the other cores sit
  // idle — only core 0's busy bit separates that state from termination.
  // The condition must still be reached exactly once, at the real end.
  Heap heap(512);
  const Addr a = heap.allocate(1, 40);
  const Addr b = heap.allocate(0, 1);
  heap.set_pointer(a, 0, b);
  heap.roots().assign({a});
  const HeapSnapshot pre = HeapSnapshot::capture(heap);
  SignalTrace trace;
  const GcCycleStats s = collect_traced(heap, 8, trace);
  EXPECT_EQ(s.objects_copied, 2u);
  EXPECT_TRUE(verify_collection(pre, heap).ok);
  const TerminationProfile prof = replay_termination(trace);
  EXPECT_EQ(prof.false_to_true, 1u)
      << "busy bits must mask the idle-cores window";
  EXPECT_TRUE(prof.final_true);
}

class RandomGraphProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint32_t>> {
};

TEST_P(RandomGraphProperty, CollectsCorrectly) {
  const auto [seed, cores] = GetParam();
  RandomGraphConfig rcfg;
  rcfg.nodes = 400;
  const GraphPlan plan = make_random_plan(seed, rcfg);
  Workload w = materialize(plan);
  const HeapSnapshot pre = HeapSnapshot::capture(*w.heap);
  const GcCycleStats s = collect(*w.heap, cores);
  EXPECT_EQ(s.objects_copied, pre.objects.size());
  EXPECT_TRUE(s.lock_order_violations.empty());
  const VerifyResult res = verify_collection(pre, *w.heap);
  EXPECT_TRUE(res.ok) << "seed=" << seed << " cores=" << cores << ": "
                      << res.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomGraphProperty,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 21),
                       ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 16u)),
    [](const auto& param_info) {
      return "seed" + std::to_string(std::get<0>(param_info.param)) +
             "_cores" + std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace hwgc
