// Workload substrate: graph plans, materialization, the eight
// benchmark-shape generators and the seeded churn source (a TraceCursor
// over a ChurnSource).
#include <gtest/gtest.h>

#include <stdexcept>
#include <unordered_set>

#include "heap/object_model.hpp"
#include "runtime/runtime.hpp"
#include "trace/replayer.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/random_graph.hpp"

namespace hwgc {
namespace {

TEST(GraphPlan, CountsLiveAndGarbage) {
  GraphPlan p;
  p.add(2, 3);
  p.add(0, 0, /*garbage=*/true);
  p.add(1, 1);
  EXPECT_EQ(p.live_nodes(), 2u);
  EXPECT_EQ(p.live_words(), object_words(2, 3) + object_words(1, 1));
  EXPECT_EQ(p.total_words(), p.live_words() + object_words(0, 0));
}

TEST(Materialize, HeapHoldsPlanExactly) {
  GraphPlan p;
  const auto a = p.add(2, 1);
  const auto b = p.add(0, 2);
  p.link(a, 1, b);
  p.add_root(a);
  Workload w = materialize(p);
  ASSERT_EQ(w.node_addrs.size(), 2u);
  const Addr aa = w.node_addrs[a];
  const Addr bb = w.node_addrs[b];
  EXPECT_EQ(w.heap->pi(aa), 2u);
  EXPECT_EQ(w.heap->pointer(aa, 0), kNullPtr);
  EXPECT_EQ(w.heap->pointer(aa, 1), bb);
  ASSERT_EQ(w.heap->roots().size(), 1u);
  EXPECT_EQ(w.heap->roots()[0], aa);
  EXPECT_EQ(w.live_words, p.live_words());
}

TEST(Materialize, HeapFactorSizesSemispace) {
  GraphPlan p;
  p.add(0, 100);
  p.add_root(0);
  Workload w2 = materialize(p, 2.0);
  Workload w8 = materialize(p, 8.0);
  EXPECT_GE(w2.heap->layout().semispace_words(), 2 * p.live_words());
  EXPECT_GE(w8.heap->layout().semispace_words(), 8 * p.live_words());
  EXPECT_GT(w8.heap->layout().semispace_words(),
            w2.heap->layout().semispace_words());
}

TEST(Benchmarks, AllNamesRoundTrip) {
  EXPECT_EQ(all_benchmarks().size(), 8u);
  std::unordered_set<std::string_view> names;
  for (BenchmarkId id : all_benchmarks()) names.insert(benchmark_name(id));
  EXPECT_EQ(names.size(), 8u);
  EXPECT_TRUE(names.contains("compress"));
  EXPECT_TRUE(names.contains("search"));
  EXPECT_TRUE(names.contains("cup"));
}

TEST(Benchmarks, DeterministicForSeed) {
  for (BenchmarkId id : all_benchmarks()) {
    const GraphPlan a = make_benchmark_plan(id, 0.01, 7);
    const GraphPlan b = make_benchmark_plan(id, 0.01, 7);
    ASSERT_EQ(a.nodes.size(), b.nodes.size()) << benchmark_name(id);
    ASSERT_EQ(a.edges.size(), b.edges.size());
    for (std::size_t i = 0; i < a.nodes.size(); ++i) {
      ASSERT_EQ(a.nodes[i].pi, b.nodes[i].pi);
      ASSERT_EQ(a.nodes[i].delta, b.nodes[i].delta);
    }
  }
}

TEST(Benchmarks, ScaleGrowsLiveSet) {
  for (BenchmarkId id : all_benchmarks()) {
    const GraphPlan small = make_benchmark_plan(id, 0.01);
    const GraphPlan large = make_benchmark_plan(id, 0.05);
    EXPECT_GT(large.live_words(), small.live_words()) << benchmark_name(id);
  }
}

TEST(Benchmarks, EdgesRespectPointerAreas) {
  for (BenchmarkId id : all_benchmarks()) {
    const GraphPlan p = make_benchmark_plan(id, 0.02);
    for (const auto& e : p.edges) {
      ASSERT_LT(e.src, p.nodes.size()) << benchmark_name(id);
      ASSERT_LT(e.dst, p.nodes.size());
      ASSERT_LT(e.field, p.nodes[e.src].pi)
          << benchmark_name(id) << ": edge into a non-pointer field";
    }
    for (const auto& n : p.nodes) {
      ASSERT_LE(n.pi, kMaxPi) << benchmark_name(id);
      ASSERT_LE(n.delta, kMaxDelta);
    }
    ASSERT_FALSE(p.roots.empty()) << benchmark_name(id);
  }
}

TEST(Benchmarks, RejectsNonPositiveScale) {
  EXPECT_THROW(make_benchmark_plan(BenchmarkId::kDb, 0.0),
               std::invalid_argument);
  EXPECT_THROW(make_benchmark_plan(BenchmarkId::kDb, -1.0),
               std::invalid_argument);
}

// ChurnSource::Config validation: impossible configurations must throw
// at construction (or on the first step against an undersized heap), not
// corrupt headers or die whenever the rng happens to draw the bad shape.
// The suite names predate the churn source; they cover the same contracts.
TEST(ShadowMutatorConfig, RejectsZeroTargetLive) {
  ChurnSource::Config cfg;
  cfg.target_live = 0;
  EXPECT_THROW(ChurnSource{cfg}, std::invalid_argument);
}

TEST(ShadowMutatorConfig, RejectsShapesBeyondHeaderEncoding) {
  ChurnSource::Config pi_too_big;
  pi_too_big.max_pi = kMaxPi + 1;
  EXPECT_THROW(ChurnSource{pi_too_big}, std::invalid_argument);

  ChurnSource::Config delta_too_big;
  delta_too_big.max_delta = kMaxDelta + 1;
  EXPECT_THROW(ChurnSource{delta_too_big}, std::invalid_argument);

  ChurnSource::Config at_limit;
  at_limit.max_pi = kMaxPi;
  at_limit.max_delta = kMaxDelta;
  EXPECT_NO_THROW(ChurnSource{at_limit});
}

TEST(ShadowMutatorConfig, RejectsShapeThatCanNeverFitSemispace) {
  Runtime rt(64);
  ChurnSource::Config cfg;
  cfg.max_pi = 100;
  cfg.max_delta = 200;  // max-shape object: 302 words, far over capacity
  TraceCursor churn{ChurnSource(cfg)};
  EXPECT_THROW(churn.apply(rt, 1), std::invalid_argument);

  Runtime big(1 << 14);
  TraceCursor ok{ChurnSource(cfg)};
  EXPECT_NO_THROW(ok.apply(big, 50));
}

TEST(ShadowMutatorProbe, ReadsMatchShadowAcrossCollections) {
  Runtime rt(2200);  // small semispace: reads span collection cycles
  TraceCursor churn(ChurnSource({.seed = 3, .target_live = 48}));
  std::size_t words_read = 0;
  for (int i = 0; i < 900; ++i) {
    churn.apply(rt, 10);
    words_read += churn.apply(rt, 1, /*read=*/true);
  }
  EXPECT_GE(rt.gc_history().size(), 2u)
      << "reads must have spanned collection cycles";
  EXPECT_GT(words_read, 0u);
  EXPECT_EQ(churn.read_mismatches(), 0u);
}

TEST(ShadowMutatorProbe, ProbeWithoutMismatchPointerIsSafe) {
  // A read before anything is rooted reads nothing; later reads count
  // their words and every digest matches.
  Runtime rt(1 << 14);
  TraceCursor churn(ChurnSource({.seed = 9, .target_live = 16}));
  EXPECT_EQ(churn.apply(rt, 1, /*read=*/true), 0u)
      << "nothing rooted yet: nothing to read";
  churn.apply(rt, 200);
  churn.apply(rt, 8, /*read=*/true);
  EXPECT_EQ(churn.read_mismatches(), 0u);
}

TEST(ChurnSource, DivergedReadCountsOneMismatch) {
  // Every data word of every rooted object changes behind the churn's
  // back. The first read that covers any words counts one mismatch,
  // however many of its words differ; the walk counts every stale word.
  Runtime rt(1 << 14);
  TraceCursor churn(ChurnSource({.seed = 9, .target_live = 4}));
  churn.apply(rt, 100);
  Heap& heap = rt.heap();
  for (Addr obj : heap.roots()) {
    if (obj == kNullPtr) continue;
    for (Word j = 0; j < heap.delta(obj); ++j) {
      heap.set_data(obj, j, ~heap.data(obj, j));
    }
  }
  std::size_t words = 0;
  for (int i = 0; i < 64 && words == 0; ++i) {
    words = churn.apply(rt, 1, /*read=*/true);
  }
  ASSERT_GT(words, 0u);
  EXPECT_EQ(churn.read_mismatches(), 1u);
  EXPECT_GE(churn.validate(rt), words);
}

TEST(ShadowMutator, TracksLiveRootedCount) {
  Runtime rt(1 << 14);
  TraceCursor churn(ChurnSource({.seed = 3, .target_live = 16}));
  EXPECT_EQ(churn.live_ids(), 0u);
  churn.apply(rt, 200);
  EXPECT_GT(churn.live_ids(), 0u);
  EXPECT_GT(churn.ids(), 0u);
  EXPECT_EQ(churn.live_ids(), rt.live_roots());
  EXPECT_EQ(churn.validate(rt), 0u);
}

TEST(ShadowMutator, DeterministicForSeed) {
  Runtime rt1(1 << 14), rt2(1 << 14);
  TraceCursor c1{ChurnSource({.seed = 9})}, c2{ChurnSource({.seed = 9})};
  c1.apply(rt1, 500);
  c2.apply(rt2, 500);
  EXPECT_EQ(c1.ids(), c2.ids());
  EXPECT_EQ(c1.live_ids(), c2.live_ids());
  EXPECT_EQ(c1.state_digest(), c2.state_digest());
  EXPECT_EQ(rt1.save_image().words, rt2.save_image().words);
}

TEST(RandomGraph, DeterministicAndInBounds) {
  const GraphPlan a = make_random_plan(3);
  const GraphPlan b = make_random_plan(3);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (const auto& e : a.edges) {
    ASSERT_LT(e.field, a.nodes[e.src].pi);
    ASSERT_FALSE(a.nodes[e.dst].garbage) << "edges must target live nodes";
  }
  const GraphPlan c = make_random_plan(4);
  EXPECT_NE(a.edges.size(), c.edges.size());
}

}  // namespace
}  // namespace hwgc
