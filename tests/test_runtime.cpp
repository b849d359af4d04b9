// Runtime facade + multi-cycle integration: seeded churn (a TraceCursor
// over a ChurnSource) drives the heap through many coprocessor collection
// cycles and the heap must agree with the cursor's mirror afterwards — the
// strongest end-to-end property in the suite (object identity, shape, data
// and links across moves).
#include <gtest/gtest.h>

#include "runtime/runtime.hpp"
#include "trace/replayer.hpp"

namespace hwgc {
namespace {

TEST(Runtime, AllocateAndAccess) {
  Runtime rt(1 << 16);
  auto a = rt.alloc(2, 3);
  auto b = rt.alloc(0, 1);
  rt.set_ptr(a, 0, b);
  rt.set_data(a, 2, 0xdeadbeef);
  rt.set_data(b, 0, 42);
  EXPECT_EQ(rt.pi(a), 2u);
  EXPECT_EQ(rt.delta(a), 3u);
  EXPECT_EQ(rt.get_data(a, 2), 0xdeadbeefu);
  auto b2 = rt.load_ptr(a, 0);
  EXPECT_EQ(rt.get_data(b2, 0), 42u);
  auto nul = rt.load_ptr(a, 1);
  EXPECT_TRUE(nul.is_null());
}

TEST(Runtime, SurvivesExplicitCollection) {
  Runtime rt(1 << 14);
  auto a = rt.alloc(1, 2);
  auto b = rt.alloc(0, 2);
  rt.set_ptr(a, 0, b);
  rt.set_data(b, 0, 7);
  rt.set_data(b, 1, 9);
  const Addr before = rt.address_of(a);
  rt.collect();
  EXPECT_NE(rt.address_of(a), before) << "copying GC must move the object";
  auto b2 = rt.load_ptr(a, 0);
  EXPECT_EQ(rt.get_data(b2, 0), 7u);
  EXPECT_EQ(rt.get_data(b2, 1), 9u);
  EXPECT_EQ(rt.gc_history().size(), 1u);
}

TEST(Runtime, CollectsAutomaticallyOnExhaustion) {
  Runtime rt(2048);
  // Allocate and drop garbage until well past several semispaces' worth.
  std::uint64_t allocated_words = 0;
  for (int i = 0; i < 600; ++i) {
    auto r = rt.alloc(0, 8);
    allocated_words += 10;
    rt.release(r);
  }
  EXPECT_GE(rt.gc_history().size(), 2u)
      << "dropping garbage must have triggered collections";
}

TEST(Runtime, ThrowsWhenLiveSetExceedsHeap) {
  Runtime rt(256);
  std::vector<Runtime::Ref> pins;
  EXPECT_THROW(
      {
        for (int i = 0; i < 100; ++i) pins.push_back(rt.alloc(0, 16));
      },
      std::runtime_error);
}

// Root-table hygiene: a released Ref's slot must be handed to a later
// alloc instead of growing the table — a service holding shards for
// millions of requests would otherwise leak root slots without bound.
TEST(Runtime, ReleasedRootSlotsAreReused) {
  Runtime rt(1 << 14);
  constexpr std::size_t kBatch = 32;
  std::vector<Runtime::Ref> refs;
  for (std::size_t i = 0; i < kBatch; ++i) refs.push_back(rt.alloc(0, 1));
  EXPECT_EQ(rt.live_roots(), kBatch);
  EXPECT_EQ(rt.root_count(), kBatch);
  EXPECT_EQ(rt.root_high_water(), kBatch);

  for (auto& r : refs) rt.release(r);
  refs.clear();
  EXPECT_EQ(rt.live_roots(), 0u);
  EXPECT_EQ(rt.root_count(), kBatch) << "slots stay in the table, freelisted";
  EXPECT_EQ(rt.root_high_water(), kBatch) << "high water never shrinks";

  // Churn several batches through: the table must never grow past the
  // first batch's high-water mark.
  for (int round = 0; round < 8; ++round) {
    for (std::size_t i = 0; i < kBatch; ++i) refs.push_back(rt.alloc(0, 1));
    EXPECT_EQ(rt.live_roots(), kBatch);
    EXPECT_EQ(rt.root_count(), kBatch)
        << "round " << round << ": released slots were not reused";
    EXPECT_EQ(rt.root_high_water(), kBatch);
    for (auto& r : refs) rt.release(r);
    refs.clear();
  }
}

TEST(Runtime, RootHighWaterTracksPeakNotCurrent) {
  Runtime rt(1 << 14);
  auto a = rt.alloc(0, 1);
  auto b = rt.alloc(0, 1);
  auto c = rt.alloc(0, 1);
  EXPECT_EQ(rt.root_high_water(), 3u);
  rt.release(b);
  rt.release(c);
  EXPECT_EQ(rt.live_roots(), 1u);
  EXPECT_EQ(rt.root_high_water(), 3u);
  auto d = rt.alloc(0, 1);  // reuses a freed slot
  EXPECT_EQ(rt.live_roots(), 2u);
  EXPECT_EQ(rt.root_count(), 3u);
  EXPECT_EQ(rt.root_high_water(), 3u);
  rt.release(a);
  rt.release(d);
}

// The CollectionObserver seam (what the heap service hangs its per-cycle
// oracle on): both explicit collect() calls and exhaustion-triggered
// cycles inside alloc() must invoke before/after in matched pairs.
struct CountingObserver final : CollectionObserver {
  int before = 0;
  int after = 0;
  Cycle last_cycles = 0;
  void before_collection(Runtime&) override { ++before; }
  void after_collection(Runtime&, const GcCycleStats& s) override {
    ++after;
    last_cycles = s.total_cycles;
  }
};

TEST(Runtime, ObserverSeesExplicitAndExhaustionCycles) {
  Runtime rt(2048);
  CountingObserver obs;
  rt.set_collection_observer(&obs);
  EXPECT_EQ(rt.collection_observer(), &obs);

  rt.collect();
  EXPECT_EQ(obs.before, 1);
  EXPECT_EQ(obs.after, 1);

  // Churn garbage until allocation itself triggers collections.
  for (int i = 0; i < 600; ++i) {
    auto r = rt.alloc(0, 8);
    rt.release(r);
  }
  EXPECT_GE(rt.gc_history().size(), 2u);
  EXPECT_EQ(obs.after, static_cast<int>(rt.gc_history().size()))
      << "every completed cycle must reach the observer";
  EXPECT_EQ(obs.before, obs.after);
  EXPECT_GT(obs.last_cycles, 0u);

  rt.set_collection_observer(nullptr);
  rt.collect();
  EXPECT_EQ(obs.after, static_cast<int>(rt.gc_history().size()) - 1)
      << "detached observer must not be called";
}

struct MutatorCase {
  std::uint32_t cores;
  std::uint64_t seed;
  std::size_t steps;
};

class ShadowMutatorChurn : public ::testing::TestWithParam<MutatorCase> {};

TEST_P(ShadowMutatorChurn, HeapMatchesShadowAfterManyCycles) {
  const MutatorCase param = GetParam();
  SimConfig cfg;
  cfg.coprocessor.num_cores = param.cores;
  Runtime rt(2200, cfg);  // small semispace: forces frequent collections
  TraceCursor churn(ChurnSource({.seed = param.seed, .target_live = 48}));
  EXPECT_EQ(churn.apply(rt, param.steps), param.steps);
  EXPECT_GE(rt.gc_history().size(), 3u)
      << "test must actually exercise several collection cycles";
  EXPECT_EQ(churn.validate(rt), 0u);
  // And survive one more forced collection right after validation.
  rt.collect();
  EXPECT_EQ(churn.validate(rt), 0u);
  for (const auto& cycle : rt.gc_history()) {
    EXPECT_TRUE(cycle.lock_order_violations.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Churn, ShadowMutatorChurn,
    ::testing::Values(MutatorCase{1, 7, 8000}, MutatorCase{2, 11, 8000},
                      MutatorCase{4, 13, 10000}, MutatorCase{8, 17, 10000},
                      MutatorCase{16, 23, 12000}),
    [](const auto& param_info) {
      return "cores" + std::to_string(param_info.param.cores) + "_seed" +
             std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace hwgc
