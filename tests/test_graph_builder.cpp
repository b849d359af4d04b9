// ShadowMutator internals.
#include <gtest/gtest.h>

#include "workloads/mutator.hpp"

namespace hwgc {
namespace {

TEST(ShadowMutator, TracksLiveRootedCount) {
  Runtime rt(1 << 14);
  ShadowMutator mut({.seed = 3, .target_live = 16});
  EXPECT_EQ(mut.live_rooted(), 0u);
  mut.run(rt, 200);
  EXPECT_GT(mut.live_rooted(), 0u);
  EXPECT_GT(mut.allocations(), 0u);
  EXPECT_EQ(mut.validate(rt), 0u);
}

TEST(ShadowMutator, DeterministicForSeed) {
  Runtime rt1(1 << 14), rt2(1 << 14);
  ShadowMutator m1({.seed = 9}), m2({.seed = 9});
  m1.run(rt1, 500);
  m2.run(rt2, 500);
  EXPECT_EQ(m1.allocations(), m2.allocations());
  EXPECT_EQ(m1.live_rooted(), m2.live_rooted());
}

}  // namespace
}  // namespace hwgc
