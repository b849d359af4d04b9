// Shard checkpoints (service/checkpoint.hpp): deterministic capture of a
// shard's full recovery state — heap image, root namespace, the session
// cursors (mirror, position and churn RNG), session affinity — sealed by
// an integrity digest. The contract under test:
//   * capture → restore → capture round-trips bit-identically (equal
//     digests, equal heap words);
//   * a restored shard REPLAYS deterministically: the same request steps
//     produce the same state as the first time they ran;
//   * a tampered checkpoint is refused (restore_into returns false and
//     leaves the target untouched) — a restore must never smuggle
//     corruption past the oracle.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "runtime/runtime.hpp"
#include "service/checkpoint.hpp"
#include "sim/config.hpp"
#include "trace/replayer.hpp"

namespace hwgc {
namespace {

SimConfig sim_config() {
  SimConfig cfg;
  cfg.coprocessor.num_cores = 2;
  return cfg;
}

/// One churn session, keyed like a churn shard's.
ShardCheckpoint::Cursors churn_cursors() {
  ShardCheckpoint::Cursors c;
  c.emplace(0, TraceCursor(ChurnSource({.seed = 42, .target_live = 64})));
  return c;
}

void churn(Runtime& rt, ShardCheckpoint::Cursors& c, int steps) {
  c.at(0).apply(rt, static_cast<std::size_t>(steps));
}

std::uint64_t state_of(const ShardCheckpoint::Cursors& c) {
  return c.at(0).state_digest();
}

TEST(Checkpoint, CaptureIsSelfConsistent) {
  Runtime rt(4096, sim_config());
  ShardCheckpoint::Cursors cursors = churn_cursors();
  churn(rt, cursors, 200);
  const ShardCheckpoint cp = ShardCheckpoint::capture(3, 16, rt, cursors, 0);
  EXPECT_TRUE(cp.verify());
  EXPECT_EQ(cp.shard, 3u);
  EXPECT_EQ(cp.sessions, 16u);
  EXPECT_EQ(cp.digest, cp.compute_digest());
}

TEST(Checkpoint, RestoreRoundTripsBitIdentically) {
  Runtime rt(4096, sim_config());
  ShardCheckpoint::Cursors cursors = churn_cursors();
  churn(rt, cursors, 300);
  rt.collect();
  const ShardCheckpoint cp = ShardCheckpoint::capture(0, 8, rt, cursors, 1);

  // Diverge hard: more churn, another collection.
  churn(rt, cursors, 400);
  rt.collect();
  const ShardCheckpoint diverged =
      ShardCheckpoint::capture(0, 8, rt, cursors, 2);
  EXPECT_NE(diverged.digest, cp.digest)
      << "distinct states must not collide in the digest";

  ASSERT_TRUE(cp.restore_into(rt, cursors));
  const ShardCheckpoint again = ShardCheckpoint::capture(0, 8, rt, cursors, 1);
  EXPECT_EQ(again.digest, cp.digest);
  EXPECT_EQ(again.runtime.words, cp.runtime.words);
  EXPECT_EQ(again.runtime.roots, cp.runtime.roots);
  EXPECT_EQ(again.runtime.alloc, cp.runtime.alloc);
  EXPECT_EQ(state_of(again.cursors), state_of(cp.cursors));
  // The restored shard is internally consistent: mirror agrees with heap.
  EXPECT_EQ(cursors.at(0).validate(rt), 0u);
}

TEST(Checkpoint, RestoredShardReplaysDeterministically) {
  // Run A: checkpoint, then K more steps -> image1. Restore, run the SAME
  // K steps -> image2. The churn RNG is part of the checkpoint, so the
  // two futures must be bit-identical — this is what makes a quarantine
  // restore invisible to determinism tests.
  Runtime rt(4096, sim_config());
  ShardCheckpoint::Cursors cursors = churn_cursors();
  churn(rt, cursors, 250);
  const ShardCheckpoint cp = ShardCheckpoint::capture(1, 8, rt, cursors, 0);

  churn(rt, cursors, 150);
  const Runtime::Image first = rt.save_image();
  const std::uint64_t first_state = state_of(cursors);

  ASSERT_TRUE(cp.restore_into(rt, cursors));
  churn(rt, cursors, 150);
  const Runtime::Image second = rt.save_image();
  const std::uint64_t second_state = state_of(cursors);

  EXPECT_EQ(first.words, second.words);
  EXPECT_EQ(first.roots, second.roots);
  EXPECT_EQ(first.alloc, second.alloc);
  EXPECT_EQ(first.base, second.base);
  EXPECT_EQ(first_state, second_state);
}

TEST(Checkpoint, RestoreAcrossSemispaceFlip) {
  // A collection flips the active semispace; a checkpoint taken before the
  // flip must still restore cleanly after it (restore_image flips back).
  Runtime rt(4096, sim_config());
  ShardCheckpoint::Cursors cursors = churn_cursors();
  churn(rt, cursors, 300);
  const ShardCheckpoint cp = ShardCheckpoint::capture(0, 8, rt, cursors, 0);
  const Addr base_at_capture = cp.runtime.base;

  rt.collect();  // flip
  churn(rt, cursors, 100);

  ASSERT_TRUE(cp.restore_into(rt, cursors));
  const ShardCheckpoint again = ShardCheckpoint::capture(0, 8, rt, cursors, 0);
  EXPECT_EQ(again.runtime.base, base_at_capture);
  EXPECT_EQ(again.digest, cp.digest);
  EXPECT_EQ(cursors.at(0).validate(rt), 0u);
}

TEST(Checkpoint, TamperedHeapWordRefused) {
  Runtime rt(4096, sim_config());
  ShardCheckpoint::Cursors cursors = churn_cursors();
  churn(rt, cursors, 200);
  ShardCheckpoint cp = ShardCheckpoint::capture(0, 8, rt, cursors, 0);
  ASSERT_FALSE(cp.runtime.words.empty());

  churn(rt, cursors, 50);
  const Runtime::Image before = rt.save_image();
  const std::uint64_t before_state = state_of(cursors);

  cp.runtime.words[cp.runtime.words.size() / 2] ^= 0x40;
  EXPECT_FALSE(cp.verify());
  EXPECT_FALSE(cp.restore_into(rt, cursors))
      << "a checkpoint failing its digest must be refused";

  // Refusal means untouched: the live shard state did not move.
  const Runtime::Image after = rt.save_image();
  EXPECT_EQ(before.words, after.words);
  EXPECT_EQ(before.roots, after.roots);
  EXPECT_EQ(before_state, state_of(cursors));
}

TEST(Checkpoint, TamperedMetadataRefused) {
  Runtime rt(4096, sim_config());
  ShardCheckpoint::Cursors cursors = churn_cursors();
  churn(rt, cursors, 100);

  ShardCheckpoint a = ShardCheckpoint::capture(0, 8, rt, cursors, 0);
  a.sessions = 9;  // session affinity is covered by the digest
  EXPECT_FALSE(a.verify());
  EXPECT_FALSE(a.restore_into(rt, cursors));

  ShardCheckpoint b = ShardCheckpoint::capture(0, 8, rt, cursors, 0);
  b.cursors = churn_cursors();  // the cursors too (mirror, RNG position)
  EXPECT_FALSE(b.verify());
  EXPECT_FALSE(b.restore_into(rt, cursors));

  ShardCheckpoint c = ShardCheckpoint::capture(0, 8, rt, cursors, 0);
  ASSERT_FALSE(c.runtime.roots.empty());
  c.runtime.roots[0] ^= 1;  // and the root namespace
  EXPECT_FALSE(c.verify());
  EXPECT_FALSE(c.restore_into(rt, cursors));
}

}  // namespace
}  // namespace hwgc
