// Unit tests for the split-transaction memory access scheduler
// (paper Section V-D): buffer occupancy, per-class latencies, bandwidth
// limits, the comparator-array header ordering and the end-of-cycle flush.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "mem/memory_system.hpp"

namespace hwgc {
namespace {

MemoryConfig fast(Cycle body = 4, Cycle header = 10, std::uint32_t bw = 4) {
  MemoryConfig cfg;
  cfg.latency = body;
  cfg.header_latency = header;
  cfg.bandwidth_per_cycle = bw;
  return cfg;
}

/// Ticks until the load completes; returns the number of cycles waited.
Cycle wait_load(MemorySystem& mem, CoreId core, Port port, Cycle& now,
                Cycle limit = 1000) {
  const Cycle start = now;
  while (mem.load_pending(core, port)) {
    ++now;
    mem.tick(now);
    if (now - start > limit) ADD_FAILURE() << "load never completed";
  }
  return now - start;
}

TEST(MemorySystem, BodyLoadObservesBodyLatency) {
  MemorySystem mem(fast(), 1);
  Cycle now = 0;
  mem.issue_load(0, Port::kBody, 100);
  EXPECT_TRUE(mem.load_pending(0, Port::kBody));
  const Cycle waited = wait_load(mem, 0, Port::kBody, now);
  // Accept at tick(now+1), complete latency cycles later.
  EXPECT_EQ(waited, fast().latency + 1);
}

TEST(MemorySystem, HeaderLoadObservesHeaderLatency) {
  MemorySystem mem(fast(), 1);
  Cycle now = 0;
  mem.issue_load(0, Port::kHeader, 100);
  const Cycle waited = wait_load(mem, 0, Port::kHeader, now);
  EXPECT_EQ(waited, fast().header_latency + 1);
}

TEST(MemorySystem, StoreBufferDepthTwo) {
  MemorySystem mem(fast(), 1);
  EXPECT_EQ(mem.store_slots_free(0, Port::kHeader), MemorySystem::kStoreDepth);
  mem.issue_store(0, Port::kHeader, 10);
  mem.issue_store(0, Port::kHeader, 12);
  EXPECT_TRUE(mem.store_busy(0, Port::kHeader));
  EXPECT_EQ(mem.store_slots_free(0, Port::kHeader), 0u);
  // One tick accepts both (bandwidth 4): slots free again.
  mem.tick(1);
  EXPECT_FALSE(mem.store_busy(0, Port::kHeader));
  EXPECT_EQ(mem.store_slots_free(0, Port::kHeader), 2u);
  // But the stores are still uncommitted until the latency elapses.
  EXPECT_FALSE(mem.stores_drained());
  for (Cycle t = 2; t <= 2 + fast().header_latency; ++t) mem.tick(t);
  EXPECT_TRUE(mem.stores_drained());
}

TEST(MemorySystem, BandwidthLimitsAcceptancePerCycle) {
  MemoryConfig cfg = fast(4, 4, /*bw=*/2);
  MemorySystem mem(cfg, 4);
  // Four cores each issue one body store in the same cycle.
  for (CoreId c = 0; c < 4; ++c) mem.issue_store(c, Port::kBody, 100 + c);
  mem.tick(1);  // accepts 2 of 4
  std::uint32_t still_waiting = 0;
  for (CoreId c = 0; c < 4; ++c) {
    if (mem.store_slots_free(c, Port::kBody) != MemorySystem::kStoreDepth) {
      ++still_waiting;
    }
  }
  EXPECT_EQ(still_waiting, 2u);
  mem.tick(2);  // accepts the rest
  for (CoreId c = 0; c < 4; ++c) {
    EXPECT_EQ(mem.store_slots_free(c, Port::kBody), MemorySystem::kStoreDepth);
  }
}

TEST(MemorySystem, ComparatorArrayDelaysHeaderLoadBehindSameAddressStore) {
  MemorySystem mem(fast(4, 6), 2);
  Cycle now = 0;
  mem.issue_store(0, Port::kHeader, 500);
  mem.issue_load(1, Port::kHeader, 500);  // same header address
  const Cycle waited = wait_load(mem, 1, Port::kHeader, now);
  // The load may only be accepted after the store commits (header_latency
  // after its acceptance), then takes header_latency itself.
  EXPECT_GE(waited, 2 * fast(4, 6).header_latency);
}

TEST(MemorySystem, IndependentHeaderLoadPassesBlockedOne) {
  MemorySystem mem(fast(4, 6, /*bw=*/1), 3);
  Cycle now = 0;
  mem.issue_store(0, Port::kHeader, 500);
  mem.tick(++now);  // store accepted, committing until now+6
  mem.issue_load(1, Port::kHeader, 500);  // blocked by comparator array
  mem.issue_load(2, Port::kHeader, 777);  // independent: may pass
  Cycle now2 = now;
  MemorySystem* m = &mem;
  // The independent load completes first despite being issued later.
  while (m->load_pending(2, Port::kHeader)) {
    ++now2;
    m->tick(now2);
    ASSERT_LT(now2, 100u);
  }
  EXPECT_TRUE(m->load_pending(1, Port::kHeader))
      << "blocked load must still be waiting when the independent one is done";
  while (m->load_pending(1, Port::kHeader)) {
    ++now2;
    m->tick(now2);
    ASSERT_LT(now2, 100u);
  }
}

TEST(MemorySystem, BodyAccessesAreNeverOrdered) {
  MemorySystem mem(fast(6, 6, /*bw=*/4), 2);
  Cycle now = 0;
  mem.issue_store(0, Port::kBody, 500);
  mem.issue_load(1, Port::kBody, 500);  // same address, body port
  const Cycle waited = wait_load(mem, 1, Port::kBody, now);
  EXPECT_EQ(waited, 6u + 1) << "body loads must not wait for body stores";
}

TEST(MemorySystem, HeaderCacheHitCompletesFast) {
  MemoryConfig cfg = fast(4, 10);
  cfg.header_cache_entries = 64;
  cfg.header_cache_hit_latency = 2;
  MemorySystem mem(cfg, 1);
  Cycle now = 0;
  // First access misses and fills the tag.
  mem.issue_load(0, Port::kHeader, 500);
  const Cycle miss = wait_load(mem, 0, Port::kHeader, now);
  EXPECT_EQ(miss, cfg.header_latency + 1);
  // Second access to the same header hits.
  mem.issue_load(0, Port::kHeader, 500);
  const Cycle hit = wait_load(mem, 0, Port::kHeader, now);
  EXPECT_EQ(hit, cfg.header_cache_hit_latency + 1);
  EXPECT_EQ(mem.header_cache_hits(), 1u);
  EXPECT_EQ(mem.header_cache_misses(), 1u);
}

TEST(MemorySystem, HeaderCacheConflictEvicts) {
  MemoryConfig cfg = fast(4, 10);
  cfg.header_cache_entries = 64;
  MemorySystem mem(cfg, 1);
  Cycle now = 0;
  mem.issue_load(0, Port::kHeader, 500);
  wait_load(mem, 0, Port::kHeader, now);
  // 564 maps to the same direct-mapped slot (500 % 64 == 564 % 64).
  mem.issue_load(0, Port::kHeader, 564);
  wait_load(mem, 0, Port::kHeader, now);
  mem.issue_load(0, Port::kHeader, 500);  // evicted: miss again
  const Cycle again = wait_load(mem, 0, Port::kHeader, now);
  EXPECT_EQ(again, cfg.header_latency + 1);
  EXPECT_EQ(mem.header_cache_hits(), 0u);
}

TEST(MemorySystem, HeaderStoreFillsCacheForLaterLoad) {
  MemoryConfig cfg = fast(4, 10);
  cfg.header_cache_entries = 64;
  cfg.header_cache_hit_latency = 2;
  MemorySystem mem(cfg, 2);
  Cycle now = 0;
  mem.issue_store(0, Port::kHeader, 500);
  // Drain the store fully so the comparator array does not also delay the
  // load (that ordering is tested separately).
  for (Cycle t = 0; t < 20; ++t) mem.tick(++now);
  ASSERT_TRUE(mem.stores_drained());
  mem.issue_load(1, Port::kHeader, 500);
  const Cycle hit = wait_load(mem, 1, Port::kHeader, now);
  EXPECT_EQ(hit, cfg.header_cache_hit_latency + 1)
      << "write-allocate: the store must have installed the tag";
}

TEST(MemorySystem, JitterIsDeterministicAcrossFreshInstances) {
  // Two fresh instances with the same jitter seed must complete identical
  // request streams at identical cycles — the jitter is part of the
  // deterministic replay, not an uncontrolled source of randomness.
  MemoryConfig cfg = fast();
  cfg.latency_jitter = 7;
  cfg.jitter_seed = 123;
  MemorySystem m1(cfg, 2);
  MemorySystem m2(cfg, 2);
  for (int round = 0; round < 20; ++round) {
    Cycle n1 = 0, n2 = 0;
    m1.issue_load(0, Port::kBody, 100 + round);
    m2.issue_load(0, Port::kBody, 100 + round);
    m1.issue_load(1, Port::kHeader, 500 + round);
    m2.issue_load(1, Port::kHeader, 500 + round);
    const Cycle a0 = wait_load(m1, 0, Port::kBody, n1);
    const Cycle b0 = wait_load(m2, 0, Port::kBody, n2);
    EXPECT_EQ(a0, b0) << "round " << round;
    n1 = 0;
    n2 = 0;
    const Cycle a1 = wait_load(m1, 1, Port::kHeader, n1);
    const Cycle b1 = wait_load(m2, 1, Port::kHeader, n2);
    EXPECT_EQ(a1, b1) << "round " << round;
  }
}

TEST(MemorySystem, JitterSeedChangesCompletionTiming) {
  MemoryConfig cfg = fast();
  cfg.latency_jitter = 7;
  cfg.jitter_seed = 1;
  MemoryConfig other = cfg;
  other.jitter_seed = 2;
  MemorySystem m1(cfg, 1);
  MemorySystem m2(other, 1);
  bool diverged = false;
  for (int round = 0; round < 50 && !diverged; ++round) {
    Cycle n1 = 0, n2 = 0;
    m1.issue_load(0, Port::kBody, 100 + round);
    m2.issue_load(0, Port::kBody, 100 + round);
    diverged = wait_load(m1, 0, Port::kBody, n1) !=
               wait_load(m2, 0, Port::kBody, n2);
  }
  EXPECT_TRUE(diverged);
}

TEST(MemorySystem, DrainAndIdle) {
  MemorySystem mem(fast(), 2);
  EXPECT_TRUE(mem.stores_drained());
  EXPECT_TRUE(mem.idle());
  mem.issue_store(1, Port::kBody, 42);
  mem.issue_load(0, Port::kHeader, 43);
  EXPECT_FALSE(mem.stores_drained());
  EXPECT_FALSE(mem.idle());
  for (Cycle t = 1; t < 40; ++t) mem.tick(t);
  EXPECT_TRUE(mem.stores_drained());
  EXPECT_TRUE(mem.idle());
  EXPECT_EQ(mem.requests_issued(), 2u);
}

/// Ticks cycles first..last and records the cycle in which each listed
/// (core, port) load's data arrived; 0 when it never did.
std::vector<Cycle> completion_cycles(
    MemorySystem& mem, const std::vector<std::pair<CoreId, Port>>& loads,
    Cycle first, Cycle last) {
  std::vector<Cycle> done(loads.size(), 0);
  for (Cycle t = first; t <= last; ++t) {
    mem.tick(t);
    for (std::size_t i = 0; i < loads.size(); ++i) {
      if (done[i] == 0 && !mem.load_pending(loads[i].first, loads[i].second)) {
        done[i] = t;
      }
    }
  }
  return done;
}

TEST(MemorySystem, BlockedHeaderLoadsAreAcceptedOldestFirst) {
  // Bandwidth 1 makes the acceptance order visible in completion cycles.
  const MemoryConfig cfg = fast(4, 10, /*bw=*/1);
  MemorySystem mem(cfg, 6);
  mem.issue_store(0, Port::kHeader, 100);
  mem.tick(1);  // store accepted; commits at 11
  // Two header loads held back by the comparator array, interleaved with
  // younger independent requests that pass them.
  mem.issue_load(2, Port::kHeader, 100);
  mem.issue_load(4, Port::kBody, 300);
  mem.issue_load(3, Port::kHeader, 100);
  mem.issue_load(5, Port::kBody, 400);
  const auto done = completion_cycles(
      mem,
      {{2, Port::kHeader}, {3, Port::kHeader}, {4, Port::kBody},
       {5, Port::kBody}},
      2, 40);
  EXPECT_EQ(done[2], 2 + cfg.latency) << "younger body load accepted at 2";
  EXPECT_EQ(done[3], 3 + cfg.latency) << "next younger one at 3";
  // The store retires at 11; the blocked loads then go oldest first, one
  // per cycle.
  EXPECT_EQ(done[0], 11 + cfg.header_latency);
  EXPECT_EQ(done[1], 12 + cfg.header_latency);
  EXPECT_TRUE(mem.idle());
}

TEST(MemorySystem, TwoHeaderStoresToOneAddressHoldALoadUntilBothCommit) {
  const MemoryConfig cfg = fast(4, 10, /*bw=*/1);
  MemorySystem mem(cfg, 3);
  mem.issue_store(0, Port::kHeader, 100);
  mem.issue_store(1, Port::kHeader, 100);
  mem.tick(1);  // first store accepted; commits at 11
  mem.tick(2);  // second store accepted; commits at 12
  mem.issue_load(2, Port::kHeader, 100);
  const auto done = completion_cycles(mem, {{2, Port::kHeader}}, 3, 40);
  // Still blocked after the first commit: accepted at 12, not 11.
  EXPECT_EQ(done[0], 12 + cfg.header_latency);
  EXPECT_TRUE(mem.stores_drained());
}

TEST(MemorySystem, SteadyStreamFromSixteenCoresRetiresExactlyOnTime) {
  // Every core keeps a body and a header load in flight, reissuing a
  // core-dependent delay after each completion. Cores join one by one, so
  // the latency-class rings have wrapped many times before the growing
  // occupancy forces them to grow. Bandwidth covers every request, so each
  // is accepted on the tick after its issue and must retire exactly
  // `latency` cycles later.
  constexpr std::uint32_t kCores = 16;
  const MemoryConfig cfg = fast(4, 10, /*bw=*/2 * kCores);
  MemorySystem mem(cfg, kCores);
  struct Stream {
    CoreId core;
    Port port;
    Cycle latency;
    bool active = false;
    Cycle due = 0;
    Cycle next_issue = 0;
  };
  std::vector<Stream> streams;
  for (CoreId c = 0; c < kCores; ++c) {
    streams.push_back(Stream{c, Port::kBody, cfg.latency, false, 0, 50 * c});
    streams.push_back(
        Stream{c, Port::kHeader, cfg.header_latency, false, 0, 50 * c});
  }
  Addr next_addr = 1000;
  std::uint64_t retired = 0;
  for (Cycle now = 1; now <= 1200; ++now) {
    mem.tick(now);
    Cycle earliest = MemorySystem::kNever;
    for (Stream& s : streams) {
      if (s.active) {
        ASSERT_EQ(mem.load_pending(s.core, s.port), s.due != now)
            << "core " << s.core << " cycle " << now;
        if (s.due == now) {
          s.active = false;
          s.next_issue = now + s.core % 5;
          ++retired;
        }
      }
      if (!s.active && now >= s.next_issue && now < 1150) {
        mem.issue_load(s.core, s.port, next_addr);
        next_addr += 2;
        s.active = true;
        s.due = now + 1 + s.latency;
      }
      if (s.active) earliest = std::min(earliest, s.due);
    }
    // Requests issued this cycle are still queued, so the in-flight
    // minimum can only be checked on a cycle that issued nothing.
    if (mem.ff_quiescent() && earliest != MemorySystem::kNever) {
      EXPECT_EQ(mem.next_completion(), earliest) << "cycle " << now;
    }
  }
  EXPECT_GT(retired, 1500u);
  EXPECT_TRUE(mem.idle());
  EXPECT_EQ(mem.next_completion(), MemorySystem::kNever);
}

TEST(MemorySystem, NextCompletionReadsTheFrontsWhenRetireIsInOrder) {
  const MemoryConfig cfg = fast(4, 10);
  MemorySystem mem(cfg, 2);
  EXPECT_TRUE(mem.ff_quiescent()) << "empty queue accepts nothing";
  EXPECT_EQ(mem.next_completion(), MemorySystem::kNever);
  mem.issue_load(0, Port::kHeader, 100);
  mem.issue_load(1, Port::kBody, 200);
  EXPECT_FALSE(mem.ff_quiescent()) << "acceptable requests are queued";
  mem.tick(1);
  EXPECT_TRUE(mem.ff_quiescent());
  EXPECT_EQ(mem.next_completion(), 1 + cfg.latency);  // the body front
  for (Cycle t = 2; t <= 1 + cfg.latency; ++t) mem.tick(t);
  EXPECT_EQ(mem.next_completion(), 1 + cfg.header_latency);
  // A header store then a same-address header load: the queued load is
  // held back by the comparator array, so the queue stays quiescent.
  mem.issue_store(1, Port::kHeader, 300);
  mem.tick(6);
  mem.issue_load(1, Port::kHeader, 300);
  EXPECT_TRUE(mem.ff_quiescent());
  EXPECT_EQ(mem.next_completion(), 1 + cfg.header_latency);
}

TEST(MemorySystem, NextCompletionIsTheTrueMinimumUnderJitter) {
  // With jitter the front of a class need not retire first, so
  // next_completion() must scan: it has to name exactly the cycle of the
  // next observed completion, every time.
  constexpr std::uint32_t kCores = 8;
  MemoryConfig cfg = fast(4, 10, /*bw=*/kCores);
  cfg.latency_jitter = 20;
  cfg.jitter_seed = 5;
  MemorySystem mem(cfg, kCores);
  for (CoreId c = 0; c < kCores; ++c) mem.issue_load(c, Port::kBody, 100 + c);
  mem.tick(1);
  ASSERT_TRUE(mem.ff_quiescent());
  std::vector<CoreId> retire_order;
  std::vector<bool> seen(kCores, false);
  for (Cycle t = 2; !mem.idle(); ++t) {
    const Cycle predicted = mem.next_completion();
    ASSERT_GE(predicted, t);
    for (; t < predicted; ++t) {
      mem.tick(t);
      for (CoreId c = 0; c < kCores; ++c) {
        ASSERT_EQ(mem.load_pending(c, Port::kBody), !seen[c])
            << "completion before the predicted cycle " << predicted;
      }
    }
    mem.tick(t);
    bool any = false;
    for (CoreId c = 0; c < kCores; ++c) {
      if (!seen[c] && !mem.load_pending(c, Port::kBody)) {
        seen[c] = true;
        retire_order.push_back(c);
        any = true;
      }
    }
    ASSERT_TRUE(any) << "nothing completed at predicted cycle " << t;
  }
  ASSERT_EQ(retire_order.size(), kCores);
  // The seed scrambles the acceptance order, so the front of the ring was
  // not always the minimum: the scan path was really exercised.
  EXPECT_FALSE(std::is_sorted(retire_order.begin(), retire_order.end()));
}

}  // namespace
}  // namespace hwgc
