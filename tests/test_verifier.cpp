// The verifier itself must be trustworthy: these tests corrupt a correctly
// collected heap in every way the verifier claims to detect and assert
// that it actually fails (a verifier that always says OK proves nothing).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/sequential_cheney.hpp"
#include "heap/object_model.hpp"
#include "heap/verifier.hpp"
#include "workloads/benchmarks.hpp"

namespace hwgc {
namespace {

struct Collected {
  Workload w;
  HeapSnapshot pre;
};

bool has_error(const VerifyResult& res, const std::string& needle) {
  for (const auto& e : res.errors) {
    if (e.find(needle) != std::string::npos) return true;
  }
  return false;
}

Collected collect_jlisp() {
  Collected c{make_benchmark(BenchmarkId::kJlisp, 0.05), {}};
  c.pre = HeapSnapshot::capture(*c.w.heap);
  SequentialCheney::collect(*c.w.heap);
  return c;
}

TEST(Verifier, AcceptsCorrectCollection) {
  Collected c = collect_jlisp();
  EXPECT_TRUE(verify_collection(c.pre, *c.w.heap).ok);
}

TEST(Verifier, SnapshotCoversExactlyTheReachableSet) {
  GraphPlan p;
  const auto a = p.add(2, 1);
  const auto b = p.add(1, 0);
  const auto dead = p.add(0, 3, /*garbage=*/true);
  (void)dead;
  p.link(a, 0, b);
  p.link(b, 0, a);  // cycle
  p.add_root(a);
  p.add_root(a);  // duplicate root
  Workload w = materialize(p);
  const HeapSnapshot snap = HeapSnapshot::capture(*w.heap);
  EXPECT_EQ(snap.objects.size(), 2u) << "garbage must not be snapshotted";
  EXPECT_EQ(snap.live_words, object_words(2, 1) + object_words(1, 0));
}

TEST(Verifier, SnapshotMatchesAHandWrittenBfs) {
  // Two roots share a child, a cycle runs back to the first root, and the
  // first root is registered twice.
  GraphPlan p;
  const auto r1 = p.add(2, 1);
  const auto r2 = p.add(1, 0);
  const auto shared = p.add(1, 2);
  const auto back = p.add(1, 1);
  const auto leaf = p.add(0, 3);
  const auto dead = p.add(1, 1, /*garbage=*/true);
  p.link(r1, 0, shared);
  p.link(r1, 1, back);
  p.link(r2, 0, shared);
  p.link(shared, 0, leaf);
  p.link(back, 0, r1);  // cycle
  p.link(dead, 0, leaf);
  p.add_root(r1);
  p.add_root(r2);
  p.add_root(r1);
  Workload w = materialize(p);
  const Heap& heap = *w.heap;
  const HeapSnapshot snap = HeapSnapshot::capture(heap);

  // Roots first, then children in field order, each object once.
  const std::vector<std::uint32_t> bfs = {r1, r2, shared, back, leaf};
  ASSERT_EQ(snap.objects.size(), bfs.size());
  EXPECT_EQ(snap.live_words, object_words(2, 1) + object_words(1, 0) +
                                 object_words(1, 2) + object_words(1, 1) +
                                 object_words(0, 3));
  Word words = 0;
  for (std::size_t s = 0; s < bfs.size(); ++s) {
    const Addr a = w.node_addrs[bfs[s]];
    const HeapSnapshot::ObjectRecord& rec = snap.objects[s];
    EXPECT_EQ(rec.addr, a) << "slot " << s;
    EXPECT_EQ(snap.slot_of(a), s);
    EXPECT_EQ(rec.pi, heap.pi(a));
    EXPECT_EQ(rec.delta, heap.delta(a));
    EXPECT_EQ(rec.first, words) << "words are packed in BFS order";
    words += rec.pi + rec.delta;
    for (Word i = 0; i < rec.pi; ++i) {
      EXPECT_EQ(snap.pointers(rec)[i], heap.pointer(a, i));
    }
    for (Word j = 0; j < rec.delta; ++j) {
      EXPECT_EQ(snap.data(rec)[j], heap.data(a, j));
    }
  }
  EXPECT_EQ(snap.words.size(), words);
  EXPECT_EQ(snap.pointers(snap.objects[3])[0], w.node_addrs[r1]);
  EXPECT_EQ(snap.slot_of(w.node_addrs[dead]), HeapSnapshot::kNoSlot);
}

std::string hex_addr(Addr a) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%x", a);
  return buf;
}

TEST(Verifier, OutsideSpacePointersTakeTheFallbackAndAreNamed) {
  // A corrupt heap: a root and a field point into the other semispace,
  // outside the snapshot's dense slot table.
  GraphPlan p;
  const auto a = p.add(2, 0);
  const auto b = p.add(0, 1);
  p.link(a, 0, b);
  p.add_root(a);
  Workload w = materialize(p);
  Heap& heap = *w.heap;
  WordMemory& mem = heap.memory();
  const Addr other = heap.layout().tospace_base();
  const Addr by_root = other;      // pi 0, delta 1
  const Addr by_field = other + 4;  // pi 1 (-> b), delta 1
  mem.store(attributes_addr(by_root), make_attributes(0, 1));
  mem.store(data_field_addr(by_root, 0, 0), 0xfeed);
  mem.store(attributes_addr(by_field), make_attributes(1, 1));
  mem.store(pointer_field_addr(by_field, 0), w.node_addrs[b]);
  mem.store(data_field_addr(by_field, 1, 0), 0xbeef);
  heap.roots().push_back(by_root);
  heap.set_pointer(w.node_addrs[a], 1, by_field);

  const HeapSnapshot pre = HeapSnapshot::capture(heap);
  ASSERT_EQ(pre.objects.size(), 4u);
  EXPECT_EQ(pre.slot_of(by_root), 1u);
  EXPECT_EQ(pre.slot_of(by_field), 3u);
  const HeapSnapshot::ObjectRecord& rec = pre.objects[3];
  EXPECT_EQ(rec.addr, by_field);
  ASSERT_EQ(rec.pi, 1u);
  EXPECT_EQ(pre.pointers(rec)[0], w.node_addrs[b]);
  EXPECT_EQ(pre.data(rec)[0], 0xbeefu);
  EXPECT_EQ(pre.data(pre.objects[1])[0], 0xfeedu);
  EXPECT_EQ(pre.live_words, object_words(2, 0) + object_words(0, 1) +
                                object_words(0, 1) + object_words(1, 1));

  // A "collection" that flipped and forwarded nothing: every snapshotted
  // object is named, the two outside ones included.
  heap.flip();
  const VerifyResult res = verify_collection(pre, heap);
  ASSERT_FALSE(res.ok);
  for (Addr obj : {by_root, by_field}) {
    EXPECT_TRUE(has_error(res, "live object " + hex_addr(obj) +
                                   " was not evacuated"))
        << res.summary();
  }
}

TEST(Verifier, DetectsCorruptedDataWord) {
  Collected c = collect_jlisp();
  // Corrupt one data word of the first copy that has one.
  Heap& heap = *c.w.heap;
  Addr cur = heap.layout().current_base();
  while (cur < heap.alloc_ptr()) {
    const Word attrs = heap.memory().load(attributes_addr(cur));
    if (delta_of(attrs) > 0) {
      const Addr victim = data_field_addr(cur, pi_of(attrs), 0);
      heap.memory().store(victim, heap.memory().load(victim) ^ 1);
      break;
    }
    cur += object_words(attrs);
  }
  EXPECT_FALSE(verify_collection(c.pre, heap).ok);
}

TEST(Verifier, DetectsUnforwardedLiveObject) {
  Collected c = collect_jlisp();
  // Clear the forwarded bit of one fromspace original.
  const Addr victim = c.pre.objects.front().addr;
  Heap& heap = *c.w.heap;
  const Word attrs = heap.memory().load(attributes_addr(victim));
  heap.memory().store(attributes_addr(victim), attrs & ~kForwardedBit);
  EXPECT_FALSE(verify_collection(c.pre, heap).ok);
}

TEST(Verifier, DetectsStaleOrWrongPointer) {
  Collected c = collect_jlisp();
  Heap& heap = *c.w.heap;
  // Find a copy with a non-null pointer field and misdirect it.
  Addr cur = heap.layout().current_base();
  while (cur < heap.alloc_ptr()) {
    const Word attrs = heap.memory().load(attributes_addr(cur));
    for (Word i = 0; i < pi_of(attrs); ++i) {
      if (heap.memory().load(pointer_field_addr(cur, i)) != kNullPtr) {
        heap.memory().store(pointer_field_addr(cur, i),
                            c.pre.objects.front().addr);  // fromspace!
        EXPECT_FALSE(verify_collection(c.pre, heap).ok);
        return;
      }
    }
    cur += object_words(attrs);
  }
  FAIL() << "workload should contain at least one pointer";
}

TEST(Verifier, DetectsNonBlackCopy) {
  Collected c = collect_jlisp();
  Heap& heap = *c.w.heap;
  const Addr first = heap.layout().current_base();
  const Word attrs = heap.memory().load(attributes_addr(first));
  heap.memory().store(attributes_addr(first), attrs & ~kBlackBit);
  EXPECT_FALSE(verify_collection(c.pre, heap).ok);
}

TEST(Verifier, DetectsWrongAllocPtr) {
  Collected c = collect_jlisp();
  c.w.heap->set_alloc_ptr(c.w.heap->alloc_ptr() + 4);
  EXPECT_FALSE(verify_collection(c.pre, *c.w.heap).ok);
}

TEST(Verifier, DetectsUnforwardedRoot) {
  Collected c = collect_jlisp();
  c.w.heap->roots()[0] = c.pre.roots[0];  // point back into fromspace
  EXPECT_FALSE(verify_collection(c.pre, *c.w.heap).ok);
}

TEST(Verifier, DetectsMissedFlip) {
  Collected c = collect_jlisp();
  c.w.heap->flip();  // undo the collector's flip
  EXPECT_FALSE(verify_collection(c.pre, *c.w.heap).ok);
}

// ---------------------------------------------------------------------------
// Four targeted corruptions, each asserting the SPECIFIC check fires (the
// coarse !ok tests above can pass for the wrong reason).
// ---------------------------------------------------------------------------

TEST(Verifier, DroppedObjectNamesTheEvacuationCheck) {
  Collected c = collect_jlisp();
  Heap& heap = *c.w.heap;
  const Addr victim = c.pre.objects.front().addr;
  const Word attrs = heap.memory().load(attributes_addr(victim));
  heap.memory().store(attributes_addr(victim), attrs & ~kForwardedBit);
  const VerifyResult res = verify_collection(c.pre, heap);
  ASSERT_FALSE(res.ok);
  EXPECT_TRUE(has_error(res, "was not evacuated")) << res.summary();
}

TEST(Verifier, SwappedPointerFieldsNameThePointerCheck) {
  // R has two pointer fields referring to two DIFFERENT children; swapping
  // them in the copy keeps every pointer valid-looking but misdirected.
  GraphPlan p;
  const auto r = p.add(2, 1);
  const auto x = p.add(0, 2);
  const auto y = p.add(0, 3);
  p.link(r, 0, x);
  p.link(r, 1, y);
  p.add_root(r);
  Workload w = materialize(p);
  Heap& heap = *w.heap;
  const HeapSnapshot pre = HeapSnapshot::capture(heap);
  SequentialCheney::collect(heap);

  const Addr r_copy = heap.memory().load(link_addr(pre.objects.front().addr));
  const Addr f0 = heap.memory().load(pointer_field_addr(r_copy, 0));
  const Addr f1 = heap.memory().load(pointer_field_addr(r_copy, 1));
  ASSERT_NE(f0, f1);
  heap.memory().store(pointer_field_addr(r_copy, 0), f1);
  heap.memory().store(pointer_field_addr(r_copy, 1), f0);
  const VerifyResult res = verify_collection(pre, heap);
  ASSERT_FALSE(res.ok);
  EXPECT_TRUE(has_error(res, "pointer field")) << res.summary();
  EXPECT_FALSE(has_error(res, "stale fromspace"))
      << "both targets are tospace copies";
}

TEST(Verifier, StaleFromspacePointerNamesTheStaleCheck) {
  Collected c = collect_jlisp();
  Heap& heap = *c.w.heap;
  // Redirect some copy's pointer field back into the evacuated space.
  Addr cur = heap.layout().current_base();
  while (cur < heap.alloc_ptr()) {
    const Word attrs = heap.memory().load(attributes_addr(cur));
    if (pi_of(attrs) > 0) {
      heap.memory().store(pointer_field_addr(cur, 0),
                          c.pre.objects.front().addr);
      const VerifyResult res = verify_collection(c.pre, heap);
      ASSERT_FALSE(res.ok);
      EXPECT_TRUE(has_error(res, "stale fromspace pointer")) << res.summary();
      return;
    }
    cur += object_words(attrs);
  }
  FAIL() << "workload should contain at least one pointer field";
}

TEST(Verifier, CompactionHoleNamesTheDenseCheck) {
  // a -> b, collected correctly, then b's copy is slid 2 words up with all
  // metadata (forwarding link, a's pointer field, alloc_ptr) adjusted, so
  // the ONLY remaining defect is the hole in the dense packing.
  GraphPlan p;
  const auto a = p.add(1, 1);
  const auto b = p.add(0, 2);
  p.link(a, 0, b);
  p.add_root(a);
  Workload w = materialize(p);
  Heap& heap = *w.heap;
  const HeapSnapshot pre = HeapSnapshot::capture(heap);
  SequentialCheney::collect(heap);
  ASSERT_TRUE(verify_collection(pre, heap).ok);

  const Addr old_b = pre.objects.back().addr;
  ASSERT_EQ(pre.objects.back().pi, 0u);
  const Addr b_copy = heap.memory().load(link_addr(old_b));
  const Word b_words = object_words(heap.memory().load(attributes_addr(b_copy)));
  // Slide the copy up by 2 words (highest word first: ranges overlap).
  for (Word i = b_words; i-- > 0;) {
    heap.memory().store(b_copy + 2 + i, heap.memory().load(b_copy + i));
  }
  heap.memory().store(link_addr(old_b), b_copy + 2);
  const Addr a_copy = heap.memory().load(link_addr(pre.objects.front().addr));
  ASSERT_EQ(heap.memory().load(pointer_field_addr(a_copy, 0)), b_copy);
  heap.memory().store(pointer_field_addr(a_copy, 0), b_copy + 2);
  heap.set_alloc_ptr(heap.alloc_ptr() + 2);

  const VerifyResult res = verify_collection(pre, heap);
  ASSERT_FALSE(res.ok);
  EXPECT_TRUE(has_error(res, "compaction hole")) << res.summary();
  EXPECT_FALSE(has_error(res, "pointer field"))
      << "pointers were consistently adjusted; only the hole may fire";
  // The loose mode tolerates exactly this kind of fragmentation.
  EXPECT_TRUE(verify_collection(pre, heap, {.require_dense = false}).ok);
}

TEST(Verifier, DenseModeRejectsHolesButLooseModeAccepts) {
  // Build a fake "collection with a hole": collect, then move the alloc
  // pointer past a gap and append a dummy copy... simpler: verify a
  // correct dense collection under both modes.
  Collected c = collect_jlisp();
  EXPECT_TRUE(verify_collection(c.pre, *c.w.heap, {.require_dense = true}).ok);
  EXPECT_TRUE(
      verify_collection(c.pre, *c.w.heap, {.require_dense = false}).ok);
}

}  // namespace
}  // namespace hwgc
