#include "baselines/chunked_copying.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "baselines/termination.hpp"

namespace hwgc {

namespace {

struct ChunkRange {
  Addr begin = kNullPtr;
  Addr end = kNullPtr;  // one past the last allocated word
};

struct SharedState {
  std::atomic<Addr> region_free{0};  // next unclaimed tospace word
  Addr region_end = 0;
  std::mutex stack_mutex;
  std::vector<ChunkRange> sealed;  // unscanned chunks
};

struct ThreadState {
  // Private allocation chunk.
  Addr chunk_base = kNullPtr;
  Addr chunk_cur = kNullPtr;
  Addr chunk_end = kNullPtr;
  // Prefix of the private chunk that has already been self-scanned.
  Addr self_scanned = kNullPtr;
  ThreadCounters tc;
};

}  // namespace

ParallelGcStats ChunkedCopyingCollector::collect(Heap& heap) {
  require_threads(cfg_.threads, "chunked-copying collector");
  const auto t0 = std::chrono::steady_clock::now();
  WordMemory& mem = heap.memory();
  SharedState st;
  st.region_free.store(heap.layout().tospace_base(),
                       std::memory_order_relaxed);
  st.region_end = heap.layout().tospace_end();

  TerminationDetector term(cfg_.threads);
  std::vector<ThreadState> states(cfg_.threads);

  // Small heaps cannot afford a full-size chunk per thread: clamp so that
  // total chunk slack stays well below the semispace headroom.
  const Word chunk_words = std::max<Word>(
      16, std::min<Word>(cfg_.chunk_words,
                         heap.layout().semispace_words() /
                             (4 * cfg_.threads)));

  auto grab_region = [&](Word words) -> Addr {
    const Addr a = st.region_free.fetch_add(words, std::memory_order_acq_rel);
    if (a + words > st.region_end) {
      throw std::runtime_error(
          "chunked collector: tospace exhausted (fragmentation exceeded "
          "heap headroom)");
    }
    return a;
  };

  auto seal_chunk = [&](ThreadState& ts) {
    // Publish the not-yet-self-scanned suffix of the private chunk.
    if (ts.self_scanned < ts.chunk_cur) {
      {
        std::lock_guard<std::mutex> g(st.stack_mutex);
        ++ts.tc.mutex_acquisitions;
        st.sealed.push_back(ChunkRange{ts.self_scanned, ts.chunk_cur});
      }
      term.published();
    }
    ts.tc.wasted_words += ts.chunk_end - ts.chunk_cur;
    ts.chunk_base = ts.chunk_cur = ts.chunk_end = ts.self_scanned = kNullPtr;
  };

  auto alloc = [&](ThreadState& ts, Word words) -> Addr {
    if (words > chunk_words) {
      // Jumbo object: dedicated region, published as its own chunk by the
      // caller once the copy is complete.
      return grab_region(words);
    }
    if (ts.chunk_cur + words > ts.chunk_end || ts.chunk_base == kNullPtr) {
      if (ts.chunk_base != kNullPtr) seal_chunk(ts);
      ts.chunk_base = grab_region(chunk_words);
      ts.chunk_cur = ts.self_scanned = ts.chunk_base;
      ts.chunk_end = ts.chunk_base + chunk_words;
    }
    const Addr a = ts.chunk_cur;
    ts.chunk_cur += words;
    return a;
  };

  // Eager evacuation with the sentinel-CAS protocol (parallel_common.hpp).
  auto evacuate = [&](ThreadState& ts, Addr obj) -> Addr {
    for (;;) {
      Addr link = mem.load_atomic(link_addr(obj));
      if (link == kBusyForwarding) continue;  // another thread is copying
      if (link != kNullPtr) return link;
      ++ts.tc.cas_ops;
      Addr expected = kNullPtr;
      if (!mem.cas(link_addr(obj), expected, kBusyForwarding)) {
        ++ts.tc.cas_failures;
        continue;
      }
      const Word attrs = mem.load_atomic(attributes_addr(obj));
      const Word size = object_words(attrs);
      const bool jumbo = size > chunk_words;
      const Addr copy = alloc(ts, size);
      detail::copy_object_body(mem, obj, copy, attrs);
      mem.store_atomic(attributes_addr(obj), attrs | kForwardedBit);
      mem.store_atomic(link_addr(obj), copy, std::memory_order_release);
      ++ts.tc.objects;
      if (jumbo) {
        {
          std::lock_guard<std::mutex> g(st.stack_mutex);
          ++ts.tc.mutex_acquisitions;
          st.sealed.push_back(ChunkRange{copy, copy + size});
        }
        term.published();
      }
      return copy;
    }
  };

  // Scans one copy: forwards its pointer fields and blackens it (the body
  // was copied eagerly at evacuation).
  auto scan_object = [&](ThreadState& ts, Addr copy) {
    const Word attrs = mem.load_atomic(attributes_addr(copy));
    const Word pi = pi_of(attrs);
    for (Word i = 0; i < pi; ++i) {
      const Addr child = mem.load_atomic(pointer_field_addr(copy, i),
                                         std::memory_order_relaxed);
      if (child != kNullPtr && heap.layout().in_fromspace(child)) {
        mem.store_atomic(pointer_field_addr(copy, i), evacuate(ts, child),
                         std::memory_order_relaxed);
      }
    }
    mem.store_atomic(attributes_addr(copy), attrs | kBlackBit);
  };

  auto scan_range = [&](ThreadState& ts, Addr begin, Addr end) {
    Addr cur = begin;
    while (cur < end) {
      const Word size = object_words(mem.load_atomic(attributes_addr(cur)));
      scan_object(ts, cur);
      cur += size;
    }
  };

  // Roots (Core 1's job), using thread state 0 before workers start.
  for (Addr& root : heap.roots()) {
    if (root != kNullPtr) root = evacuate(states[0], root);
  }

  TortureAgitator agitator(cfg_.torture, cfg_.threads);
  auto worker = [&](std::uint32_t tid) {
    ThreadState& ts = states[tid];
    agitator.worker_start(tid);
    for (;;) {
      agitator.chaos(tid);
      // 1. Prefer a sealed chunk from the shared stack.
      ChunkRange range{};
      {
        std::lock_guard<std::mutex> g(st.stack_mutex);
        ++ts.tc.mutex_acquisitions;
        if (!st.sealed.empty()) {
          range = st.sealed.back();
          st.sealed.pop_back();
        }
      }
      if (range.begin != kNullPtr) {
        term.claimed();
        scan_range(ts, range.begin, range.end);
        continue;
      }
      // 2. Otherwise self-scan the private chunk (it feeds itself: scanning
      //    may evacuate into the same chunk). self_scanned is advanced
      //    *before* scanning each object: if scanning fills the chunk and
      //    alloc() seals it, the sealed range must exclude the object in
      //    flight — after the seal, the chunk fields describe a fresh chunk
      //    and the loop carries on there.
      if (ts.chunk_base != kNullPtr && ts.self_scanned < ts.chunk_cur) {
        while (ts.chunk_base != kNullPtr && ts.self_scanned < ts.chunk_cur) {
          const Addr obj = ts.self_scanned;
          ts.self_scanned +=
              object_words(mem.load_atomic(attributes_addr(obj)));
          scan_object(ts, obj);
        }
        continue;
      }
      // 3. Nothing visible: try to terminate.
      term.go_idle();
      for (;;) {
        if (term.finished()) return;
        if (term.outstanding() > 0) {
          term.go_busy();
          break;
        }
        std::this_thread::yield();
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(cfg_.threads);
  for (std::uint32_t t = 0; t < cfg_.threads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();

  // The final private chunk of each worker is never sealed; its tail is
  // fragmentation all the same. Without this, words_copied would overcount
  // by exactly these tails and the conformance oracle's accounting check
  // (words_copied == live words) would fail.
  for (auto& s : states) {
    if (s.chunk_base != kNullPtr) s.tc.wasted_words += s.chunk_end - s.chunk_cur;
  }

  ParallelGcStats stats;
  stats.threads = cfg_.threads;
  const Addr high_water = st.region_free.load(std::memory_order_acquire);
  heap.flip();
  heap.set_alloc_ptr(high_water);
  merge(stats, states.empty() ? std::vector<ThreadCounters>{}
                              : [&] {
                                  std::vector<ThreadCounters> v;
                                  v.reserve(states.size());
                                  for (auto& s : states) v.push_back(s.tc);
                                  return v;
                                }());
  stats.words_copied = (high_water - heap.layout().current_base()) -
                       stats.wasted_words;
  stats.elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
  return stats;
}

}  // namespace hwgc
