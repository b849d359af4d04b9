#include "baselines/work_stealing.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "baselines/termination.hpp"

namespace hwgc {

namespace {

/// A mutex-guarded work deque. The owner pushes/pops at the back; thieves
/// take from the front. (A lock per operation is deliberately crude — it
/// still beats the naive collector because queue operations are one per
/// *object*, not several per pointer field, and contention is owner-local.)
struct WorkDeque {
  std::mutex m;
  std::deque<Addr> dq;
};

struct SharedState {
  std::atomic<Addr> region_free{0};
  Addr region_end = 0;
};

struct ThreadState {
  Addr lab_cur = kNullPtr;
  Addr lab_end = kNullPtr;
  ThreadCounters tc;
};

}  // namespace

ParallelGcStats WorkStealingCollector::collect(Heap& heap) {
  require_threads(cfg_.threads, "work-stealing collector");
  const auto t0 = std::chrono::steady_clock::now();
  WordMemory& mem = heap.memory();
  SharedState st;
  st.region_free.store(heap.layout().tospace_base(),
                       std::memory_order_relaxed);
  st.region_end = heap.layout().tospace_end();

  TerminationDetector term(cfg_.threads);
  std::vector<ThreadState> states(cfg_.threads);
  std::vector<WorkDeque> deques(cfg_.threads);

  // Small heaps cannot afford a full-size LAB per thread: clamp so that
  // total LAB slack stays well below the semispace headroom.
  const Word lab_words = std::max<Word>(
      16, std::min<Word>(cfg_.lab_words,
                         heap.layout().semispace_words() /
                             (4 * cfg_.threads)));

  auto grab_region = [&](Word words) -> Addr {
    const Addr a = st.region_free.fetch_add(words, std::memory_order_acq_rel);
    if (a + words > st.region_end) {
      throw std::runtime_error(
          "work-stealing collector: tospace exhausted (LAB fragmentation "
          "exceeded heap headroom)");
    }
    return a;
  };

  auto alloc = [&](ThreadState& ts, Word words) -> Addr {
    if (words > lab_words) return grab_region(words);  // jumbo
    if (ts.lab_cur + words > ts.lab_end || ts.lab_cur == kNullPtr) {
      if (ts.lab_cur != kNullPtr) ts.tc.wasted_words += ts.lab_end - ts.lab_cur;
      ts.lab_cur = grab_region(lab_words);
      ts.lab_end = ts.lab_cur + lab_words;
    }
    const Addr a = ts.lab_cur;
    ts.lab_cur += words;
    return a;
  };

  auto push_work = [&](std::uint32_t tid, Addr copy) {
    {
      std::lock_guard<std::mutex> g(deques[tid].m);
      ++states[tid].tc.mutex_acquisitions;
      deques[tid].dq.push_back(copy);
    }
    term.published();
  };

  auto evacuate = [&](std::uint32_t tid, Addr obj) -> Addr {
    ThreadState& ts = states[tid];
    for (;;) {
      Addr link = mem.load_atomic(link_addr(obj));
      if (link == kBusyForwarding) continue;
      if (link != kNullPtr) return link;
      ++ts.tc.cas_ops;
      Addr expected = kNullPtr;
      if (!mem.cas(link_addr(obj), expected, kBusyForwarding)) {
        ++ts.tc.cas_failures;
        continue;
      }
      const Word attrs = mem.load_atomic(attributes_addr(obj));
      const Addr copy = alloc(ts, object_words(attrs));
      detail::copy_object_body(mem, obj, copy, attrs);
      mem.store_atomic(attributes_addr(obj), attrs | kForwardedBit);
      mem.store_atomic(link_addr(obj), copy, std::memory_order_release);
      ++ts.tc.objects;
      push_work(tid, copy);
      return copy;
    }
  };

  auto scan_copy = [&](std::uint32_t tid, Addr copy) {
    const Word attrs = mem.load_atomic(attributes_addr(copy));
    const Word pi = pi_of(attrs);
    for (Word i = 0; i < pi; ++i) {
      const Addr child = mem.load_atomic(pointer_field_addr(copy, i),
                                         std::memory_order_relaxed);
      if (child != kNullPtr && heap.layout().in_fromspace(child)) {
        mem.store_atomic(pointer_field_addr(copy, i), evacuate(tid, child),
                         std::memory_order_relaxed);
      }
    }
    mem.store_atomic(attributes_addr(copy), attrs | kBlackBit);
  };

  // Roots, queued onto thread 0's deque.
  for (Addr& root : heap.roots()) {
    if (root != kNullPtr) root = evacuate(0, root);
  }

  TortureAgitator agitator(cfg_.torture, cfg_.threads);
  auto worker = [&](std::uint32_t tid) {
    ThreadState& ts = states[tid];
    std::uint32_t victim = (tid + 1) % cfg_.threads;
    agitator.worker_start(tid);
    for (;;) {
      agitator.chaos(tid);
      // 1. Own queue, bottom end.
      Addr copy = kNullPtr;
      {
        std::lock_guard<std::mutex> g(deques[tid].m);
        ++ts.tc.mutex_acquisitions;
        if (!deques[tid].dq.empty()) {
          copy = deques[tid].dq.back();
          deques[tid].dq.pop_back();
        }
      }
      if (copy != kNullPtr) {
        term.claimed();
        scan_copy(tid, copy);
        continue;
      }
      // 2. Steal from the top of another thread's queue.
      bool stole = false;
      for (std::uint32_t probe = 0; probe < cfg_.threads; ++probe) {
        victim = (victim + 1) % cfg_.threads;
        if (victim == tid) continue;
        ++ts.tc.steal_attempts;
        std::lock_guard<std::mutex> g(deques[victim].m);
        if (!deques[victim].dq.empty()) {
          copy = deques[victim].dq.front();
          deques[victim].dq.pop_front();
          stole = true;
          break;
        }
      }
      if (stole) {
        term.claimed();
        scan_copy(tid, copy);
        continue;
      }
      // 3. Every queue looked empty: idle until work appears or all done.
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

  // Account the tail of each worker's final LAB: it was never retired
  // through alloc(), but it is fragmentation all the same — without it,
  // words_copied would overcount and the conformance oracle's accounting
  // check (words_copied == live words) would fail.
  for (auto& s : states) {
    if (s.lab_cur != kNullPtr) s.tc.wasted_words += s.lab_end - s.lab_cur;
  }

  const Addr high_water = st.region_free.load(std::memory_order_acquire);
  heap.flip();
  heap.set_alloc_ptr(high_water);

  ParallelGcStats stats;
  stats.threads = cfg_.threads;
  std::vector<ThreadCounters> counters;
  counters.reserve(states.size());
  for (auto& s : states) counters.push_back(s.tc);
  merge(stats, counters);
  stats.words_copied =
      (high_water - heap.layout().current_base()) - stats.wasted_words;
  stats.elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
  return stats;
}

}  // namespace hwgc
