#include "baselines/naive_parallel.hpp"

#include <atomic>
#include <cassert>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

namespace hwgc {

namespace {

/// Test-and-test-and-set spin lock; stands in for one header-lock stripe.
class SpinLock {
 public:
  void lock(ThreadCounters& tc) {
    ++tc.mutex_acquisitions;
    while (flag_.test_and_set(std::memory_order_acquire)) {
      ++tc.cas_failures;
      while (flag_.test(std::memory_order_relaxed)) {
      }
    }
  }
  void unlock() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

struct SharedState {
  explicit SharedState(std::uint32_t stripes) : header_locks(stripes) {}

  std::mutex scan_mutex;
  std::mutex free_mutex;
  std::vector<SpinLock> header_locks;
  std::atomic<Addr> scan{0};
  std::atomic<Addr> free{0};
  std::atomic<std::uint32_t> busy{0};
  std::atomic<bool> done{false};
};

}  // namespace

ParallelGcStats NaiveParallelCheney::collect(Heap& heap) {
  require_threads(cfg_.threads, "naive parallel collector");
  const auto t0 = std::chrono::steady_clock::now();
  WordMemory& mem = heap.memory();
  SharedState st(cfg_.header_lock_stripes);
  const Addr tospace_base = heap.layout().tospace_base();
  st.scan.store(tospace_base, std::memory_order_relaxed);
  st.free.store(tospace_base, std::memory_order_relaxed);

  std::vector<ThreadCounters> counters(cfg_.threads);

  auto stripe = [&](Addr a) -> SpinLock& {
    return st.header_locks[a % st.header_locks.size()];
  };

  // Evacuates `obj` under its header stripe; returns the tospace copy.
  // Mirrors the Section IV pseudo-code: lock header -> check mark ->
  // (lock free -> install forwarding + backlink + bump) -> unlock.
  auto evacuate = [&](Addr obj, ThreadCounters& tc) -> Addr {
    SpinLock& l = stripe(obj);
    l.lock(tc);
    const Word attrs = mem.load_atomic(attributes_addr(obj));
    Addr fwd;
    if (is_forwarded(attrs)) {
      fwd = mem.load_atomic(link_addr(obj));
    } else {
      std::lock_guard<std::mutex> g(st.free_mutex);
      ++tc.mutex_acquisitions;
      fwd = st.free.load(std::memory_order_relaxed);
      const Word size = object_words(attrs);
      assert(fwd + size <= heap.layout().tospace_end());
      // Gray 1: forwarding pointer in fromspace, gray frame in tospace.
      mem.store_atomic(attributes_addr(obj), attrs | kForwardedBit);
      mem.store_atomic(link_addr(obj), fwd);
      mem.store_atomic(attributes_addr(fwd), attrs);
      mem.store_atomic(link_addr(fwd), obj);
      st.free.store(fwd + size, std::memory_order_release);
      ++tc.objects;
    }
    l.unlock();
    return fwd;
  };

  // Roots: the main thread plays Core 1 (Section V-E).
  for (Addr& root : heap.roots()) {
    if (root != kNullPtr) root = evacuate(root, counters[0]);
  }

  TortureAgitator agitator(cfg_.torture, cfg_.threads);
  auto worker = [&](std::uint32_t tid) {
    ThreadCounters& tc = counters[tid];
    agitator.worker_start(tid);
    for (;;) {
      agitator.chaos(tid);
      if (st.done.load(std::memory_order_acquire)) return;
      Addr frame, orig;
      Word attrs;
      {
        std::lock_guard<std::mutex> g(st.scan_mutex);
        ++tc.mutex_acquisitions;
        const Addr scan = st.scan.load(std::memory_order_relaxed);
        if (scan == st.free.load(std::memory_order_acquire)) {
          // Termination needs scan == free AND all busy flags clear — and
          // the hardware SB evaluates that conjunction atomically in one
          // cycle (Section IV). In software the two loads are separate, so
          // after observing busy == 0 we must re-read free: a thread that
          // finished in between may have evacuated more objects before
          // clearing its flag, and our first free read predates them.
          if (st.busy.load(std::memory_order_acquire) == 0 &&
              scan == st.free.load(std::memory_order_acquire)) {
            st.done.store(true, std::memory_order_release);
            return;
          }
          continue;  // worklist momentarily empty; retry
        }
        frame = scan;
        attrs = mem.load_atomic(attributes_addr(frame));
        orig = mem.load_atomic(link_addr(frame));
        st.busy.fetch_add(1, std::memory_order_acq_rel);
        st.scan.store(frame + object_words(attrs),
                      std::memory_order_relaxed);
      }
      // Gray 2: copy the body, evacuating referenced white objects.
      const Word pi = pi_of(attrs);
      const Word delta = delta_of(attrs);
      for (Word i = 0; i < pi; ++i) {
        const Addr child = mem.load_atomic(pointer_field_addr(orig, i),
                                           std::memory_order_relaxed);
        const Addr fwd = child == kNullPtr ? kNullPtr : evacuate(child, tc);
        mem.store_atomic(pointer_field_addr(frame, i), fwd,
                         std::memory_order_relaxed);
      }
      for (Word j = 0; j < delta; ++j) {
        mem.store_atomic(data_field_addr(frame, pi, j),
                         mem.load_atomic(data_field_addr(orig, pi, j),
                                         std::memory_order_relaxed),
                         std::memory_order_relaxed);
      }
      mem.store_atomic(attributes_addr(frame), attrs | kBlackBit);
      mem.store_atomic(link_addr(frame), kNullPtr);
      st.busy.fetch_sub(1, std::memory_order_acq_rel);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(cfg_.threads);
  for (std::uint32_t t = 0; t < cfg_.threads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();

  const Addr free_final = st.free.load(std::memory_order_acquire);
  heap.flip();
  heap.set_alloc_ptr(free_final);

  ParallelGcStats stats;
  stats.threads = cfg_.threads;
  stats.words_copied = free_final - tospace_base;
  merge(stats, counters);
  stats.elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
  return stats;
}

}  // namespace hwgc
