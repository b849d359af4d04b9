#include "baselines/work_packets.hpp"

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

using Packet = std::vector<Addr>;

struct SharedState {
  std::atomic<Addr> free{0};
  Addr end = 0;
  std::mutex pool_mutex;
  std::vector<Packet> full_packets;
};

}  // namespace

ParallelGcStats WorkPacketCollector::collect(Heap& heap) {
  require_threads(cfg_.threads, "work-packet collector");
  const auto t0 = std::chrono::steady_clock::now();
  WordMemory& mem = heap.memory();
  SharedState st;
  st.free.store(heap.layout().tospace_base(), std::memory_order_relaxed);
  st.end = heap.layout().tospace_end();

  TerminationDetector term(cfg_.threads);
  std::vector<ThreadCounters> counters(cfg_.threads);
  std::vector<Packet> out_packets(cfg_.threads);
  for (auto& p : out_packets) p.reserve(cfg_.packet_capacity);

  auto publish = [&](std::uint32_t tid) {
    if (out_packets[tid].empty()) return;
    {
      std::lock_guard<std::mutex> g(st.pool_mutex);
      ++counters[tid].mutex_acquisitions;
      st.full_packets.push_back(std::move(out_packets[tid]));
    }
    out_packets[tid] = Packet();
    out_packets[tid].reserve(cfg_.packet_capacity);
    term.published();
  };

  // Eager evacuation (sentinel CAS); the winner queues the copy for
  // scanning in its output packet.
  auto evacuate = [&](std::uint32_t tid, Addr obj) -> Addr {
    ThreadCounters& tc = counters[tid];
    for (;;) {
      Addr link = mem.load_atomic(link_addr(obj));
      if (link == kBusyForwarding) continue;
      if (link != kNullPtr) return link;
      ++tc.cas_ops;
      Addr expected = kNullPtr;
      if (!mem.cas(link_addr(obj), expected, kBusyForwarding)) {
        ++tc.cas_failures;
        continue;
      }
      const Word attrs = mem.load_atomic(attributes_addr(obj));
      const Word size = object_words(attrs);
      const Addr copy = st.free.fetch_add(size, std::memory_order_acq_rel);
      if (copy + size > st.end) {
        throw std::runtime_error("work-packet collector: tospace exhausted");
      }
      detail::copy_object_body(mem, obj, copy, attrs);
      mem.store_atomic(attributes_addr(obj), attrs | kForwardedBit);
      mem.store_atomic(link_addr(obj), copy, std::memory_order_release);
      ++tc.objects;
      out_packets[tid].push_back(copy);
      if (out_packets[tid].size() >= cfg_.packet_capacity) publish(tid);
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

  // Roots, queued through thread 0's output packet.
  for (Addr& root : heap.roots()) {
    if (root != kNullPtr) root = evacuate(0, root);
  }
  publish(0);

  TortureAgitator agitator(cfg_.torture, cfg_.threads);
  auto worker = [&](std::uint32_t tid) {
    agitator.worker_start(tid);
    for (;;) {
      agitator.chaos(tid);
      Packet in;
      {
        std::lock_guard<std::mutex> g(st.pool_mutex);
        ++counters[tid].mutex_acquisitions;
        if (!st.full_packets.empty()) {
          in = std::move(st.full_packets.back());
          st.full_packets.pop_back();
        }
      }
      if (!in.empty()) {
        term.claimed();
        for (Addr copy : in) scan_copy(tid, copy);
        continue;
      }
      // Drain the private output packet before idling — otherwise its
      // entries would be invisible to the termination detector.
      if (!out_packets[tid].empty()) {
        publish(tid);
        continue;
      }
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

  const Addr high_water = st.free.load(std::memory_order_acquire);
  heap.flip();
  heap.set_alloc_ptr(high_water);

  ParallelGcStats stats;
  stats.threads = cfg_.threads;
  stats.words_copied = high_water - heap.layout().current_base();
  merge(stats, counters);
  stats.elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
  return stats;
}

}  // namespace hwgc
