// Shared machinery for the host-threaded software baseline collectors.
//
// These collectors reproduce the classes of parallel copying GC the paper
// reviews in Section III, running as real std::threads over the same heap
// layout the coprocessor collects. They exist to demonstrate the paper's
// motivating claim: at object-level granularity, software synchronization
// (mutexes / CAS per object) is so frequent that collectors must trade
// balance for coarser work units — chunks, packets, stolen deque segments.
//
// All software baselines copy object bodies *eagerly* at evacuation time
// (the standard software technique); the paper's lazy Gray-1/Gray-2 split
// is a hardware refinement enabled by the backlink + header FIFO. The
// forwarding-pointer installation protocol is the usual sentinel CAS:
//
//   link == 0         : not evacuated, unclaimed
//   link == kBusy     : some thread is copying the object right now
//   link == addr      : forwarded to `addr`
//
// Claiming thread: CAS(link, 0 -> kBusy), copy, publish link = addr.
// Others: spin while kBusy. The attributes word gets kForwardedBit only
// after publication (it is never read for synchronization here).
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "heap/heap.hpp"
#include "heap/object_model.hpp"
#include "sim/rng.hpp"

namespace hwgc {

/// Every threaded baseline's collect() starts here: with no worker thread
/// the per-thread state is empty and the work distribution divides by
/// zero, so a zero-thread config is rejected the way the coprocessor
/// rejects zero cores.
inline void require_threads(std::uint32_t threads, const char* collector) {
  if (threads == 0) {
    throw std::invalid_argument(std::string(collector) +
                                " needs >= 1 thread");
  }
}

/// Schedule-perturbation knobs for the concurrency torture harness
/// (examples/torture_gc.cpp). The software collectors must be correct under
/// ANY host thread schedule; these knobs deliberately push the runs into
/// unlikely corners of the schedule space:
///   * a start barrier releases all workers at once (maximum contention on
///     the first claims, instead of thread 0 finishing before thread N-1
///     even launches — the common case on oversubscribed machines);
///   * seeded per-thread start stagger then skews the released pack, so
///     some workers race the termination detector of others;
///   * chaos yields hand the OS scheduler a seeded stream of extra
///     preemption points inside the work loops.
/// A zero seed disables everything: production configs pay one branch.
struct TortureKnobs {
  std::uint64_t seed = 0;  ///< 0 disables all perturbation
  bool start_barrier = true;
  /// Maximum seeded busy-spin iterations a worker inserts between the
  /// barrier release and its first claim.
  std::uint32_t max_start_stagger = 512;
  /// Roughly one forced yield per this many chaos points (0 = no yields).
  std::uint32_t yield_period = 5;

  bool enabled() const noexcept { return seed != 0; }
};

/// Per-collection agitator realizing TortureKnobs. Shared by all workers of
/// one collection; per-thread RNG state keeps chaos decisions data-race-free
/// and deterministic per (seed, tid) — though what the OS scheduler does
/// with the injected yields is of course not.
class TortureAgitator {
 public:
  TortureAgitator(const TortureKnobs& knobs, std::uint32_t workers)
      : knobs_(knobs), workers_(workers), state_(workers) {
    for (std::uint32_t t = 0; t < workers; ++t) {
      state_[t].s = knobs.seed ^ (0x9e3779b97f4a7c15ULL * (t + 1));
    }
  }

  /// Called by each worker before its first claim: rendezvous with the
  /// other workers, then burn a seeded number of spin iterations.
  void worker_start(std::uint32_t tid) {
    if (!knobs_.enabled()) return;
    if (knobs_.start_barrier && workers_ > 1) {
      arrived_.fetch_add(1, std::memory_order_acq_rel);
      while (arrived_.load(std::memory_order_acquire) < workers_) {
        std::this_thread::yield();  // single-CPU hosts need the handoff
      }
    }
    if (knobs_.max_start_stagger > 0) {
      const std::uint64_t spins =
          splitmix64(state_[tid].s) % knobs_.max_start_stagger;
      for (std::uint64_t i = 0; i < spins; ++i) {
        pause_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  /// A chaos point: called at the top of a worker's claim loop; yields the
  /// thread's quantum with probability 1/yield_period.
  void chaos(std::uint32_t tid) {
    if (!knobs_.enabled() || knobs_.yield_period == 0) return;
    if (splitmix64(state_[tid].s) % knobs_.yield_period == 0) {
      std::this_thread::yield();
    }
  }

 private:
  struct alignas(64) PerThread {
    std::uint64_t s = 0;
  };

  TortureKnobs knobs_;
  std::uint32_t workers_;
  std::vector<PerThread> state_;
  std::atomic<std::uint32_t> arrived_{0};
  /// Dummy target so the stagger spin is not optimized away.
  std::atomic<std::uint64_t> pause_{0};
};

/// Statistics common to all software parallel collectors. The
/// synchronization counters quantify the Section I/III argument: compare
/// sync_ops against objects_copied to see the per-object burden.
struct ParallelGcStats {
  std::uint64_t objects_copied = 0;
  std::uint64_t words_copied = 0;      // live words (excludes waste)
  std::uint64_t wasted_words = 0;      // fragmentation: chunk/LAB tails
  std::uint64_t cas_ops = 0;           // CAS instructions executed
  std::uint64_t cas_failures = 0;      // lost races / retries
  std::uint64_t mutex_acquisitions = 0;
  std::uint64_t steal_attempts = 0;    // work-stealing only
  double elapsed_ms = 0.0;
  std::uint32_t threads = 0;
};

/// Sentinel stored in the link word while an object is being copied.
inline constexpr Addr kBusyForwarding = ~Addr{0};

namespace detail {

/// Copies header attributes + body of `obj` to `copy` (eager copy).
inline void copy_object_body(WordMemory& mem, Addr obj, Addr copy,
                             Word attrs) {
  mem.store_atomic(attributes_addr(copy), attrs, std::memory_order_relaxed);
  mem.store_atomic(link_addr(copy), kNullPtr, std::memory_order_relaxed);
  const Word body = pi_of(attrs) + delta_of(attrs);
  for (Word i = 0; i < body; ++i) {
    mem.store_atomic(copy + kHeaderWords + i,
                     mem.load_atomic(obj + kHeaderWords + i,
                                     std::memory_order_relaxed),
                     std::memory_order_relaxed);
  }
}

}  // namespace detail

/// Per-thread accounting, merged into ParallelGcStats at the end.
struct ThreadCounters {
  std::uint64_t objects = 0;
  std::uint64_t cas_ops = 0;
  std::uint64_t cas_failures = 0;
  std::uint64_t mutex_acquisitions = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t wasted_words = 0;
};

inline void merge(ParallelGcStats& stats,
                  const std::vector<ThreadCounters>& per_thread) {
  for (const auto& t : per_thread) {
    stats.objects_copied += t.objects;
    stats.cas_ops += t.cas_ops;
    stats.cas_failures += t.cas_failures;
    stats.mutex_acquisitions += t.mutex_acquisitions;
    stats.steal_attempts += t.steal_attempts;
    stats.wasted_words += t.wasted_words;
  }
}

}  // namespace hwgc
