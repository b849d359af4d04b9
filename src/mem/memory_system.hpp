// Split-transaction memory access scheduler (paper Section V-D).
//
// Timing model only — architectural memory contents live in WordMemory and
// are updated by the cores at issue time, which is semantically equivalent
// because the locking protocol guarantees a single writer and ordered
// access for every location (see DESIGN.md §5).
//
// Modeled behaviour:
//  * Each core owns one load and one store buffer per port (header/body):
//    four buffers per core, as in the prototype.
//  * Store buffers hold up to kStoreDepth entries awaiting *acceptance* by
//    the scheduler; a store needs no reply, so its slot frees as soon as
//    the scheduler picks it up. A core stalls only when it issues a store
//    into a full buffer.
//  * A load occupies its buffer until the data returns (full latency); the
//    core stalls when it needs the data earlier.
//  * The scheduler accepts up to `bandwidth_per_cycle` requests per clock,
//    oldest first; an accepted request completes `latency` cycles later.
//  * Comparator array: a *header load* is not accepted while any header
//    store to the same address is still uncommitted. Body accesses are
//    never ordered (each body word is touched exactly once per cycle).
//  * stores_drained(): end-of-cycle flush — the main processor may only be
//    restarted once every store has committed (Section V-E).
//  * Optional seeded latency jitter (MemoryConfig::latency_jitter) for
//    schedule-exploration fuzzing: adds a random number of cycles to each
//    accepted request, so completions can retire out of acceptance order
//    as they would under real DRAM bank conflicts or refresh.
//  * Not modeled: the paper's global cap of 4 x N outstanding split
//    transactions. Requests not yet accepted are bounded by the per-core
//    buffers (one load and kStoreDepth stores per port); accepted ones by
//    bandwidth_per_cycle x the longest latency.
//
// Host cost: the scheduler's state is a handful of entries per cycle
// (a fig5 pass averages about 1 queued request, 3 uncommitted header
// stores and 5 in-flight requests), so every structure is flat — the
// queue a vector compacted in place, each latency class a power-of-two
// ring, the comparator array a small (addr, count) CAM.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/ports.hpp"
#include "sim/config.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace hwgc {

class FaultInjector;
class CycleObserver;

class MemorySystem {
 public:
  /// Entries per store buffer. Two slots let an evacuation issue its pair
  /// of header stores (fromspace forwarding + tospace frame) in
  /// consecutive cycles without stalling, which the prototype's 1-cycle
  /// free-lock critical section requires.
  static constexpr std::uint8_t kStoreDepth = 2;

  /// `fault`, when non-null, is consulted for every accepted transaction
  /// (src/fault/): it can drop the transaction, stretch its latency or
  /// schedule a ghost duplicate of a store. `obs`, when non-null, sees
  /// the in-flight transaction count every tick (observation only).
  MemorySystem(const MemoryConfig& cfg, std::uint32_t num_cores,
               FaultInjector* fault = nullptr, CycleObserver* obs = nullptr);

  // --- Core-side buffer interface ---------------------------------------

  /// True when the store buffer is full; the core must stall before
  /// issuing another store on this port.
  bool store_busy(CoreId core, Port port) const noexcept {
    return buf(core, port).stores_waiting >= kStoreDepth;
  }

  /// Free slots in the store buffer (0..kStoreDepth).
  std::uint8_t store_slots_free(CoreId core, Port port) const noexcept {
    return static_cast<std::uint8_t>(kStoreDepth -
                                     buf(core, port).stores_waiting);
  }

  /// True while a load is outstanding and its data has not yet arrived.
  bool load_pending(CoreId core, Port port) const noexcept {
    return buf(core, port).load_inflight;
  }

  /// Issues a store. Precondition: !store_busy(core, port).
  void issue_store(CoreId core, Port port, Addr addr);

  /// Issues a load. Precondition: !load_pending(core, port).
  void issue_load(CoreId core, Port port, Addr addr);

  // --- Global timing -----------------------------------------------------

  /// Advances the memory system by one clock cycle: completes transactions
  /// whose latency elapsed, then accepts up to bandwidth_per_cycle queued
  /// requests.
  void tick(Cycle now);

  /// True when no store (any port, any core) is still uncommitted.
  bool stores_drained() const noexcept { return uncommitted_stores_ == 0; }

  /// True when nothing at all is in flight.
  bool idle() const noexcept {
    return queue_.empty() && inflight_header_.empty() &&
           inflight_header_fast_.empty() && inflight_body_.empty();
  }

  /// Sentinel returned by next_completion() when nothing is in flight.
  static constexpr Cycle kNever = ~Cycle{0};

  /// True when the next tick would accept nothing: the queue is empty or
  /// holds only header loads held back by the comparator array. Ticks are
  /// then pure waiting until the next completion — the memory-side
  /// precondition for fast-forwarding the clock.
  bool ff_quiescent() const noexcept {
    for (const Request& r : queue_) {
      if (r.op != MemOp::kLoad || r.port != Port::kHeader ||
          !header_store_uncommitted(r.addr)) {
        return false;
      }
    }
    return true;
  }

  /// Earliest complete_at over every in-flight transaction (ghost replays
  /// included — they mutate memory when they retire); kNever when nothing
  /// is in flight. The first cycle whose tick is not a pure no-op. With
  /// in-order retire each class's front is its minimum, so only the three
  /// fronts are read; jittered or fault runs scan every entry.
  Cycle next_completion() const noexcept {
    Cycle t = kNever;
    const auto scan = [&t, this](const InflightRing& q) {
      const std::size_t n = in_order() ? std::min<std::size_t>(q.size(), 1)
                                       : q.size();
      for (std::size_t i = 0; i < n; ++i) {
        if (q[i].complete_at < t) t = q[i].complete_at;
      }
    };
    scan(inflight_header_);
    scan(inflight_header_fast_);
    scan(inflight_body_);
    return t;
  }

  std::uint64_t requests_issued() const noexcept { return requests_; }
  std::uint64_t header_cache_hits() const noexcept { return cache_hits_; }
  std::uint64_t header_cache_misses() const noexcept { return cache_misses_; }
  std::uint32_t num_cores() const noexcept {
    return static_cast<std::uint32_t>(buffers_.size() / kPortCount);
  }

 private:
  struct PortBuffer {
    bool load_inflight = false;
    std::uint8_t stores_waiting = 0;  // issued, not yet accepted
  };

  struct Request {
    CoreId core = 0;
    Port port = Port::kHeader;
    MemOp op = MemOp::kLoad;
    Addr addr = 0;
  };

  struct Inflight {
    Request req;
    Cycle complete_at = 0;
    /// Injected duplicate of a store: replays `replay_value` into the
    /// functional memory when it retires; carries no buffer/drain
    /// accounting (the architectural original already committed).
    bool ghost = false;
    Word replay_value = 0;
  };

  /// Accepted requests of one latency class, oldest first: a growable
  /// power-of-two ring. Only the front retires while retire is in order;
  /// otherwise erase_if() removes due entries anywhere, keeping the rest in
  /// acceptance order.
  class InflightRing {
   public:
    bool empty() const noexcept { return size_ == 0; }
    std::size_t size() const noexcept { return size_; }
    const Inflight& operator[](std::size_t i) const noexcept {
      return slots_[(head_ + i) & mask()];
    }
    const Inflight& front() const noexcept { return slots_[head_]; }
    void pop_front() noexcept {
      head_ = (head_ + 1) & mask();
      --size_;
    }
    void push_back(const Inflight& f) {
      if (size_ == slots_.size()) grow();
      slots_[(head_ + size_) & mask()] = f;
      ++size_;
    }
    /// Removes every entry for which `pred` returns true, in ring order,
    /// keeping the survivors' relative order.
    template <class Pred>
    void erase_if(Pred pred) {
      std::size_t kept = 0;
      for (std::size_t i = 0; i < size_; ++i) {
        const Inflight& f = slots_[(head_ + i) & mask()];
        if (pred(f)) continue;
        if (kept != i) slots_[(head_ + kept) & mask()] = f;
        ++kept;
      }
      size_ = kept;
    }

   private:
    std::size_t mask() const noexcept { return slots_.size() - 1; }
    void grow() {
      std::vector<Inflight> bigger(slots_.empty() ? 8 : 2 * slots_.size());
      for (std::size_t i = 0; i < size_; ++i) bigger[i] = (*this)[i];
      slots_.swap(bigger);
      head_ = 0;
    }
    std::vector<Inflight> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  /// One comparator-array entry: uncommitted header stores to `addr`.
  struct PendingStore {
    Addr addr = 0;
    std::uint32_t count = 0;
  };

  PortBuffer& buf(CoreId core, Port port) noexcept {
    return buffers_[core * kPortCount + static_cast<std::size_t>(port)];
  }
  const PortBuffer& buf(CoreId core, Port port) const noexcept {
    return buffers_[core * kPortCount + static_cast<std::size_t>(port)];
  }

  /// Constant per-class latencies: each class completes in acceptance
  /// order. Latency jitter and injected delays break that.
  bool in_order() const noexcept {
    return cfg_.latency_jitter == 0 && fault_ == nullptr;
  }

  /// Comparator array: is a header store to `addr` queued or in flight?
  bool header_store_uncommitted(Addr addr) const noexcept {
    for (const PendingStore& p : pending_header_stores_) {
      if (p.addr == addr) return true;
    }
    return false;
  }
  /// The comparator-array entry for `addr`, or null when it has none.
  PendingStore* pending_store(Addr addr) noexcept {
    for (PendingStore& p : pending_header_stores_) {
      if (p.addr == addr) return &p;
    }
    return nullptr;
  }

  MemoryConfig cfg_;
  FaultInjector* fault_ = nullptr;
  CycleObserver* obs_ = nullptr;
  std::vector<PortBuffer> buffers_;  // num_cores x kPortCount
  std::vector<Request> queue_;       // issued, not yet accepted; oldest first
  // One ring per latency class; header-cache hits form their own, faster
  // class. With latency_jitter enabled, completions within a class can
  // retire out of acceptance order and the whole ring is scanned instead
  // (fuzzing only — never the measured configuration).
  Rng jitter_rng_{0};
  InflightRing inflight_header_;
  InflightRing inflight_header_fast_;
  InflightRing inflight_body_;

  /// Header cache (Section VII future work 2): direct-mapped tag array.
  /// Contents are architectural memory (functional state is elsewhere), so
  /// only tags are modeled. Loads and stores both allocate.
  bool header_cache_lookup_and_fill(Addr addr);
  std::vector<Addr> cache_tags_;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  // Comparator array: one entry per address with uncommitted header
  // stores, unordered (entries are only ever looked up by address).
  std::vector<PendingStore> pending_header_stores_;
  std::uint64_t uncommitted_stores_ = 0;
  std::uint64_t requests_ = 0;
};

}  // namespace hwgc
