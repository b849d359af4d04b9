#include "mem/memory_system.hpp"

#include <cassert>

#include "fault/fault_injector.hpp"
#include "sim/observer.hpp"

namespace hwgc {

MemorySystem::MemorySystem(const MemoryConfig& cfg, std::uint32_t num_cores,
                           FaultInjector* fault, CycleObserver* obs)
    : cfg_(cfg),
      fault_(fault),
      obs_(obs),
      buffers_(static_cast<std::size_t>(num_cores) * kPortCount),
      jitter_rng_(cfg.jitter_seed) {
  cache_tags_.assign(cfg_.header_cache_entries, kNullPtr);
}

bool MemorySystem::header_cache_lookup_and_fill(Addr addr) {
  if (cache_tags_.empty()) return false;
  Addr& tag = cache_tags_[addr % cache_tags_.size()];
  if (tag == addr) {
    ++cache_hits_;
    return true;
  }
  ++cache_misses_;
  tag = addr;  // allocate on miss (loads and stores alike)
  return false;
}

void MemorySystem::issue_store(CoreId core, Port port, Addr addr) {
  PortBuffer& b = buf(core, port);
  assert(b.stores_waiting < kStoreDepth &&
         "core must stall on a full store buffer");
  ++b.stores_waiting;
  ++uncommitted_stores_;
  if (port == Port::kHeader) {
    if (PendingStore* p = pending_store(addr)) {
      ++p->count;
    } else {
      pending_header_stores_.push_back(PendingStore{addr, 1});
    }
  }
  ++requests_;
  queue_.push_back(Request{core, port, MemOp::kStore, addr});
}

void MemorySystem::issue_load(CoreId core, Port port, Addr addr) {
  PortBuffer& b = buf(core, port);
  assert(!b.load_inflight && "core must consume the previous load first");
  b.load_inflight = true;
  ++requests_;
  queue_.push_back(Request{core, port, MemOp::kLoad, addr});
}

void MemorySystem::tick(Cycle now) {
  // Idle early-out: with nothing queued or in flight the retire and accept
  // passes are no-ops, so skip them (idle components cost nothing); an
  // observer still sees the in-flight count.
  if (idle()) {
    if (obs_ != nullptr) obs_->on_counter("mem_inflight", 0);
    return;
  }
  // 1. Retire transactions whose latency has elapsed. Within each port
  //    class acceptance order is completion order (constant per-class
  //    latency), so only the fronts can retire — unless latency jitter or
  //    injected delays stretch individual latencies, in which case
  //    completions interleave and the whole ring is scanned.
  const bool out_of_order = !in_order();
  const auto retire_one = [&](const Inflight& f) {
    const Request& r = f.req;
    if (f.ghost) {
      // The duplicated store arrives a second time, resurrecting the
      // value it was accepted with. No accounting: the original already
      // committed and freed its slot.
      fault_->on_ghost_store_retire(r.addr, f.replay_value);
      return;
    }
    if (r.op == MemOp::kLoad) {
      buf(r.core, r.port).load_inflight = false;  // data arrived
      return;
    }
    --uncommitted_stores_;  // committed to memory
    if (r.port == Port::kHeader) {
      PendingStore* p = pending_store(r.addr);
      assert(p != nullptr);
      if (--p->count == 0) {
        *p = pending_header_stores_.back();  // unordered: swap-remove
        pending_header_stores_.pop_back();
      }
    }
  };
  const auto retire = [&](InflightRing& inflight) {
    if (out_of_order) {
      inflight.erase_if([&](const Inflight& f) {
        if (f.complete_at > now) return false;
        retire_one(f);
        return true;
      });
      return;
    }
    while (!inflight.empty() && inflight.front().complete_at <= now) {
      retire_one(inflight.front());
      inflight.pop_front();
    }
  };
  retire(inflight_header_);
  retire(inflight_header_fast_);
  retire(inflight_body_);

  // 2. Accept up to bandwidth_per_cycle queued requests, oldest first.
  //    Header loads held back by the comparator array let younger,
  //    independent requests pass (split transactions). The queue is
  //    compacted in place: survivors keep their age order.
  std::uint32_t accepted = 0;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Request r = queue_[i];
    if (accepted == cfg_.bandwidth_per_cycle ||
        (r.op == MemOp::kLoad && r.port == Port::kHeader &&
         header_store_uncommitted(r.addr))) {
      // Bandwidth spent, or the comparator array delays this header load.
      queue_[kept++] = r;
      continue;
    }
    ++accepted;
    if (r.op == MemOp::kStore) {
      --buf(r.core, r.port).stores_waiting;  // slot frees on acceptance
    }
    MemFaultAction fa;
    if (fault_ != nullptr) {
      fa = fault_->on_mem_accept(r.core, r.port, r.op, r.addr);
    }
    if (fa.kind == MemFaultAction::Kind::kDrop) {
      // The transaction vanishes after acceptance: a dropped load never
      // returns data (load_inflight stays set, the core stalls forever); a
      // dropped store never commits (uncommitted_stores_ and the comparator
      // array keep its entry, so the drain condition never holds). Either
      // way only the watchdog can end the cycle.
      continue;
    }
    Cycle extra = cfg_.latency_jitter != 0
                      ? jitter_rng_.below(cfg_.latency_jitter + 1)
                      : 0;
    extra += fa.extra_delay;
    Cycle complete_at;
    InflightRing* inflight;
    if (r.port == Port::kHeader) {
      if (header_cache_lookup_and_fill(r.addr)) {
        complete_at = now + cfg_.header_cache_hit_latency + extra;
        inflight = &inflight_header_fast_;
      } else {
        complete_at = now + cfg_.header_latency + extra;
        inflight = &inflight_header_;
      }
    } else {
      complete_at = now + cfg_.latency + extra;
      inflight = &inflight_body_;
    }
    inflight->push_back(Inflight{r, complete_at, false, 0});
    if (fa.kind == MemFaultAction::Kind::kDuplicate) {
      inflight->push_back(Inflight{r, complete_at + 1 + fa.ghost_lag, true,
                                   fa.replay_value});
    }
  }
  queue_.resize(kept);

  if (obs_ != nullptr) {
    obs_->on_counter("mem_inflight", inflight_header_.size() +
                                         inflight_header_fast_.size() +
                                         inflight_body_.size());
  }
}

}  // namespace hwgc
