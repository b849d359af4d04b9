#include "core/coprocessor.hpp"

#include <stdexcept>
#include <vector>

#include "core/gc_core.hpp"
#include "core/schedule_policy.hpp"
#include "core/sync_block.hpp"
#include "fault/fault_injector.hpp"
#include "mem/header_fifo.hpp"
#include "mem/memory_system.hpp"
#include "sim/abort.hpp"
#include "sim/observer.hpp"

namespace hwgc {

GcCycleStats Coprocessor::collect(CycleObserver* obs, FaultInjector* fault) {
  const std::uint32_t n = cfg_.coprocessor.num_cores;
  if (n == 0) throw std::invalid_argument("coprocessor needs >= 1 core");

  if (fault != nullptr) fault->attach_observer(obs);
  SyncBlock sb(n, fault, obs);
  MemorySystem mem(cfg_.memory, n, fault, obs);
  HeaderFifo fifo(cfg_.coprocessor.header_fifo_capacity, obs);
  GcContext ctx{sb, mem, fifo, heap_, cfg_.coprocessor, obs};
  if (obs != nullptr) obs->on_collection_begin(n);

  const Addr tospace_base = heap_.layout().tospace_base();
  sb.set_scan(tospace_base);
  sb.set_free(tospace_base);
  sb.set_alloc_top(heap_.layout().tospace_end());

  std::vector<GcCore> cores;
  cores.reserve(n);
  for (CoreId id = 0; id < n; ++id) cores.emplace_back(id, ctx);

  const auto policy = make_schedule_policy(cfg_.coprocessor.schedule,
                                           cfg_.coprocessor.schedule_seed);
  std::vector<CoreId> step_order;
  step_order.reserve(n);
  // The fixed-priority policy is stateless and always yields index order,
  // so its permutation is computed once instead of every cycle.
  const bool fixed_order =
      cfg_.coprocessor.schedule == SchedulePolicyKind::kFixedPriority;
  if (fixed_order) policy->order(0, sb, step_order);

  GcCycleStats stats;
  Cycle now = 0;
  const std::uint64_t start_gen = sb.barrier_generation();

  // Done bookkeeping: kDone is absorbing, so a per-core flag plus a count
  // replaces the every-cycle all-cores scan and lets the step loop skip
  // finished cores entirely.
  std::vector<std::uint8_t> core_done(n, 0);
  std::uint32_t done_count = 0;

  // Clock loop: memory retires/accepts first, then cores step in the order
  // the schedule policy picks. The default fixed order realizes the SB's
  // static-priority arbitration and its same-cycle lock hand-off; the
  // other policies explore alternative interleavings (src/fuzz/).
  // Watchdog activity monitor: the last cycle each core was clocked —
  // stepped while unfinished, or charged an injected stall — so an expiry
  // can localize the core that stopped making progress (a fail-stopped
  // core misses its clock; a merely stalled or idle core is still clocked).
  std::vector<Cycle> last_change(n, 0);

  bool cores_halted = false;
  Cycle halted_at = 0;

  // The observer's view of the current cycle, from pure reads only: a
  // stuck-at-1 busy bit counts once latched, and reading it here never
  // fires the fault (only the hardware's own consults do).
  const auto view = [&](bool draining) {
    CycleView v;
    v.now = now;
    v.draining = draining;
    v.phase = cores_halted                          ? GcPhase::kDrain
              : sb.barrier_generation() > start_gen ? GcPhase::kParallelScan
                                                    : GcPhase::kRootEvacuation;
    v.scan = sb.scan();
    v.free = sb.free();
    for (CoreId c = 0; c < n; ++c) {
      const bool busy =
          sb.busy_raw(c) || (fault != nullptr && fault->stuck_busy_steady(c));
      v.busy_cores += busy ? 1u : 0u;
    }
    v.step_order = step_order;
    return v;
  };

  // Watchdog expiry (shared by the ticked path and the fast-forward jump
  // to the budget boundary). Localize a suspect before aborting. First
  // preference: a ScanState bit that reads busy while the core's
  // architectural bit is clear (stuck-at-1 fault). Second: the unfinished
  // core that has gone unclocked the longest — a core that missed its
  // clock for an eighth of the whole budget is fail-stopped, not slow.
  const auto watchdog_abort = [&]() {
    CoreId suspect = kNoCore;
    for (CoreId c = 0; c < n && suspect == kNoCore; ++c) {
      if (sb.busy(c) && !sb.busy_raw(c)) suspect = c;
    }
    if (suspect == kNoCore) {
      Cycle worst = cfg_.coprocessor.watchdog_cycles / 8;
      for (CoreId c = 0; c < n; ++c) {
        if (cores[c].done()) continue;
        const Cycle stale = now - last_change[c];
        if (stale > worst) {
          worst = stale;
          suspect = c;
        }
      }
    }
    throw CollectionAbort(AbortReason::kWatchdog,
                          "GC coprocessor watchdog expired after " +
                              std::to_string(now) + " cycles" +
                              (suspect == kNoCore
                                   ? std::string{}
                                   : ", suspect core " +
                                         std::to_string(suspect)),
                          suspect, now);
  };

  // Event-driven fast-forward (DESIGN.md §13): when every component is
  // quiescent — memory ticks are pure waiting, every core's next steps are
  // exact repetitions with precomputable effects — jump the clock to the
  // next event (memory completion, fault boundary or watchdog budget)
  // instead of ticking, and apply the skipped cycles' counter increments
  // in bulk. Restricted to the fixed-priority schedule (the other policies
  // mutate per-cycle state in order()) and to observers that absorb whole
  // windows.
  const bool ff_active = cfg_.coprocessor.fast_forward && fixed_order &&
                         (obs == nullptr || obs->absorbs_windows());
  std::vector<GcCore::FfPoll> ff_class(n);
  const auto try_fast_forward = [&]() -> Cycle {
    // Memory gate: nothing acceptable queued, no completion due this cycle.
    if (!mem.ff_quiescent()) return 0;
    const Cycle completion = mem.next_completion();
    if (completion <= now) return 0;
    // Fault gate: no armed event may be due (it would fire on a consult
    // this cycle) and no steady state may change before the jump target.
    if (fault != nullptr && fault->ff_blocked(now)) return 0;
    Cycle target = cfg_.coprocessor.watchdog_cycles;
    if (completion < target) target = completion;
    if (fault != nullptr) {
      const Cycle boundary = fault->next_cycle_boundary(now);
      if (boundary < target) target = boundary;
    }
    if (target <= now) return 0;

    if (!cores_halted) {
      // Classify every core; any kFail vetoes the jump. An injected fate
      // (fail-stop, latched stall window) overrides the state machine,
      // exactly as core_fate() does before step().
      bool all_idle_steady = true;
      for (CoreId c = 0; c < n && all_idle_steady; ++c) {
        all_idle_steady = !sb.busy_raw(c) &&
                          (fault == nullptr || !fault->stuck_busy_steady(c));
      }
      for (CoreId c = 0; c < n; ++c) {
        GcCore::FfPoll p;
        const CoreFate fate =
            fault != nullptr ? fault->steady_fate(c, now) : CoreFate::kRun;
        if (fate == CoreFate::kStopped) {
          p.kind = GcCore::FfPoll::Kind::kSkip;
        } else if (fate == CoreFate::kStall) {
          p.kind = GcCore::FfPoll::Kind::kStall;
          p.reason = StallReason::kFault;
        } else {
          p = cores[c].ff_poll();
          if (p.kind == GcCore::FfPoll::Kind::kIdle && all_idle_steady &&
              sb.stripes_idle()) {
            return 0;  // the spin ends: this core observes termination now
          }
          if (p.kind == GcCore::FfPoll::Kind::kFail &&
              p.if_suppressed != StallReason::kNone && fault != nullptr &&
              fault->lock_suppressed_steady(
                  p.if_suppressed == StallReason::kScanLock ? LockKind::kScan
                                                            : LockKind::kFree,
                  now)) {
            p.kind = GcCore::FfPoll::Kind::kStall;
            p.reason = p.if_suppressed;
          }
          if (p.kind == GcCore::FfPoll::Kind::kFail) return 0;
        }
        ff_class[c] = p;
      }
      // A lock waiter is steady only while the holder is: the holder must
      // itself be stalled (memory wait, fault stall) or fail-stopped.
      for (CoreId c = 0; c < n; ++c) {
        const GcCore::FfPoll& p = ff_class[c];
        if (p.kind == GcCore::FfPoll::Kind::kStall && p.blocker != kNoCore) {
          const auto bk = ff_class[p.blocker].kind;
          if (bk != GcCore::FfPoll::Kind::kStall &&
              bk != GcCore::FfPoll::Kind::kSkip) {
            return 0;
          }
        }
      }
    }

    // Commit the jump: apply k skipped cycles' effects in bulk (each
    // absorbing core publishes its constant class once for the window).
    const Cycle k = target - now;
    if (!cores_halted) {
      for (CoreId c = 0; c < n; ++c) {
        const GcCore::FfPoll& p = ff_class[c];
        switch (p.kind) {
          case GcCore::FfPoll::Kind::kStall:
            cores[c].ff_absorb_stall(p.reason, k);
            break;
          case GcCore::FfPoll::Kind::kIdle:
            cores[c].ff_absorb_idle(k);
            break;
          default:
            continue;  // kSkip: not clocked
        }
        last_change[c] = target - 1;
      }
      if (sb.barrier_generation() > start_gen && sb.worklist_empty()) {
        stats.worklist_empty_cycles += k;
      }
    }
    if (obs != nullptr) obs->on_window(view(cores_halted), k);
    return k;
  };

  try {
  while (true) {
    if (ff_active) {
      const Cycle skipped = try_fast_forward();
      if (skipped > 0) {
        now += skipped;
        if (now >= cfg_.coprocessor.watchdog_cycles) {
          // Mirror the ticked run exactly: its last begin_clock() before
          // the expiry was for the final (here: skipped) cycle, and the
          // suspect scan's busy() consults run against that clock.
          if (fault != nullptr) fault->begin_clock(now - 1);
          watchdog_abort();
        }
      }
    }
    if (obs != nullptr) obs->on_cycle_begin(now);
    if (fault != nullptr) fault->begin_clock(now);
    mem.tick(now);
    const bool draining = cores_halted;
    if (!cores_halted) {
      sb.begin_cycle();
      if (!fixed_order) policy->order(now, sb, step_order);
      for (CoreId c : step_order) {
        if (fault != nullptr) {
          // Consulted for every core, finished ones included: the fate
          // stream must not depend on which cores are done.
          const CoreFate fate = fault->core_fate(c, sb.holds_free(c));
          if (fate == CoreFate::kStopped) continue;  // fail-stop: no clock
          if (fate == CoreFate::kStall) {
            cores[c].note_fault_stall();
            last_change[c] = now;
            continue;
          }
        }
        if (core_done[c] != 0) continue;  // a finished core's step is a no-op
        cores[c].step(now);
        last_change[c] = now;
        if (cores[c].done()) {
          core_done[c] = 1;
          ++done_count;
        }
      }
      cores_halted = done_count == n;
      if (cores_halted) halted_at = now;
      // Table I: cycles during which the worklist is empty. Counted over
      // the parallel scan phase (after the start barrier released).
      if (!cores_halted && sb.barrier_generation() > start_gen &&
          sb.worklist_empty()) {
        ++stats.worklist_empty_cycles;
      }
    }
    if (obs != nullptr) obs->on_cycle_end(view(draining));
    ++now;
    if (cores_halted && (mem.stores_drained() ||
                         cfg_.coprocessor.skip_store_drain_for_test)) {
      break;  // flush complete (or deliberately defeated by a test)
    }
    if (now >= cfg_.coprocessor.watchdog_cycles) watchdog_abort();
  }
  } catch (const CollectionAbort& abort) {
    // Close the observation before propagating so the aborted attempt
    // still renders as a complete, labeled slice of the timeline.
    if (obs != nullptr) obs->on_collection_end(now, &abort);
    throw;
  }

  // "Restart the main processor": publish the compacted heap.
  const Addr free_final = sb.free();
  heap_.flip();
  heap_.set_alloc_ptr(free_final);
  if (obs != nullptr) obs->on_collection_end(now, nullptr);

  stats.total_cycles = now;
  stats.drain_cycles = now - halted_at;
  stats.restart_stores_drained = mem.stores_drained();
  stats.faults_fired = fault != nullptr ? fault->fired_this_attempt() : 0;
  stats.words_copied = free_final - tospace_base;
  stats.fifo_overflows = fifo.overflows();
  stats.fifo_hits = fifo.hits();
  stats.fifo_misses = fifo.misses();
  stats.mem_requests = mem.requests_issued();
  stats.lock_order_violations = sb.violations();
  stats.per_core.reserve(n);
  for (const auto& c : cores) {
    stats.per_core.push_back(c.counters());
    stats.objects_copied += c.counters().objects_evacuated;
    stats.pointers_forwarded += c.counters().pointers_processed;
  }
  return stats;
}

}  // namespace hwgc
