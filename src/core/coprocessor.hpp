// The multi-core garbage-collection coprocessor (paper Figure 2).
//
// Owns the per-collection hardware state — Synchronization Block, memory
// access scheduler and header FIFO — instantiates N GC cores and clocks
// them to completion of one collection cycle. The "main processor" is
// stopped for the duration of the cycle (Section V-B); its root registers
// are the heap's root vector.
//
// A cycle runs:
//   1. scan/free initialized to the tospace base (Core 1's job, V-E);
//   2. core 0 evacuates all root-referenced objects;
//   3. start barrier releases every core into the parallel scan loop;
//   4. each core observes scan == free with all busy bits clear and halts;
//   5. the coprocessor waits until every store buffer has drained, then
//      "restarts the main processor": flips the heap and publishes the
//      final free pointer as the new allocation frontier.
#pragma once

#include <cstdint>

#include "heap/heap.hpp"
#include "sim/config.hpp"
#include "sim/counters.hpp"
#include "sim/types.hpp"

namespace hwgc {

class CycleObserver;
class FaultInjector;

class Coprocessor {
 public:
  Coprocessor(const SimConfig& cfg, Heap& heap)
      : cfg_(cfg), heap_(heap) {}

  /// Runs one complete collection cycle on the attached heap and returns
  /// its statistics. The heap must hold the live graph in its current
  /// space; afterwards the graph lives compacted in the flipped space and
  /// the roots are redirected.
  ///
  /// Throws CollectionAbort (a std::runtime_error) when a detector trips:
  /// watchdog expiry, header checksum mismatch, wild access/pointer or
  /// evacuation overflow. Without fault injection the algorithm is
  /// deadlock-free by lock ordering, so an abort indicates a modeling bug;
  /// under injection the recovery layer (src/fault/recovery.hpp) catches
  /// the abort and retries.
  ///
  /// Cores are stepped each cycle in the order produced by the configured
  /// SchedulePolicy (cfg.coprocessor.schedule; fixed index order — the
  /// prototype's static prioritization — by default).
  ///
  /// `obs`, when non-null, is the cycle's one observation seam
  /// (sim/observer.hpp): every module built for the cycle publishes to it
  /// — SignalTrace, ScheduleTrace, TelemetryBus and CycleProfiler are the
  /// recorders; ObserverFanout attaches several. Pure observation:
  /// simulated cycle counts are identical with and without it. Quiescent
  /// windows are fast-forwarded only while obs is null or
  /// obs->absorbs_windows().
  ///
  /// `fault`, when non-null, is threaded through to the SyncBlock and the
  /// memory scheduler and consulted for each core's fate every cycle; the
  /// caller (normally RecoveringCollector) must have called begin_attempt.
  /// Its fired events are noted to `obs`.
  GcCycleStats collect(CycleObserver* obs = nullptr,
                       FaultInjector* fault = nullptr);

  const SimConfig& config() const noexcept { return cfg_; }

 private:
  SimConfig cfg_;
  Heap& heap_;
};

}  // namespace hwgc
