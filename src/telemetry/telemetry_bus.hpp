// TelemetryBus — the unified observability substrate (software counterpart
// of the prototype's Section VI-A monitoring framework, generalized).
//
// Every hardware module publishes *typed* events into one bus:
//   * the Coprocessor publishes collection phases (root evacuation /
//     parallel scan / store drain) and the flip,
//   * each GcCore publishes its per-cycle activity (busy / idle / stalled
//     with a StallReason), which the bus coalesces into spans,
//   * the SyncBlock publishes scan- and free-lock hold spans,
//   * the HeaderFifo publishes occupancy and overflow events,
//   * the MemorySystem publishes its in-flight transaction count,
//   * the fault/recovery layer publishes injected faults, aborts,
//     deconfigurations and fallbacks as instant events.
//
// Exporters (trace_export.hpp) turn the recorded events into a
// Chrome-trace/Perfetto timeline; the MetricsRegistry (metrics.hpp)
// aggregates the per-cycle statistics across collections and runs.
//
// The bus is a CycleObserver (sim/observer.hpp): attached to a collection
// it records; it never feeds back into simulated timing, so cycle counts
// are bit-identical with and without it (tested in
// tests/test_telemetry.cpp). It records every cycle's activity, so it does
// not absorb quiescent windows: with a bus attached the clock loop ticks.
//
// Time base: each collection runs its own clock from cycle 0. The bus maps
// collection-local cycles onto one monotone global timeline: a
// begin_collection() epoch starts where the previous collection ended, so
// multi-collection runs (Runtime churn, recovery retries) render as one
// continuous trace with every attempt visible.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/counters.hpp"
#include "sim/observer.hpp"
#include "sim/types.hpp"

namespace hwgc {

/// A duration event on one track, global cycles, half-open [begin, end).
struct TelemetrySpan {
  std::uint32_t track = 0;
  Cycle begin = 0;
  Cycle end = 0;
  TelemetryCategory cat = TelemetryCategory::kCore;
  std::string name;
};

/// A point event on one track.
struct TelemetryInstant {
  std::uint32_t track = 0;
  Cycle at = 0;
  TelemetryCategory cat = TelemetryCategory::kFault;
  std::string name;
};

/// A sample of a named counter series.
struct TelemetryCounter {
  std::uint32_t series = 0;
  Cycle at = 0;
  std::uint64_t value = 0;
};

/// One collection recorded on the bus (for labeling the timeline).
struct TelemetryEpoch {
  Cycle begin = 0;   ///< global cycle the collection's cycle 0 maps to
  Cycle end = 0;     ///< global cycle of the collection's last cycle + 1
  std::string label;
};

class TelemetryBus final : public CycleObserver {
 public:
  /// Records at most `max_events` spans, instants and counter samples in
  /// total; later ones are counted in dropped().
  explicit TelemetryBus(std::size_t max_events = std::size_t{1} << 20)
      : max_events_(max_events) {}

  // --- CycleObserver ------------------------------------------------------

  /// Opens an epoch labeled "collection (N cores)", interns the main
  /// tracks and counter series in canonical order and enters root
  /// evacuation at local cycle 0.
  void on_collection_begin(std::uint32_t cores) override;
  /// Closes the epoch: with an abort instant on the coprocessor track, or
  /// with the flip instant at `now`.
  void on_collection_end(Cycle now, const CollectionAbort* abort) override;
  /// Clock edge: stamps all events published during this simulated cycle.
  void on_cycle_begin(Cycle local) override { now_ = epoch_ + local; }
  /// Per-core per-cycle activity; consecutive same-state cycles coalesce
  /// into one span. A clock gap (a fail-stopped core missing its clock)
  /// closes the open span, so holes are visible in the timeline.
  void on_core_cycle(CoreId core, CoreActivity activity,
                     StallReason reason) override;
  /// A lock hold spans from its grant to its release (a same-cycle
  /// hand-off closes the previous holder's span).
  void on_lock(SbLock lock, CoreId core, bool acquired) override;
  /// Samples on change: a value equal to the series' previous sample in
  /// this collection is not recorded.
  void on_counter(std::string_view series, std::uint64_t value) override;
  /// Publishes the phase transitions and the gray-word counter.
  void on_cycle_end(const CycleView& view) override;
  /// An instant on the category's track ("faults", "recovery",
  /// "header-fifo"), stamped with the current cycle.
  void on_note(Cycle at, TelemetryCategory cat, std::string_view text,
               std::string_view where) override;

  // --- time base ----------------------------------------------------------

  /// Opens a new collection epoch: the collection's local cycle 0 maps to
  /// the first free global cycle. Safe to call repeatedly (recovery runs
  /// one epoch per attempt).
  void begin_collection(std::string label);

  /// Closes the epoch at local cycle `local_end`: flushes every open core,
  /// lock and phase span and advances the global cursor.
  void end_collection(Cycle local_end);

  // --- track / counter-series interning ------------------------------------

  std::uint32_t track(std::string_view name);
  std::uint32_t counter_series(std::string_view name);
  std::uint32_t core_track(CoreId core);

  const std::vector<std::string>& track_names() const noexcept {
    return track_names_;
  }
  const std::vector<std::string>& counter_names() const noexcept {
    return counter_names_;
  }

  // --- publishers ----------------------------------------------------------

  /// Phase transition at the current cycle; closes the previous phase.
  void phase(GcPhase p);

  void instant(std::uint32_t track_id, TelemetryCategory cat,
               std::string name);
  void counter_sample(std::uint32_t series, std::uint64_t value);

  // --- recorded data (exporter interface) ----------------------------------

  const std::vector<TelemetrySpan>& spans() const noexcept { return spans_; }
  const std::vector<TelemetryInstant>& instants() const noexcept {
    return instants_;
  }
  const std::vector<TelemetryCounter>& counters() const noexcept {
    return counters_;
  }
  const std::vector<TelemetryEpoch>& epochs() const noexcept {
    return epochs_;
  }

  /// Events discarded after the max_events cap was hit (never silently:
  /// exporters surface this number).
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  struct OpenCoreSpan {
    bool open = false;
    CoreActivity activity = CoreActivity::kBusy;
    StallReason reason = StallReason::kNone;
    Cycle begin = 0;
    Cycle last = 0;
  };
  struct OpenLockSpan {
    bool open = false;
    CoreId owner = kNoCore;
    Cycle begin = 0;
  };
  struct OpenPhaseSpan {
    bool open = false;
    GcPhase phase = GcPhase::kRootEvacuation;
    Cycle begin = 0;
  };

  bool room() noexcept {
    if (spans_.size() + instants_.size() + counters_.size() < max_events_) {
      return true;
    }
    ++dropped_;
    return false;
  }

  void push_span(std::uint32_t track_id, Cycle begin, Cycle end,
                 TelemetryCategory cat, std::string name);
  void close_core_span(CoreId core);
  void close_lock_span(SbLock lock);
  void close_phase_span(Cycle end);

  static std::string activity_name(CoreActivity a, StallReason r);

  std::size_t max_events_;
  Cycle epoch_ = 0;   ///< global cycle local 0 of the current epoch maps to
  Cycle cursor_ = 0;  ///< first free global cycle after everything recorded
  Cycle now_ = 0;

  std::vector<std::string> track_names_;
  std::vector<std::string> counter_names_;
  std::vector<std::uint32_t> core_tracks_;  ///< core id -> track id (+1; 0 = none)

  std::vector<TelemetrySpan> spans_;
  std::vector<TelemetryInstant> instants_;
  std::vector<TelemetryCounter> counters_;
  std::vector<TelemetryEpoch> epochs_;
  std::uint64_t dropped_ = 0;

  std::vector<OpenCoreSpan> open_cores_;
  OpenLockSpan open_locks_[2];
  OpenPhaseSpan open_phase_;
  std::uint32_t phase_track_ = 0;  ///< +1; 0 = not yet interned

  // Per-collection observer state.
  std::vector<std::uint64_t> last_sample_;  ///< series id -> last value
  bool scan_phase_ = false;  ///< parallel-scan published this collection
};

}  // namespace hwgc
