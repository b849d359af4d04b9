// CycleObserver — the one observation seam of the coprocessor clock loop,
// the software counterpart of the prototype's monitoring framework
// (Section VI-A: up to 32 internal signals traced every clock cycle).
//
// Every hardware module that has something to show holds one
// CycleObserver* and publishes through it: the Coprocessor opens and
// closes each collection, stamps every clock edge and shows an
// end-of-cycle view; each GcCore reports its cycle class; the SyncBlock
// its lock holds; the HeaderFifo and the MemorySystem their counters; the
// fault and recovery layer their notes. Recorders implement the hooks they
// care about — SignalTrace (sim/trace.hpp), ScheduleTrace
// (core/schedule_policy.hpp), TelemetryBus (telemetry/telemetry_bus.hpp)
// and CycleProfiler (profile/cycle_profiler.hpp) — and ObserverFanout
// feeds several at once.
//
// Pure observation: no hook feeds back into simulated timing, and the
// clock loop builds the view from pure reads (an injected stuck-at-1 busy
// bit is shown only once latched; observing never fires a fault).
//
// Pay-for-use: with no observer attached the clock loop makes no virtual
// call, and each core-cycle costs one null test.
//
// Quiescent fast-forward (DESIGN.md §13) has one rule: the clock loop may
// jump a quiescent window only when no observer is attached or the
// attached one absorbs_windows(). Such an observer gets the window in one
// on_window() call instead of k cycle-begin/end pairs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "sim/counters.hpp"
#include "sim/types.hpp"

namespace hwgc {

class CollectionAbort;

/// Collection phases published by the coprocessor clock loop.
enum class GcPhase : std::uint8_t { kRootEvacuation, kParallelScan, kDrain };

constexpr const char* to_string(GcPhase p) noexcept {
  switch (p) {
    case GcPhase::kRootEvacuation: return "root-evacuation";
    case GcPhase::kParallelScan: return "parallel-scan";
    case GcPhase::kDrain: return "drain";
  }
  return "?";
}

/// What a core did during one clock cycle (kStall carries a StallReason).
enum class CoreActivity : std::uint8_t { kBusy, kIdle, kStall };

/// The two SB registers whose hold spans are traced.
enum class SbLock : std::uint8_t { kScan = 0, kFree = 1 };

constexpr const char* to_string(SbLock l) noexcept {
  return l == SbLock::kScan ? "scan-lock" : "free-lock";
}

/// Event category, carried into the exported trace's `cat` field.
enum class TelemetryCategory : std::uint8_t {
  kPhase,
  kCore,
  kLock,
  kFifo,
  kMemory,
  kFault,
  kRecovery,
  kRuntime,
};

constexpr const char* to_string(TelemetryCategory c) noexcept {
  switch (c) {
    case TelemetryCategory::kPhase: return "phase";
    case TelemetryCategory::kCore: return "core";
    case TelemetryCategory::kLock: return "lock";
    case TelemetryCategory::kFifo: return "fifo";
    case TelemetryCategory::kMemory: return "memory";
    case TelemetryCategory::kFault: return "fault";
    case TelemetryCategory::kRecovery: return "recovery";
    case TelemetryCategory::kRuntime: return "runtime";
  }
  return "?";
}

/// The coprocessor's state after one clock cycle (or, for on_window, at
/// the start of a quiescent window, constant across it).
struct CycleView {
  Cycle now = 0;
  /// Store-drain cycle: every core had halted before it began, so only
  /// the memory system was clocked and the fields below are unchanged.
  bool draining = false;
  /// kDrain once every core has halted, kParallelScan once the start
  /// barrier has released, kRootEvacuation before.
  GcPhase phase = GcPhase::kRootEvacuation;
  Addr scan = 0;
  Addr free = 0;
  /// ScanState bits reading busy: architectural, or a latched stuck-at-1.
  std::uint32_t busy_cores = 0;
  std::span<const CoreId> step_order;
};

class CycleObserver {
 public:
  virtual ~CycleObserver() = default;

  /// True when a quiescent window may be handed over in one on_window()
  /// call. False (the default) keeps the clock loop ticking every cycle.
  virtual bool absorbs_windows() const { return false; }

  /// A coprocessor collection attempt starts on `cores` cores.
  virtual void on_collection_begin(std::uint32_t /*cores*/) {}

  /// The attempt ends at local cycle `now`: flipped when `abort` is null,
  /// otherwise aborted by it (the exception propagates afterwards).
  virtual void on_collection_end(Cycle /*now*/,
                                 const CollectionAbort* /*abort*/) {}

  /// Clock edge: every event until the next edge happens in cycle `now`.
  virtual void on_cycle_begin(Cycle /*now*/) {}

  /// One stepped core's cycle (exactly one per stepped core per cycle, or
  /// per core clocked through a window).
  virtual void on_core_cycle(CoreId /*core*/, CoreActivity /*activity*/,
                             StallReason /*reason*/) {}

  /// A scan-/free-lock grant (`acquired`) or release.
  virtual void on_lock(SbLock /*lock*/, CoreId /*core*/,
                       bool /*acquired*/) {}

  /// A sample of the named counter (FIFO depth and overflows, memory
  /// transactions in flight). Published freely; recorders keep changes.
  virtual void on_counter(std::string_view /*series*/,
                          std::uint64_t /*value*/) {}

  /// End of one clock cycle.
  virtual void on_cycle_end(const CycleView& /*view*/) {}

  /// `k` quiescent cycles starting at view.now, jumped in one step. Every
  /// clocked core reported its class once through on_core_cycle since the
  /// last cycle end, and keeps it throughout. Only called when
  /// absorbs_windows().
  virtual void on_window(const CycleView& /*view*/, Cycle /*k*/) {}

  /// A timestamped annotation: an injected fault, a recovery step, a FIFO
  /// overflow. `at` is the publisher's clock (the fault's cycle, the
  /// aborted attempt's last cycle; 0 from the unclocked FIFO and the
  /// fallback). `where` is the fault log's position prefix ("attempt 0
  /// cycle 103"), empty for the other notes.
  virtual void on_note(Cycle /*at*/, TelemetryCategory /*cat*/,
                       std::string_view /*text*/,
                       std::string_view /*where*/) {}
};

/// Feeds several observers as one. target() is what a caller attaches:
/// null with none, the observer itself with one, the fan-out otherwise —
/// so a single recorder is called directly.
class ObserverFanout final : public CycleObserver {
 public:
  /// Adds `obs` (ignored when null).
  void add(CycleObserver* obs) {
    if (obs != nullptr) obs_.push_back(obs);
  }

  CycleObserver* target() noexcept {
    if (obs_.empty()) return nullptr;
    return obs_.size() == 1 ? obs_.front() : this;
  }

  bool absorbs_windows() const override {
    return std::all_of(obs_.begin(), obs_.end(),
                       [](const auto* o) { return o->absorbs_windows(); });
  }
  void on_collection_begin(std::uint32_t cores) override {
    for (auto* o : obs_) o->on_collection_begin(cores);
  }
  void on_collection_end(Cycle now, const CollectionAbort* abort) override {
    for (auto* o : obs_) o->on_collection_end(now, abort);
  }
  void on_cycle_begin(Cycle now) override {
    for (auto* o : obs_) o->on_cycle_begin(now);
  }
  void on_core_cycle(CoreId c, CoreActivity a, StallReason r) override {
    for (auto* o : obs_) o->on_core_cycle(c, a, r);
  }
  void on_lock(SbLock lock, CoreId c, bool acquired) override {
    for (auto* o : obs_) o->on_lock(lock, c, acquired);
  }
  void on_counter(std::string_view series, std::uint64_t v) override {
    for (auto* o : obs_) o->on_counter(series, v);
  }
  void on_cycle_end(const CycleView& v) override {
    for (auto* o : obs_) o->on_cycle_end(v);
  }
  void on_window(const CycleView& v, Cycle k) override {
    for (auto* o : obs_) o->on_window(v, k);
  }
  void on_note(Cycle at, TelemetryCategory cat, std::string_view text,
               std::string_view where) override {
    for (auto* o : obs_) o->on_note(at, cat, text, where);
  }

 private:
  std::vector<CycleObserver*> obs_;
};

}  // namespace hwgc
