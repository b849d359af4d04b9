// CycleProfiler — per-cycle stall attribution for one collection cycle
// (the tentpole of the observability work; DESIGN.md §15).
//
// The profiler is a CycleObserver (sim/observer.hpp): GcCore's three-way
// work()/stall()/idle() accounting publishes each stepped core's cycle
// class, and the Coprocessor clock loop closes every cycle — folding
// unstepped cores (done, fail-stopped, drain window) into
// idle-deconfigured, so the attribution is *exhaustive*: for every core,
// the per-class totals sum to the collection's elapsed cycles exactly.
//
// On top of the per-core totals the profiler keeps a per-cycle *binding
// class* — which resource bound that cycle — as a run-length-encoded
// stream (profile.segments). The rule, a pure function of the cycle's
// class multiset:
//   * if any core computed, the cycle advanced the collection: kCompute;
//   * otherwise the most-populous class among clocked cores binds (ties
//     break toward the smaller enum value, i.e. the scan lock outranks
//     memory);
//   * a cycle with no clocked core at all is idle-deconfigured — except
//     the store-drain window, which is bound by the memory ports
//     (drain_cycle(): the only thing the coprocessor is waiting on is
//     its store buffers).
// The critical path of a collection is this binding stream (see
// profile/critical_path.hpp for the walker and the validator).
//
// The profiler absorbs quiescent windows: during one every core's class
// is constant by construction, so the window is applied in bulk through
// on_window() and the resulting profile is bit-identical to a
// ticked run (tests/test_profile.cpp proves it).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "profile/stall_class.hpp"
#include "sim/counters.hpp"
#include "sim/observer.hpp"
#include "sim/types.hpp"

namespace hwgc {

/// Attribution of one collection cycle. `valid` is false for collections
/// that never ran on the coprocessor (the recovery ladder's sequential
/// software fallback) — such entries keep profile history aligned with
/// gc_history but carry no cycle data.
struct CycleProfile {
  using ClassTotals = std::array<Cycle, kStallClassCount>;

  /// One maximal run of cycles with the same binding class.
  struct Segment {
    Cycle begin = 0;
    Cycle length = 0;
    StallClass binding = StallClass::kIdleDeconfigured;
    bool operator==(const Segment&) const = default;
  };

  std::uint32_t cores = 0;
  Cycle total_cycles = 0;
  bool valid = false;
  std::vector<ClassTotals> per_core;  ///< [core][class] cycle totals
  ClassTotals critical{};             ///< cycles each class was binding
  std::vector<Segment> segments;      ///< RLE binding stream, tiles [0, total)

  bool operator==(const CycleProfile&) const = default;

  /// Sum of one class across all cores.
  Cycle cls_total(StallClass c) const noexcept {
    Cycle sum = 0;
    for (const auto& pc : per_core) sum += pc[static_cast<std::size_t>(c)];
    return sum;
  }

  /// Denominator of attribution shares: cores x elapsed cycles.
  Cycle core_cycles() const noexcept {
    return static_cast<Cycle>(per_core.size()) * total_cycles;
  }

  /// The collection's binding resource: the class that was binding for
  /// the most cycles (ties toward the smaller enum value).
  StallClass binding() const noexcept {
    std::size_t best = 0;
    for (std::size_t i = 1; i < kStallClassCount; ++i) {
      if (critical[i] > critical[best]) best = i;
    }
    return static_cast<StallClass>(best);
  }

  /// Fraction of cycles bound by binding() (0 for an empty profile).
  double binding_share() const noexcept {
    if (total_cycles == 0) return 0.0;
    return static_cast<double>(
               critical[static_cast<std::size_t>(binding())]) /
           static_cast<double>(total_cycles);
  }
};

class CycleProfiler final : public CycleObserver {
 public:
  /// Resets all state for a fresh collection attempt on `cores` cores.
  /// Every coprocessor attempt starts with this, so an aborted attempt's
  /// partial attribution is discarded and only the final, successful
  /// attempt's profile survives.
  void begin_collection(std::uint32_t cores);

  // --- CycleObserver ------------------------------------------------------

  bool absorbs_windows() const override { return true; }
  void on_collection_begin(std::uint32_t cores) override {
    begin_collection(cores);
  }
  void on_collection_end(Cycle /*now*/,
                         const CollectionAbort* abort) override {
    if (abort == nullptr) end_collection();
  }
  /// Exactly one per stepped core per cycle.
  void on_core_cycle(CoreId c, CoreActivity a, StallReason r) override {
    cur_[c] = a == CoreActivity::kBusy   ? StallClass::kCompute
              : a == CoreActivity::kIdle ? StallClass::kWorklistStarved
                                         : class_of(r);
    seen_[c] = 1;
  }
  void on_cycle_end(const CycleView& v) override { on_window(v, 1); }
  /// A quiescent window is k copies of one cycle: every core keeps the
  /// class it reported, so it closes exactly like k single cycles.
  void on_window(const CycleView& v, Cycle k) override {
    v.draining ? drain_cycle(k) : end_cycle(k);
  }

  // --- cycle closing --------------------------------------------------------
  /// Closes `k` live (core-stepping) cycles with this cycle's reports:
  /// cores that did not report are charged idle-deconfigured, the binding
  /// class is computed and the RLE stream extended.
  void end_cycle(Cycle k = 1);

  /// Closes `k` store-drain cycles (all cores halted): every core is
  /// idle-deconfigured and the memory ports bind.
  void drain_cycle(Cycle k = 1);

  /// Finalizes the profile of a completed collection.
  void end_collection() { profile_.valid = true; }

  /// Marks the collection as not coprocessor-profiled (recovery's
  /// sequential fallback): the profile stays invalid and empty of cycles.
  void mark_unprofiled() {
    begin_collection(0);
    profile_.valid = false;
  }

  CycleProfile take_profile() { return std::move(profile_); }

 private:
  /// Adds `k` cycles bound by `b` to the critical totals + RLE stream.
  void commit(StallClass b, Cycle k);

  CycleProfile profile_;
  std::vector<StallClass> cur_;
  std::vector<std::uint8_t> seen_;
};

}  // namespace hwgc
