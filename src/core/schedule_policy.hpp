// Pluggable per-cycle core step order.
//
// Within one clock cycle the simulator steps every core once; because the
// SB's per-cycle acquisition budgets make the first core to claim a lock
// win, the step order IS the arbitration policy. The prototype hard-wires
// static prioritization (lower index wins), which kFixedPriority
// reproduces. The other policies explore alternative interleavings of the
// scan/free/header protocol: a correct algorithm must produce the same
// live graph under every one of them (the property the fuzz harness in
// src/fuzz/ checks), the same way NB-FEB and SynCron validate their
// primitives against many executions of a sequential specification.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/sync_block.hpp"
#include "sim/config.hpp"
#include "sim/observer.hpp"
#include "sim/types.hpp"

namespace hwgc {

class SchedulePolicy {
 public:
  virtual ~SchedulePolicy() = default;

  /// Writes the permutation of core ids to step this cycle into `out`.
  /// Called once per clock, after begin_cycle() and before any core steps;
  /// `sb` exposes the lock ownership left by the previous cycle.
  virtual void order(Cycle now, const SyncBlock& sb,
                     std::vector<CoreId>& out) = 0;
};

/// Builds the policy for `kind`. `seed` feeds the kRandom permutation
/// stream and is ignored by the deterministic policies.
std::unique_ptr<SchedulePolicy> make_schedule_policy(SchedulePolicyKind kind,
                                                     std::uint64_t seed);

/// Every policy, in enum order.
std::vector<SchedulePolicyKind> all_schedule_policies();

/// Parses a policy name ("fixed", "rotating", "random", "adversarial") as
/// printed by to_string(SchedulePolicyKind); nullopt on junk.
std::optional<SchedulePolicyKind> parse_schedule_policy(const std::string& name);

/// Bounded ring of the most recent step orders. The fuzz driver attaches
/// one to Coprocessor::collect (as its CycleObserver) and prints it when
/// the differential oracle fails, so the interleaving that produced the
/// failure can be read off. Records one entry per core-stepping cycle.
class ScheduleTrace final : public CycleObserver {
 public:
  explicit ScheduleTrace(std::size_t capacity = 64) : capacity_(capacity) {}

  void record(Cycle now, std::span<const CoreId> order) {
    ++recorded_;
    if (ring_.size() >= capacity_) ring_.pop_front();
    ring_.emplace_back(now, std::vector<CoreId>(order.begin(), order.end()));
  }

  /// Equivalent of `count` consecutive record() calls for cycles
  /// [first, first+count) that all step the same `order` — the fast-forward
  /// path's way of keeping the ring and the recorded count bit-identical
  /// to a ticked run without materializing the skipped cycles.
  void record_repeated(Cycle first, Cycle count,
                       std::span<const CoreId> order) {
    const std::uint64_t before = recorded_;
    Cycle i = count > capacity_ ? count - capacity_ : 0;
    for (; i < count; ++i) record(first + i, order);
    recorded_ = before + count;
  }

  // --- CycleObserver ------------------------------------------------------

  bool absorbs_windows() const override { return true; }
  void on_cycle_end(const CycleView& v) override {
    if (!v.draining) record(v.now, v.step_order);
  }
  void on_window(const CycleView& v, Cycle k) override {
    if (!v.draining) record_repeated(v.now, k, v.step_order);
  }

  std::uint64_t cycles_recorded() const noexcept { return recorded_; }
  const std::deque<std::pair<Cycle, std::vector<CoreId>>>& orders() const {
    return ring_;
  }

  /// Human-readable tail of the schedule, one line per cycle:
  /// "cycle 1234: 3 0 1 2".
  std::string dump() const;

 private:
  std::size_t capacity_;
  std::deque<std::pair<Cycle, std::vector<CoreId>>> ring_;
  std::uint64_t recorded_ = 0;
};

}  // namespace hwgc
