#include "profile/cycle_profiler.hpp"

namespace hwgc {

namespace {

/// Binding class of one cycle, from the per-class population of clocked
/// cores. Pure, so the ticked and fast-forward paths cannot diverge.
StallClass binding_of(const std::array<std::uint32_t, kStallClassCount>& pop,
                      std::uint32_t clocked) {
  if (pop[static_cast<std::size_t>(StallClass::kCompute)] > 0) {
    return StallClass::kCompute;
  }
  if (clocked == 0) return StallClass::kIdleDeconfigured;
  std::size_t best = 0;
  std::uint32_t best_pop = 0;
  for (std::size_t i = 0; i < kStallClassCount; ++i) {
    if (i == static_cast<std::size_t>(StallClass::kIdleDeconfigured)) continue;
    if (pop[i] > best_pop) {
      best_pop = pop[i];
      best = i;
    }
  }
  return static_cast<StallClass>(best);
}

}  // namespace

void CycleProfiler::begin_collection(std::uint32_t cores) {
  profile_ = CycleProfile{};
  profile_.cores = cores;
  profile_.per_core.assign(cores, CycleProfile::ClassTotals{});
  cur_.assign(cores, StallClass::kIdleDeconfigured);
  seen_.assign(cores, 0);
}

void CycleProfiler::commit(StallClass b, Cycle k) {
  profile_.critical[static_cast<std::size_t>(b)] += k;
  if (!profile_.segments.empty() && profile_.segments.back().binding == b) {
    profile_.segments.back().length += k;
  } else {
    profile_.segments.push_back({profile_.total_cycles, k, b});
  }
  profile_.total_cycles += k;
}

void CycleProfiler::end_cycle(Cycle k) {
  std::array<std::uint32_t, kStallClassCount> pop{};
  std::uint32_t clocked = 0;
  for (std::size_t c = 0; c < cur_.size(); ++c) {
    const StallClass cls =
        seen_[c] != 0 ? cur_[c] : StallClass::kIdleDeconfigured;
    clocked += seen_[c] != 0 ? 1u : 0u;
    seen_[c] = 0;
    profile_.per_core[c][static_cast<std::size_t>(cls)] += k;
    ++pop[static_cast<std::size_t>(cls)];
  }
  commit(binding_of(pop, clocked), k);
}

void CycleProfiler::drain_cycle(Cycle k) {
  constexpr auto kDeconf =
      static_cast<std::size_t>(StallClass::kIdleDeconfigured);
  for (auto& pc : profile_.per_core) pc[kDeconf] += k;
  commit(StallClass::kMemPort, k);
}

}  // namespace hwgc
