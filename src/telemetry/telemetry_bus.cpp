#include "telemetry/telemetry_bus.hpp"

#include <algorithm>
#include <utility>

#include "sim/abort.hpp"

namespace hwgc {

void TelemetryBus::on_collection_begin(std::uint32_t cores) {
  begin_collection("collection (" + std::to_string(cores) + " cores)");
  // Intern the main tracks in canonical order so exports list the
  // coprocessor first, then the cores, then the shared locks —
  // independent of which module happens to publish first.
  (void)track("coprocessor");
  for (CoreId id = 0; id < cores; ++id) (void)core_track(id);
  (void)track(to_string(SbLock::kScan));
  (void)track(to_string(SbLock::kFree));
  for (const char* series : {"gray_words", "fifo_depth", "mem_inflight"}) {
    (void)counter_series(series);
  }
  last_sample_.assign(counter_names_.size(), ~std::uint64_t{0});
  scan_phase_ = false;
  on_cycle_begin(0);
  phase(GcPhase::kRootEvacuation);
}

void TelemetryBus::on_collection_end(Cycle now, const CollectionAbort* abort) {
  if (abort != nullptr) {
    instant(track("coprocessor"), TelemetryCategory::kFault,
            std::string("abort [") + to_string(abort->reason()) +
                "]: " + abort->what());
  } else {
    on_cycle_begin(now);
    instant(track("coprocessor"), TelemetryCategory::kPhase, "flip");
  }
  end_collection(now);
}

void TelemetryBus::on_counter(std::string_view series, std::uint64_t value) {
  const std::uint32_t id = counter_series(series);
  if (id >= last_sample_.size()) last_sample_.resize(id + 1, ~std::uint64_t{0});
  if (last_sample_[id] == value) return;
  last_sample_[id] = value;
  counter_sample(id, value);
}

void TelemetryBus::on_cycle_end(const CycleView& v) {
  if (v.draining) return;
  if (!scan_phase_ && v.phase != GcPhase::kRootEvacuation) {
    scan_phase_ = true;
    phase(GcPhase::kParallelScan);
  }
  if (v.phase == GcPhase::kDrain) phase(GcPhase::kDrain);
  on_counter("gray_words", v.free - v.scan);
}

void TelemetryBus::on_note(Cycle /*at*/, TelemetryCategory cat,
                           std::string_view text, std::string_view /*where*/) {
  const char* name = cat == TelemetryCategory::kFault      ? "faults"
                     : cat == TelemetryCategory::kRecovery ? "recovery"
                     : cat == TelemetryCategory::kFifo     ? "header-fifo"
                                                           : to_string(cat);
  instant(track(name), cat, std::string(text));
}

void TelemetryBus::begin_collection(std::string label) {
  epoch_ = cursor_;
  now_ = epoch_;
  TelemetryEpoch e;
  e.begin = epoch_;
  e.end = epoch_;
  e.label = std::move(label);
  epochs_.push_back(std::move(e));
}

void TelemetryBus::end_collection(Cycle local_end) {
  const Cycle global_end = epoch_ + local_end;
  for (CoreId c = 0; c < open_cores_.size(); ++c) close_core_span(c);
  close_lock_span(SbLock::kScan);
  close_lock_span(SbLock::kFree);
  close_phase_span(global_end);
  if (!epochs_.empty()) epochs_.back().end = global_end;
  // One idle cycle of daylight between collections keeps adjacent epochs
  // visually separable in the exported timeline.
  cursor_ = global_end + 1;
  now_ = cursor_;
}

void TelemetryBus::on_core_cycle(CoreId core, CoreActivity activity,
                                 StallReason reason) {
  if (core >= open_cores_.size()) open_cores_.resize(core + 1);
  OpenCoreSpan& st = open_cores_[core];
  if (st.open && st.activity == activity && st.reason == reason &&
      now_ == st.last + 1) {
    st.last = now_;
    return;
  }
  close_core_span(core);
  st.open = true;
  st.activity = activity;
  st.reason = reason;
  st.begin = now_;
  st.last = now_;
}

void TelemetryBus::phase(GcPhase p) {
  close_phase_span(now_);
  open_phase_.open = true;
  open_phase_.phase = p;
  open_phase_.begin = now_;
}

void TelemetryBus::on_lock(SbLock lock, CoreId core, bool acquired) {
  OpenLockSpan& st = open_locks_[static_cast<std::size_t>(lock)];
  if (!acquired) {
    if (st.open && st.owner == core) close_lock_span(lock);
    return;
  }
  if (st.open) close_lock_span(lock);  // same-cycle hand-off
  st.open = true;
  st.owner = core;
  st.begin = now_;
}

void TelemetryBus::instant(std::uint32_t track_id, TelemetryCategory cat,
                           std::string name) {
  if (!room()) return;
  TelemetryInstant e;
  e.track = track_id;
  e.at = now_;
  e.cat = cat;
  e.name = std::move(name);
  instants_.push_back(std::move(e));
}

void TelemetryBus::counter_sample(std::uint32_t series, std::uint64_t value) {
  if (!room()) return;
  counters_.push_back(TelemetryCounter{series, now_, value});
}

namespace {

/// Index of `name` in `names`, appended on first use.
std::uint32_t intern(std::vector<std::string>& names, std::string_view name) {
  const auto it = std::find(names.begin(), names.end(), name);
  const auto index = static_cast<std::uint32_t>(it - names.begin());
  if (it == names.end()) names.emplace_back(name);
  return index;
}

}  // namespace

std::uint32_t TelemetryBus::track(std::string_view name) {
  return intern(track_names_, name);
}

std::uint32_t TelemetryBus::counter_series(std::string_view name) {
  return intern(counter_names_, name);
}

std::uint32_t TelemetryBus::core_track(CoreId core) {
  if (core >= core_tracks_.size()) core_tracks_.resize(core + 1, 0);
  if (core_tracks_[core] == 0) {
    core_tracks_[core] = track("core " + std::to_string(core)) + 1;
  }
  return core_tracks_[core] - 1;
}

void TelemetryBus::push_span(std::uint32_t track_id, Cycle begin, Cycle end,
                             TelemetryCategory cat, std::string name) {
  if (!room()) return;
  TelemetrySpan s;
  s.track = track_id;
  s.begin = begin;
  s.end = end;
  s.cat = cat;
  s.name = std::move(name);
  spans_.push_back(std::move(s));
}

void TelemetryBus::close_core_span(CoreId core) {
  if (core >= open_cores_.size()) return;
  OpenCoreSpan& st = open_cores_[core];
  if (!st.open) return;
  st.open = false;
  push_span(core_track(core), st.begin, st.last + 1, TelemetryCategory::kCore,
            activity_name(st.activity, st.reason));
}

void TelemetryBus::close_lock_span(SbLock lock) {
  OpenLockSpan& st = open_locks_[static_cast<std::size_t>(lock)];
  if (!st.open) return;
  st.open = false;
  // A hold acquired and released within one cycle still spans that cycle.
  push_span(track(to_string(lock)), st.begin, now_ + 1,
            TelemetryCategory::kLock,
            "held by core " + std::to_string(st.owner));
}

void TelemetryBus::close_phase_span(Cycle end) {
  if (!open_phase_.open) return;
  open_phase_.open = false;
  if (phase_track_ == 0) phase_track_ = track("coprocessor") + 1;
  push_span(phase_track_ - 1, open_phase_.begin, end, TelemetryCategory::kPhase,
            to_string(open_phase_.phase));
}

std::string TelemetryBus::activity_name(CoreActivity a, StallReason r) {
  switch (a) {
    case CoreActivity::kBusy: return "busy";
    case CoreActivity::kIdle: return "idle";
    case CoreActivity::kStall: return "stall:" + std::string(to_string(r));
  }
  return "?";
}

}  // namespace hwgc
