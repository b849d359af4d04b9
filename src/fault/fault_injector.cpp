#include "fault/fault_injector.hpp"

#include "heap/word_memory.hpp"
#include "sim/observer.hpp"

namespace hwgc {

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), state_(plan_.events.size()) {}

void FaultInjector::begin_attempt(std::uint32_t attempt,
                                  const std::vector<CoreId>& active_physical) {
  attempt_ = attempt;
  logical_to_physical_ = active_physical;
  fired_attempt_ = 0;
  now_ = 0;
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    EventState& s = state_[i];
    s.matches = 0;
    s.latched = false;
    // A transient fires at most once over the whole collection; a hard
    // fault re-arms every attempt. Either way the event stays dormant when
    // its physical core has been deconfigured out of the active set.
    bool target_active = false;
    for (CoreId p : active_physical) target_active |= (p == e.target_core);
    s.armed = target_active && (e.persistent || !s.fired_ever);
  }
}

void FaultInjector::fire(std::size_t i) {
  EventState& s = state_[i];
  s.armed = false;
  s.fired_ever = true;
  ++fired_total_;
  ++fired_attempt_;
  const std::string where = "attempt " + std::to_string(attempt_) +
                            " cycle " + std::to_string(now_);
  const std::string what = plan_.events[i].summary();
  log_.push_back(where + ": " + what);
  if (obs_ != nullptr) {
    obs_->on_note(now_, TelemetryCategory::kFault, what, where);
  }
}

MemFaultAction FaultInjector::on_mem_accept(CoreId logical, Port port,
                                            MemOp op, Addr addr) {
  MemFaultAction action;
  if (logical >= logical_to_physical_.size()) return action;
  const CoreId physical = logical_to_physical_[logical];
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    if (!is_mem_fault(e.kind) || e.target_core != physical ||
        e.port != port || e.op != op) {
      continue;
    }
    EventState& s = state_[i];
    if (!s.armed) continue;
    if (s.matches++ != e.trigger) continue;
    switch (e.kind) {
      case FaultKind::kMemDrop:
        action.kind = MemFaultAction::Kind::kDrop;
        break;
      case FaultKind::kMemDuplicate:
        // Duplicates of loads are absorbed by the split-transaction
        // protocol (a second reply to a free buffer is ignored); only a
        // duplicated store has an architectural effect.
        if (op == MemOp::kStore && mem_ != nullptr) {
          action.kind = MemFaultAction::Kind::kDuplicate;
          action.replay_value = mem_->load(addr);
          action.ghost_lag = e.param;
        }
        break;
      case FaultKind::kMemDelay:
        action.extra_delay += e.param;
        break;
      case FaultKind::kMemCorrupt:
        if (mem_ != nullptr) mem_->corrupt(addr, e.bit);
        break;
      default:
        break;
    }
    fire(i);
  }
  return action;
}

void FaultInjector::on_ghost_store_retire(Addr addr, Word value) {
  // The duplicated store arrives a second time carrying the value it was
  // accepted with — resurrecting a stale word if the location has been
  // overwritten since. It goes through store(), so the ECC shadow matches:
  // ECC cannot catch a well-formed duplicate, only the verifier can.
  if (mem_ != nullptr) mem_->store(addr, value);
}

bool FaultInjector::lock_grant_suppressed(LockKind lock) {
  bool suppressed = false;
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    if (e.kind != FaultKind::kLockDelay || e.lock != lock) continue;
    EventState& s = state_[i];
    if (now_ < e.trigger || now_ >= e.trigger + e.param) continue;
    if (s.armed) {
      fire(i);  // counted once per attempt, on the first suppression
      s.latched = true;
    }
    suppressed |= s.latched;
  }
  return suppressed;
}

bool FaultInjector::free_grant_fatal(CoreId logical) {
  if (logical >= logical_to_physical_.size()) return false;
  const CoreId physical = logical_to_physical_[logical];
  bool fatal = false;
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    if (e.kind != FaultKind::kCoreFailStop || !e.when_holding_free ||
        e.target_core != physical) {
      continue;
    }
    EventState& s = state_[i];
    if (!s.armed || s.latched) continue;
    fire(i);
    s.latched = true;  // core_fate() reads the latch: dead from here on
    fatal = true;
  }
  return fatal;
}

bool FaultInjector::busy_stuck(CoreId logical) {
  if (logical >= logical_to_physical_.size()) return false;
  const CoreId physical = logical_to_physical_[logical];
  bool stuck = false;
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    if (e.kind != FaultKind::kStuckBusy || e.target_core != physical) continue;
    EventState& s = state_[i];
    if (now_ < e.trigger) continue;
    if (s.armed) {
      fire(i);
      s.latched = true;  // the bit stays stuck for the rest of the attempt
    }
    stuck |= s.latched;
  }
  return stuck;
}

namespace {

/// Cycle-triggered fault kinds — the ones whose firing depends on the
/// clock rather than on a memory-transaction count. when_holding_free
/// fail-stops are condition-triggered (they fire at a free-lock grant,
/// which never happens during a quiescent window) and are excluded.
bool cycle_triggered(const FaultEvent& e) noexcept {
  switch (e.kind) {
    case FaultKind::kCoreStall:
    case FaultKind::kStuckBusy:
    case FaultKind::kLockDelay:
      return true;
    case FaultKind::kCoreFailStop:
      return !e.when_holding_free;
    default:
      return false;
  }
}

/// Does the event describe a [trigger, trigger+param) window (as opposed
/// to a latch-forever onset at trigger)?
bool windowed(const FaultEvent& e) noexcept {
  return e.kind == FaultKind::kCoreStall || e.kind == FaultKind::kLockDelay;
}

}  // namespace

bool FaultInjector::ff_blocked(Cycle now) const noexcept {
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    if (!state_[i].armed || !cycle_triggered(e)) continue;
    if (now < e.trigger) continue;
    if (windowed(e) && now >= e.trigger + e.param) continue;
    return true;  // would fire on its next consult — run this cycle live
  }
  return false;
}

Cycle FaultInjector::next_cycle_boundary(Cycle now) const noexcept {
  Cycle next = ~Cycle{0};
  const auto consider = [&next, now](Cycle boundary) {
    if (boundary > now && boundary < next) next = boundary;
  };
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    if (!cycle_triggered(e)) continue;
    const EventState& s = state_[i];
    if (s.armed) consider(e.trigger);
    if (windowed(e) && (s.armed || s.latched)) consider(e.trigger + e.param);
  }
  return next;
}

CoreFate FaultInjector::steady_fate(CoreId logical, Cycle now) const noexcept {
  if (logical >= logical_to_physical_.size()) return CoreFate::kRun;
  const CoreId physical = logical_to_physical_[logical];
  CoreFate fate = CoreFate::kRun;
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    if (e.target_core != physical || !state_[i].latched) continue;
    if (e.kind == FaultKind::kCoreStall) {
      if (now >= e.trigger && now < e.trigger + e.param &&
          fate == CoreFate::kRun) {
        fate = CoreFate::kStall;
      }
    } else if (e.kind == FaultKind::kCoreFailStop) {
      fate = CoreFate::kStopped;  // same precedence as core_fate()
    }
  }
  return fate;
}

bool FaultInjector::stuck_busy_steady(CoreId logical) const noexcept {
  if (logical >= logical_to_physical_.size()) return false;
  const CoreId physical = logical_to_physical_[logical];
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    if (e.kind == FaultKind::kStuckBusy && e.target_core == physical &&
        state_[i].latched) {
      return true;
    }
  }
  return false;
}

bool FaultInjector::lock_suppressed_steady(LockKind lock,
                                           Cycle now) const noexcept {
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    if (e.kind == FaultKind::kLockDelay && e.lock == lock &&
        state_[i].latched && now >= e.trigger && now < e.trigger + e.param) {
      return true;
    }
  }
  return false;
}

CoreFate FaultInjector::core_fate(CoreId logical, bool holds_free) {
  if (logical >= logical_to_physical_.size()) return CoreFate::kRun;
  const CoreId physical = logical_to_physical_[logical];
  CoreFate fate = CoreFate::kRun;
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    if (e.target_core != physical) continue;
    EventState& s = state_[i];
    if (e.kind == FaultKind::kCoreStall) {
      if (now_ < e.trigger || now_ >= e.trigger + e.param) continue;
      if (s.armed) {
        fire(i);
        s.latched = true;
      }
      if (s.latched && fate == CoreFate::kRun) fate = CoreFate::kStall;
    } else if (e.kind == FaultKind::kCoreFailStop) {
      if (s.latched) {  // already dead for the rest of this attempt
        fate = CoreFate::kStopped;
        continue;
      }
      if (!s.armed) continue;
      const bool due = e.when_holding_free ? holds_free : now_ >= e.trigger;
      if (due) {
        fire(i);
        s.latched = true;
        fate = CoreFate::kStopped;
      }
    }
  }
  return fate;
}

}  // namespace hwgc
