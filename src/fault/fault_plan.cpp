#include "fault/fault_plan.hpp"

#include <sstream>

#include "sim/rng.hpp"

namespace hwgc {

std::vector<FaultKind> all_fault_kinds() {
  std::vector<FaultKind> out;
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    out.push_back(static_cast<FaultKind>(k));
  }
  return out;
}

std::optional<FaultKind> parse_fault_kind(const std::string& name) {
  for (const FaultKind k : all_fault_kinds()) {
    if (name == to_string(k)) return k;
  }
  return std::nullopt;
}

std::string FaultEvent::summary() const {
  std::ostringstream os;
  os << to_string(kind) << (persistent ? "[hard]" : "[transient]") << " core "
     << target_core;
  if (is_mem_fault(kind)) {
    os << ' ' << to_string(port) << '-' << to_string(op) << " #" << trigger;
    if (kind == FaultKind::kMemDelay) os << " +" << param << "cy";
    if (kind == FaultKind::kMemCorrupt) os << " bit " << bit;
  } else if (kind == FaultKind::kLockDelay) {
    os << ' ' << (lock == LockKind::kScan ? "scan" : "free") << " @" << trigger
       << " for " << param << "cy";
  } else if (kind == FaultKind::kCoreStall) {
    os << " @" << trigger << " for " << param << "cy";
  } else if (kind == FaultKind::kCoreFailStop && when_holding_free) {
    os << " when-holding-free";
  } else {
    os << " @" << trigger;
  }
  return os.str();
}

std::string FaultPlan::summary() const {
  std::ostringstream os;
  os << events.size() << " fault event(s)";
  for (const auto& e : events) os << "\n  " << e.summary();
  return os.str();
}

FaultPlan FaultPlan::from_config(const FaultConfig& cfg,
                                 std::uint32_t num_cores) {
  FaultPlan plan;
  if (!cfg.enabled() || num_cores == 0) return plan;

  // Collect the enabled classes so the seed stream stays aligned no matter
  // which mask is set (each event consumes a fixed number of draws).
  std::vector<FaultKind> classes;
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    if (cfg.class_mask & (1u << k)) classes.push_back(static_cast<FaultKind>(k));
  }
  if (classes.empty()) return plan;

  Rng rng(cfg.seed * 0x9e3779b97f4a7c15ULL + 0xfa017ULL);
  const std::uint64_t scale = cfg.trigger_scale == 0 ? 1 : cfg.trigger_scale;
  plan.events.reserve(cfg.events);
  for (std::uint32_t i = 0; i < cfg.events; ++i) {
    FaultEvent e;
    e.kind = classes[rng.below(classes.size())];
    e.persistent = rng.chance(cfg.persistent_fraction);
    e.target_core = static_cast<CoreId>(rng.below(num_cores));
    e.port = rng.below(2) == 0 ? Port::kHeader : Port::kBody;
    e.op = rng.below(2) == 0 ? MemOp::kLoad : MemOp::kStore;
    if (is_mem_fault(e.kind)) {
      e.trigger = rng.below(scale);
    } else {
      e.trigger = rng.below(8 * scale);
    }
    e.param = 1 + rng.below(4 * scale);
    e.bit = static_cast<std::uint32_t>(rng.below(32));
    e.lock = rng.below(2) == 0 ? LockKind::kScan : LockKind::kFree;
    e.when_holding_free =
        e.kind == FaultKind::kCoreFailStop && rng.chance(0.25);
    plan.events.push_back(e);
  }
  return plan;
}

}  // namespace hwgc
