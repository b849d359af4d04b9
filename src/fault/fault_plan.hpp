// Seeded hardware fault plans (tentpole of the robustness work).
//
// A FaultPlan is a deterministic list of fault events derived from a seed:
// the same (seed, config) pair reproduces the same faults at the same
// trigger points, which makes every fault run replayable from a one-line
// reproducer — the same property the schedule fuzzer relies on.
//
// Fault classes, mapped to the hardware they break:
//   MemorySystem (split-transaction scheduler, Section V-D):
//     kMemDrop      an accepted transaction vanishes (lost reply / lost
//                   store commit) — detected by the watchdog via a stalled
//                   load buffer or a never-draining store buffer
//     kMemDuplicate a store is replayed later with its stale accepted-time
//                   value — masked unless the location was overwritten in
//                   between, in which case the verifier catches it
//     kMemDelay     an accepted transaction completes late — masked, costs
//                   cycles
//     kMemCorrupt   a single bit of the accessed word flips without its ECC
//                   being updated — header corruption is caught by the
//                   cores' checksum check, body corruption by the verifier
//   SyncBlock (Section V-C):
//     kLockDelay    spurious arbitration failure: a scan/free lock grant is
//                   suppressed for a window of cycles — masked, costs cycles
//     kStuckBusy    a core's ScanState busy bit reads stuck-at-1 — the
//                   termination condition never holds; watchdog detects it
//   GcCore:
//     kCoreStall    the core misses its clock for a window — masked
//     kCoreFailStop the core stops executing permanently (optionally timed
//                   to the moment it holds the free lock) — watchdog
//                   detects it; the activity monitor localizes the core and
//                   recovery deconfigures it
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mem/ports.hpp"
#include "sim/config.hpp"
#include "sim/types.hpp"

namespace hwgc {

enum class FaultKind : std::uint8_t {
  kMemDrop = 0,
  kMemDuplicate,
  kMemDelay,
  kMemCorrupt,
  kLockDelay,
  kStuckBusy,
  kCoreStall,
  kCoreFailStop,
  kCount
};

constexpr std::size_t kFaultKindCount =
    static_cast<std::size_t>(FaultKind::kCount);

constexpr const char* to_string(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kMemDrop: return "mem-drop";
    case FaultKind::kMemDuplicate: return "mem-dup";
    case FaultKind::kMemDelay: return "mem-delay";
    case FaultKind::kMemCorrupt: return "mem-corrupt";
    case FaultKind::kLockDelay: return "lock-delay";
    case FaultKind::kStuckBusy: return "stuck-busy";
    case FaultKind::kCoreStall: return "core-stall";
    case FaultKind::kCoreFailStop: return "core-failstop";
    case FaultKind::kCount: break;
  }
  return "?";
}

/// Every fault class, in enum order.
std::vector<FaultKind> all_fault_kinds();

/// Parses a fault-class name as printed by to_string; nullopt on junk.
std::optional<FaultKind> parse_fault_kind(const std::string& name);

constexpr bool is_mem_fault(FaultKind k) noexcept {
  return k == FaultKind::kMemDrop || k == FaultKind::kMemDuplicate ||
         k == FaultKind::kMemDelay || k == FaultKind::kMemCorrupt;
}

/// Which SB pointer lock a kLockDelay event suppresses.
enum class LockKind : std::uint8_t { kScan = 0, kFree };

/// One fault event. `target_core` is a PHYSICAL core id: when recovery
/// deconfigures that core, events bound to it become dormant — the faulty
/// hardware is no longer in the active set.
struct FaultEvent {
  FaultKind kind = FaultKind::kMemDelay;

  /// Hard fault: re-fires on every attempt while its target core is still
  /// configured. Transients fire at most once across the whole collection,
  /// retries included.
  bool persistent = false;

  CoreId target_core = 0;  ///< physical core id

  // Memory faults: fire on the trigger-th accepted transaction matching
  // (target core, port, op). Other classes: trigger is a clock cycle.
  Port port = Port::kHeader;
  MemOp op = MemOp::kLoad;
  std::uint64_t trigger = 0;

  /// kMemDelay: extra completion cycles. kLockDelay / kCoreStall: window
  /// length in cycles.
  Cycle param = 0;

  std::uint32_t bit = 0;             ///< kMemCorrupt: bit index to flip
  LockKind lock = LockKind::kScan;   ///< kLockDelay: which lock

  /// kCoreFailStop: defer the stop until the core holds the free lock
  /// (models dying inside the 1-cycle free critical section — the nastiest
  /// moment, since every other core then stalls on the free lock).
  bool when_holding_free = false;

  std::string summary() const;
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const noexcept { return events.empty(); }
  std::size_t size() const noexcept { return events.size(); }

  /// Derives a deterministic plan from the config. `num_cores` bounds the
  /// physical core ids targeted by core-bound events.
  static FaultPlan from_config(const FaultConfig& cfg, std::uint32_t num_cores);

  std::string summary() const;
};

}  // namespace hwgc
