// TraceReplayer: drives a recorded hwgc-trace-v1 op stream against a live
// Runtime — under any collector in the inventory — and verifies it as it goes.
//
// Determinism argument (DESIGN.md §16): a trace is a closed mutator
// program over allocation-order object ids. Replay keeps, per id, the live
// Refs in creation order; every op resolves through that table, and release
// ops name the creation-order position of the slot to free, so the
// runtime's root table and slot freelist evolve bit-identically to the
// recording run. Collections — explicit (kCollect) or allocation-triggered
// (implicit, unrecorded) — therefore happen at the same op boundaries with
// the same root sets, which is why record -> replay -> re-record is a
// byte-identical round trip and why per-cycle GcCycleStats and SignalTrace
// streams reproduce bit-for-bit on the coprocessor path.
//
// Self-verification: every collection is checked by the conformance
// per-cycle oracle (CycleOracle: pre-cycle HeapSnapshot vs post heap and
// the cycle's report), and every
// kRead op recomputes the FNV-1a data digest recorded at capture time — a
// replay that passes has proven the collector under test preserved the
// recorded workload's entire observable behavior.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "conformance/conformance.hpp"
#include "conformance/harness.hpp"
#include "runtime/runtime.hpp"
#include "trace/churn.hpp"
#include "trace/trace_format.hpp"

namespace hwgc {

/// Incremental op application — the one session driver of the heap
/// service, and the only code that calls the Runtime for a session. Its
/// ops come from one of two sources: a recorded trace, applied in
/// request-sized budgets, or a ChurnSource generating seeded churn step by
/// step. Either way the cursor keeps the per-id mirror of the expected
/// graph — live Refs in creation order, shape, links and data words — that
/// every kRead digest, the end-of-run walk (validate) and the shard
/// checkpoint rely on. With wrapping enabled a trace cursor releases every
/// live ref at end-of-trace and restarts (the released graph becomes
/// garbage for the next cycle), so one finite trace models an arbitrarily
/// long session deterministically; a churn cursor never ends.
class TraceCursor {
 public:
  /// `trace` must outlive the cursor (heapd keeps the corpus alive in the
  /// ServiceConfig; replay_trace keeps it on the stack).
  explicit TraceCursor(const Trace* trace, bool wrap = true);

  /// A generated session: `churn` emits every op.
  explicit TraceCursor(ChurnSource churn);

  /// Applies up to `budget` units and returns the work done. A trace unit
  /// is one op (short only when wrapping is off and the stream ends). A
  /// churn unit is one step — steps that change nothing count too — or,
  /// for a read request (`read`), one read, and the words read are
  /// returned.
  std::size_t apply(Runtime& rt, std::size_t budget, bool read = false);

  bool generated() const noexcept { return churn_.has_value(); }
  /// Reads whose heap words or digest differed from the expected ones
  /// (one per read, however many words differed).
  std::uint64_t read_mismatches() const noexcept { return read_mismatches_; }
  std::uint64_t explicit_collects() const noexcept {
    return explicit_collects_;
  }

  /// Ids allocated since the start (or the last wrap).
  std::uint64_t ids() const noexcept { return refs_.size(); }

  /// Number of ids currently holding at least one live root.
  std::uint64_t live_ids() const noexcept;

  /// Canonical digest of the live-rooted graph: per id in id order —
  /// shape, heap data words, and link topology (trace ids, not
  /// addresses). Identical across collectors iff they all preserved the
  /// replayed workload's observable state.
  std::uint64_t live_graph_digest(Runtime& rt) const;

  /// Walks the heap from the rooted ids (a depth-first walk seeded in id
  /// order) and compares every reachable object's shape, data words and
  /// links, and the aliasing of shared objects, against the mirror.
  /// Children are rooted through load_ptr and released after the walk.
  /// Returns the number of mismatches (0 = heap and mirror agree).
  std::size_t validate(Runtime& rt) const;

  /// Checkpoint seal: FNV-1a 64 over the position, the counters, the
  /// mirror and the churn state.
  std::uint64_t state_digest() const;

 private:
  friend class ChurnSource;

  void apply_one(Runtime& rt, const TraceOp& op);
  void wrap_around(Runtime& rt);

  const Trace* trace_ = nullptr;
  std::optional<ChurnSource> churn_;
  bool wrap_ = false;
  std::size_t pos_ = 0;
  std::uint64_t read_mismatches_ = 0;
  std::uint64_t explicit_collects_ = 0;
  std::vector<std::vector<Runtime::Ref>> refs_;       ///< per id, creation order
  std::vector<std::vector<std::uint64_t>> children_;  ///< link-stream mirror
  std::vector<std::vector<Word>> data_;               ///< data-word mirror
};

struct ReplayConfig {
  CollectorId collector = CollectorId::kCoprocessor;
  /// Worker threads for the threaded software baselines.
  std::uint32_t threads = 4;
  /// Overrides the header's schedule seed (simulators: step order + memory
  /// jitter; baselines: torture stream). ~0 keeps the header's seed.
  std::uint64_t schedule_seed = ~std::uint64_t{0};
  /// Overrides the header's semispace size (0 keeps it).
  Word semispace_words = 0;
  /// Run the conformance post-structure oracle around every cycle.
  bool oracle = true;
  /// Re-record the replay through a fresh TraceRecorder (round-trip
  /// identity proof); the result lands in ReplayResult::rerecorded.
  bool rerecord = false;
  /// Observes every coprocessor collection when non-null (the SignalTrace
  /// bit-identity proof). The other collectors run outside its clock.
  CycleObserver* observer = nullptr;
};

struct ReplayResult {
  bool ok = true;
  std::vector<std::string> findings;
  std::uint64_t ops_applied = 0;
  std::uint64_t collections = 0;         ///< total cycles (incl. implicit)
  std::uint64_t explicit_collects = 0;
  std::uint64_t read_mismatches = 0;
  std::uint64_t live_ids = 0;
  std::uint64_t live_graph_digest = 0;
  std::vector<GcCycleStats> gc_history;
  Trace rerecorded;  ///< filled when ReplayConfig::rerecord

  std::string summary() const;
};

/// The semispace of a differential replay (several collectors over one
/// trace, live-graph digests compared): twice the recorded size, saturated
/// at the largest Word. How much to-space the chunk/LAB collectors waste
/// depends on host-thread interleaving, so at the recorded size they can
/// exhaust on some runs and not others; the live graph a replay ends with
/// does not depend on where its implicit cycles land.
Word differential_semispace_words(const TraceHeader& header);

/// Replays a whole trace against a fresh Runtime built from the trace
/// header (semispace, cores, FIFO, schedule, jitter). The trace must have
/// come through load_trace/check_trace — replay assumes structural
/// validity.
ReplayResult replay_trace(const Trace& trace, const ReplayConfig& cfg = {});

}  // namespace hwgc
