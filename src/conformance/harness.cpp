#include "conformance/harness.hpp"

#include "baselines/chunked_copying.hpp"
#include "baselines/naive_parallel.hpp"
#include "baselines/work_packets.hpp"
#include "baselines/work_stealing.hpp"
#include "core/coprocessor.hpp"

namespace hwgc {

const char* to_string(CollectorId id) noexcept {
  switch (id) {
    case CollectorId::kCoprocessor: return "coprocessor";
    case CollectorId::kSequential: return "sequential";
    case CollectorId::kNaive: return "naive";
    case CollectorId::kChunked: return "chunked";
    case CollectorId::kPackets: return "packets";
    case CollectorId::kStealing: return "stealing";
    case CollectorId::kConcurrent: return "concurrent";
    case CollectorId::kSnapshot: return "snapshot";
    case CollectorId::kCount: break;
  }
  return "?";
}

std::optional<CollectorId> parse_collector(const std::string& name) {
  for (std::size_t i = 0; i < kCollectorCount; ++i) {
    const auto id = static_cast<CollectorId>(i);
    if (name == to_string(id)) return id;
  }
  return std::nullopt;
}

std::vector<CollectorId> all_collectors() {
  std::vector<CollectorId> v;
  v.reserve(kCollectorCount);
  for (std::size_t i = 0; i < kCollectorCount; ++i) {
    v.push_back(static_cast<CollectorId>(i));
  }
  return v;
}

CollectorTraits traits_of(CollectorId id) noexcept {
  CollectorTraits t;
  switch (id) {
    case CollectorId::kCoprocessor:
      break;  // dense, deterministic, image-preserving simulator
    case CollectorId::kSequential:
      t.cheney_order = true;
      break;
    case CollectorId::kNaive:
      t.deterministic = false;
      t.threaded = true;
      break;
    case CollectorId::kChunked:
      t.dense = false;
      t.deterministic = false;
      t.threaded = true;
      break;
    case CollectorId::kPackets:
      t.deterministic = false;
      t.threaded = true;
      break;
    case CollectorId::kStealing:
      t.dense = false;
      t.deterministic = false;
      t.threaded = true;
      break;
    case CollectorId::kConcurrent:
      t.preserves_image = false;
      break;
    case CollectorId::kSnapshot:
      t.deterministic = false;
      t.preserves_image = false;
      t.threaded = true;
      t.concurrent_mutator = true;
      break;
    case CollectorId::kCount:
      break;
  }
  return t;
}

GcCycleStats cycle_stats(const CycleReport& r) {
  if (r.coproc.has_value()) return *r.coproc;
  GcCycleStats stats;
  stats.objects_copied = r.objects_copied;
  stats.words_copied = r.words_copied;
  stats.lock_order_violations = r.lock_order_violations;
  if (r.snapshot.has_value()) {
    // The pauseless collector has a virtual clock of its own: total wall
    // time is the two pauses plus the overlapped concurrent phase, and the
    // barrier/reconciliation counters ride the coprocessor stat block into
    // hwgc-bench-v1.
    stats.total_cycles =
        r.snapshot->pause_cycles + r.snapshot->concurrent_cycles;
    stats.snapshot_stores = r.snapshot->snapshot_stores;
    stats.reconciliation_repairs = r.snapshot->reconciliation_repairs;
    stats.safe_point_waits = r.snapshot->safe_point_waits;
  }
  return stats;
}

namespace {

/// The coprocessor-path CycleReport of one collection's GcCycleStats.
CycleReport coprocessor_report(GcCycleStats s) {
  CycleReport r;
  r.objects_copied = s.objects_copied;
  r.words_copied = s.words_copied;
  for (const CoreCounters& c : s.per_core) r.evacuations += c.objects_evacuated;
  r.lock_order_violations = s.lock_order_violations;
  r.coproc = std::move(s);
  return r;
}

class CoprocessorHarness final : public CollectorHarness {
 public:
  explicit CoprocessorHarness(const SimConfig& sim) : sim_(sim) {}
  CollectorId id() const noexcept override {
    return CollectorId::kCoprocessor;
  }
  CycleReport collect(Heap& heap, CycleObserver* obs) override {
    if (!sim_.fault.enabled() && !sim_.recovery.enabled) {
      return coprocessor_report(Coprocessor(sim_, heap).collect(obs));
    }
    RecoveryReport recovered = RecoveringCollector(sim_, heap).collect(obs);
    CycleReport r = coprocessor_report(recovered.stats);
    // The sequential fallback counts evacuations as copies, like the
    // sequential harness: it has no per-core counters.
    if (recovered.used_sequential_fallback) r.evacuations = r.objects_copied;
    r.recovery = std::move(recovered);
    return r;
  }

 private:
  SimConfig sim_;
};

class SequentialHarness final : public CollectorHarness {
 public:
  CollectorId id() const noexcept override { return CollectorId::kSequential; }
  CycleReport collect(Heap& heap, CycleObserver*) override {
    const SequentialGcStats s = SequentialCheney::collect(heap);
    CycleReport r;
    r.objects_copied = s.objects_copied;
    r.words_copied = s.words_copied;
    r.evacuations = s.objects_copied;
    r.sequential = s;
    return r;
  }
};

/// The four software baselines share one front door: a Config carrying
/// `threads` and `torture`, and collect(heap) -> ParallelGcStats.
template <class Collector, CollectorId kId>
class SoftwareHarness final : public CollectorHarness {
 public:
  explicit SoftwareHarness(const HarnessConfig& cfg) {
    cfg_.threads = cfg.cores;
    cfg_.torture = cfg.torture;
  }
  CollectorId id() const noexcept override { return kId; }
  CycleReport collect(Heap& heap, CycleObserver*) override {
    const ParallelGcStats s = Collector(cfg_).collect(heap);
    CycleReport r;
    r.objects_copied = s.objects_copied;
    r.words_copied = s.words_copied;
    r.wasted_words = s.wasted_words;
    r.sync_ops = s.cas_ops + s.mutex_acquisitions + s.steal_attempts;
    r.evacuations = s.objects_copied;
    r.parallel = s;
    return r;
  }

 private:
  typename Collector::Config cfg_;
};

class ConcurrentHarness final : public CollectorHarness {
 public:
  explicit ConcurrentHarness(const HarnessConfig& cfg) {
    // The concurrent cycle takes the schedule, FIFO and jitter knobs but
    // runs the paper's measured feature set: no sub-object copying and no
    // early mark-bit read.
    CoprocessorKnobs knobs = cfg;
    knobs.subobject_copy = false;
    knobs.markbit_early_read = false;
    cfg_.sim = knobs.sim_config();
    cfg_.mutator_seed = cfg.mutator_seed;
    cfg_.op_spacing = cfg.mutator_op_spacing;
    cfg_.registers = cfg.mutator_registers;
  }
  CollectorId id() const noexcept override { return CollectorId::kConcurrent; }
  CycleReport collect(Heap& heap, CycleObserver*) override {
    ConcurrentCycle cycle(cfg_, heap);
    const ConcurrentStats s = cycle.run();
    CycleReport r;
    // gc.objects_copied already includes the mutator's barrier-assisted
    // evacuations (see ConcurrentCycle::run).
    r.objects_copied = s.gc.objects_copied;
    r.words_copied = s.gc.words_copied;
    r.evacuations = s.gc.objects_copied;
    r.lock_order_violations = s.gc.lock_order_violations;
    r.validation_mismatches = s.validation_mismatches;
    r.concurrent = s;
    return r;
  }

 private:
  ConcurrentCycle::Config cfg_;
};

class SnapshotHarness final : public CollectorHarness {
 public:
  explicit SnapshotHarness(const HarnessConfig& cfg) {
    cfg_.threads = cfg.cores;
    cfg_.mutator_threads = cfg.mutator_threads;
    cfg_.mutator_registers = cfg.mutator_registers;
    cfg_.mutator_seed = cfg.mutator_seed;
    cfg_.torture = cfg.torture;
  }
  CollectorId id() const noexcept override { return CollectorId::kSnapshot; }
  CycleReport collect(Heap& heap, CycleObserver*) override {
    const SnapshotGcStats s = SnapshotCollector(cfg_).collect(heap);
    CycleReport r;
    r.objects_copied = s.objects_copied;
    r.words_copied = s.words_copied;
    r.sync_ops = s.cas_ops;
    r.evacuations = s.objects_copied;
    r.validation_mismatches = s.validation_mismatches;
    r.snapshot = s;
    return r;
  }

 private:
  SnapshotCollector::Config cfg_;
};

}  // namespace

std::unique_ptr<CollectorHarness> make_harness(CollectorId id,
                                               const HarnessConfig& cfg) {
  SimConfig sim = cfg.sim_config();
  sim.fault = cfg.fault;
  return make_harness(id, cfg, sim);
}

std::unique_ptr<CollectorHarness> make_harness(CollectorId id,
                                               const HarnessConfig& cfg,
                                               const SimConfig& coprocessor) {
  switch (id) {
    case CollectorId::kCoprocessor:
      return std::make_unique<CoprocessorHarness>(coprocessor);
    case CollectorId::kSequential:
      return std::make_unique<SequentialHarness>();
    case CollectorId::kNaive:
      return std::make_unique<
          SoftwareHarness<NaiveParallelCheney, CollectorId::kNaive>>(cfg);
    case CollectorId::kChunked:
      return std::make_unique<
          SoftwareHarness<ChunkedCopyingCollector, CollectorId::kChunked>>(
          cfg);
    case CollectorId::kPackets:
      return std::make_unique<
          SoftwareHarness<WorkPacketCollector, CollectorId::kPackets>>(cfg);
    case CollectorId::kStealing:
      return std::make_unique<
          SoftwareHarness<WorkStealingCollector, CollectorId::kStealing>>(cfg);
    case CollectorId::kConcurrent:
      return std::make_unique<ConcurrentHarness>(cfg);
    case CollectorId::kSnapshot:
      return std::make_unique<SnapshotHarness>(cfg);
    case CollectorId::kCount:
      break;
  }
  return nullptr;
}

}  // namespace hwgc
