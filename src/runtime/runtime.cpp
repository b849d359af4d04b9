#include "runtime/runtime.hpp"

#include <stdexcept>

#include "sim/fnv.hpp"
#include "sim/observer.hpp"

namespace hwgc {

Runtime::Runtime(Word semispace_words, SimConfig cfg, CollectorId collector,
                 HarnessConfig harness)
    : heap_(semispace_words), cfg_(cfg), collector_(collector),
      harness_cfg_(harness) {
  cfg_.heap.semispace_words = semispace_words;
  if (collector == CollectorId::kConcurrent ||
      collector == CollectorId::kSnapshot) {
    harness_cfg_.mutator_registers = 0;
    harness_cfg_.mutator_threads = 0;
  }
  harness_ = make_harness(collector_, harness_cfg_, cfg_);
}

void Runtime::set_fault_config(const FaultConfig& f) {
  cfg_.fault = f;
  harness_ = make_harness(collector_, harness_cfg_, cfg_);
}

Addr Runtime::addr(Ref ref) const {
  if (ref.is_null()) return kNullPtr;
  return heap_.roots()[ref.slot_];
}

std::size_t Runtime::take_slot(Addr a) {
  if (!free_slots_.empty()) {
    const std::size_t slot = free_slots_.back();
    free_slots_.pop_back();
    const std::size_t live = heap_.roots().size() - free_slots_.size();
    if (live > root_high_water_) root_high_water_ = live;
    heap_.roots()[slot] = a;
    return slot;
  }
  heap_.roots().push_back(a);
  const std::size_t live = heap_.roots().size() - free_slots_.size();
  if (live > root_high_water_) root_high_water_ = live;
  return heap_.roots().size() - 1;
}

Runtime::Ref Runtime::alloc(Word pi, Word delta) {
  Addr obj = heap_.allocate(pi, delta);
  if (obj == kNullPtr) {
    // Exhaustion cycles run unrecorded (collect_now, not collect): replay
    // of the same allocation sequence re-triggers them deterministically.
    collect_now();
    obj = heap_.allocate(pi, delta);
    if (obj == kNullPtr) {
      throw std::runtime_error(
          "Runtime: heap exhausted even after a collection cycle");
    }
  }
  const Ref ref(take_slot(obj));
  if (sink_ != nullptr) sink_->on_alloc(*this, ref.slot_, pi, delta);
  return ref;
}

void Runtime::release(Ref ref) {
  if (ref.is_null()) return;
  if (sink_ != nullptr) sink_->on_release(*this, ref.slot_);
  heap_.roots()[ref.slot_] = kNullPtr;
  free_slots_.push_back(ref.slot_);
}

void Runtime::set_ptr(Ref obj, Word field, Ref target) {
  heap_.set_pointer(addr(obj), field, addr(target));
  if (sink_ != nullptr) {
    sink_->on_set_ptr(*this, obj.slot_, field, target.is_null(),
                      target.slot_);
  }
}

void Runtime::set_ptr_null(Ref obj, Word field) {
  heap_.set_pointer(addr(obj), field, kNullPtr);
  if (sink_ != nullptr) sink_->on_set_ptr(*this, obj.slot_, field, true, 0);
}

Runtime::Ref Runtime::load_ptr(Ref obj, Word field) {
  const Addr child = heap_.pointer(addr(obj), field);
  if (child == kNullPtr) return Ref{};
  const Ref out(take_slot(child));
  if (sink_ != nullptr) sink_->on_load_ptr(*this, obj.slot_, field, out.slot_);
  return out;
}

Runtime::Ref Runtime::dup(Ref ref) {
  if (ref.is_null()) return Ref{};
  const Ref out(take_slot(addr(ref)));
  if (sink_ != nullptr) sink_->on_dup(*this, ref.slot_, out.slot_);
  return out;
}

void Runtime::set_data(Ref obj, Word j, Word value) {
  heap_.set_data(addr(obj), j, value);
  if (sink_ != nullptr) sink_->on_set_data(*this, obj.slot_, j, value);
}

ReadProbe Runtime::read_probe(Ref obj) {
  const Addr a = addr(obj);
  ReadProbe probe;
  probe.words = heap_.delta(a);
  Fnv1a h;
  for (Word j = 0; j < probe.words; ++j) h.mix(heap_.data(a, j));
  probe.digest = h.h;
  if (sink_ != nullptr) sink_->on_read(*this, obj.slot_, probe);
  return probe;
}

Word Runtime::get_data(Ref obj, Word j) const {
  return heap_.data(addr(obj), j);
}

Word Runtime::pi(Ref obj) const { return heap_.pi(addr(obj)); }
Word Runtime::delta(Ref obj) const { return heap_.delta(addr(obj)); }

Runtime::Image Runtime::save_image() const {
  return {HeapImage::save(heap_), free_slots_, root_high_water_};
}

void Runtime::restore_image(const Image& img) {
  img.restore(heap_);
  free_slots_ = img.free_slots;
  root_high_water_ = img.root_high_water;
}

const GcCycleStats& Runtime::collect() {
  if (sink_ != nullptr) sink_->on_collect(*this);
  return collect_now();
}

const GcCycleStats& Runtime::collect_now() {
  if (collector_ != CollectorId::kCoprocessor &&
      (cfg_.fault.enabled() || cfg_.recovery.enabled)) {
    throw std::logic_error(
        std::string("Runtime: the ") + to_string(collector_) +
        " collector cannot run with fault injection/recovery (the "
        "coprocessor's recovery ladder owns the cycle)");
  }
  if (observer_ != nullptr) observer_->before_collection(*this);
  CycleProfiler profiler;
  CycleProfiler* prof = profiling_ ? &profiler : nullptr;
  ObserverFanout fanout;
  fanout.add(cycle_obs_);
  fanout.add(prof);
  // Allocation into the current space is dense, so alloc_ptr is already
  // consistent; the collector flips the heap and republishes it.
  CycleReport report = harness_->collect(heap_, fanout.target());
  const std::optional<RecoveryReport>& recovery = report.recovery;
  // Software collectors and the recovery ladder's sequential fallback run
  // outside the coprocessor clock: keep profile_history_ index-aligned
  // with an invalid profile rather than let a failed attempt's partial
  // profile escape as if it covered this cycle.
  if (!report.coproc || (recovery && recovery->used_sequential_fallback)) {
    profiler.mark_unprofiled();
  }
  if (recovery) {
    recovery_history_.push_back(*recovery);
    if (!recovery->ok) {
      throw std::runtime_error("Runtime: collection unrecoverable — " +
                               recovery->summary());
    }
  }
  history_.push_back(cycle_stats(report));
  // Section V-E: "the main processor is only restarted after all updates
  // are written back to the memory". A cycle whose store buffers had not
  // drained at restart must never publish its heap to the mutator.
  if (!history_.back().restart_stores_drained) {
    ++drain_violations_;
    history_.pop_back();
    throw std::logic_error(
        "Runtime: mutator restart with undrained GC store buffers "
        "(Section V-E restart condition violated)");
  }
  // Kept aligned with history_: pushed only once the cycle is accepted
  // (the drain-violation path above pops and never reaches here).
  if (prof != nullptr) profile_history_.push_back(profiler.take_profile());
  last_report_ = std::move(report);
  if (observer_ != nullptr) observer_->after_collection(*this, history_.back());
  return history_.back();
}

}  // namespace hwgc
