#include "core/concurrent_cycle.hpp"

#include <cassert>
#include <deque>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "core/gc_core.hpp"
#include "core/sync_block.hpp"
#include "heap/object_model.hpp"
#include "mem/header_fifo.hpp"
#include "mem/memory_system.hpp"

namespace hwgc {

namespace {

constexpr std::int64_t kUnknown = -2;
constexpr std::int64_t kNullChild = -1;

/// The main processor, kept running during the collection cycle. Executes
/// a synthetic register-based heap workload through the hardware read
/// barrier, and mirrors everything it learns or changes in a shadow graph
/// keyed by (stable) tospace addresses, so the final state can be checked.
class MutatorSim {
 public:
  MutatorSim(const ConcurrentCycle::Config& cfg, Heap& heap, SyncBlock& sb,
             MemorySystem& mem, HeaderFifo& fifo, CoreId id)
      : cfg_(cfg),
        heap_(heap),
        sb_(sb),
        mem_(mem),
        fifo_(fifo),
        id_(id),
        rng_(cfg.mutator_seed) {
    // Registers are root slots: the collector forwards them with the rest
    // of the root set, so after the start barrier they hold tospace
    // addresses.
    reg_base_ = heap_.roots().size();
    fromspace_used_ = heap_.used_words();
    const std::size_t seeded =
        std::min<std::size_t>(cfg_.registers / 2, reg_base_);
    for (std::uint32_t r = 0; r < cfg_.registers; ++r) {
      heap_.roots().push_back(r < seeded ? heap_.roots()[r] : kNullPtr);
    }
    // Quiescent mode (registers == 0): nothing to operate on — halt before
    // the first step so begin_op never draws from an empty register file.
    if (cfg_.registers == 0) halted_ = true;
  }

  void step(Cycle now);

  void halt() { halted_ = true; }
  bool mid_operation() const noexcept { return state_ != State::kIdle; }

  ConcurrentStats& stats() noexcept { return stats_; }

  /// Post-cycle validation: walks the shadow graph from the registers and
  /// compares every known fact against the heap.
  std::size_t validate() const;

 private:
  enum class State : std::uint8_t {
    kIdle,        // between operations (gap countdown)
    kGrayLoad,    // body load through the backlink in flight
    kChildLock,   // read barrier: acquiring the header lock
    kChildWait,   // read barrier: header load in flight
    kEvacuate,    // read barrier: free-lock critical section
  };

  struct ShadowNode {
    Word pi = 0;
    Word delta = 0;
    std::vector<std::int64_t> kids;          // kUnknown / kNullChild / index
    std::vector<std::optional<Word>> data;
  };

  Addr reg(std::uint32_t r) const { return heap_.roots()[reg_base_ + r]; }
  void set_reg(std::uint32_t r, Addr a) { heap_.roots()[reg_base_ + r] = a; }

  /// Shadow index for a tospace object, creating the node on first sight
  /// (shape read from the frame header, which is valid from Gray 1 on).
  std::size_t shadow_of(Addr tospace_addr);

  bool object_black(Addr a) const {
    return is_black(heap_.memory().load(attributes_addr(a)));
  }
  Addr backlink_of(Addr a) const {
    return heap_.memory().load(link_addr(a));
  }

  void begin_op();
  void finish_op() {
    sb_.set_busy(id_, false);
    state_ = State::kIdle;
    gap_ = 1 + static_cast<std::uint32_t>(rng_.below(
                   std::max<std::uint32_t>(1, cfg_.op_spacing) * 2));
    ++stats_.mutator_ops;
  }

  void do_idle();
  void do_gray_load();
  void do_child_lock();
  void do_child_wait();
  void do_evacuate();

  void stall() {
    ++stats_.mutator_stall_cycles;
    ++pause_run_;
    if (pause_run_ > stats_.longest_pause) stats_.longest_pause = pause_run_;
  }
  void progress() {
    ++stats_.mutator_busy_cycles;
    pause_run_ = 0;
  }

  ConcurrentCycle::Config cfg_;
  Heap& heap_;
  SyncBlock& sb_;
  MemorySystem& mem_;
  HeaderFifo& fifo_;
  CoreId id_;
  Rng rng_;
  ConcurrentStats stats_{};

  std::size_t reg_base_ = 0;
  Word fromspace_used_ = 0;  ///< worst-case evacuation demand (cycle start)
  bool halted_ = false;
  State state_ = State::kIdle;
  std::uint32_t gap_ = 0;
  Cycle pause_run_ = 0;

  // In-flight operation registers.
  std::uint32_t op_src_ = 0;   // register with the object being accessed
  std::uint32_t op_dst_ = 0;   // register receiving a loaded pointer
  Word op_field_ = 0;
  Addr op_obj_ = kNullPtr;     // tospace object being accessed
  Addr op_orig_ = kNullPtr;    // latched backlink (blackening clears it)
  Addr op_child_ = kNullPtr;   // raw value read from the original

  std::unordered_map<Addr, std::size_t> shadow_index_;
  std::vector<ShadowNode> shadow_;
};

std::size_t MutatorSim::shadow_of(Addr tospace_addr) {
  auto it = shadow_index_.find(tospace_addr);
  if (it != shadow_index_.end()) return it->second;
  const Word attrs = heap_.memory().load(attributes_addr(tospace_addr));
  ShadowNode node;
  node.pi = pi_of(attrs);
  node.delta = delta_of(attrs);
  node.kids.assign(node.pi, kUnknown);
  node.data.assign(node.delta, std::nullopt);
  shadow_.push_back(std::move(node));
  shadow_index_.emplace(tospace_addr, shadow_.size() - 1);
  return shadow_.size() - 1;
}

void MutatorSim::step(Cycle now) {
  (void)now;
  if (halted_) return;
  switch (state_) {
    case State::kIdle: do_idle(); break;
    case State::kGrayLoad: do_gray_load(); break;
    case State::kChildLock: do_child_lock(); break;
    case State::kChildWait: do_child_wait(); break;
    case State::kEvacuate: do_evacuate(); break;
  }
}

void MutatorSim::do_idle() {
  if (sb_.barrier_generation() == 0) return;  // collector still starting up
  if (gap_ > 0) {
    --gap_;
    return;
  }
  begin_op();
}

void MutatorSim::begin_op() {
  auto& m = heap_.memory();
  // Choose an operation the current register file allows.
  for (int attempt = 0; attempt < 8; ++attempt) {
    const double r = rng_.uniform01();
    if (r < 0.22) {
      // Allocate, Baker-style: bump DOWN from alloc_top, born black.
      const Word pi = static_cast<Word>(rng_.below(cfg_.max_pi + 1));
      const Word delta = static_cast<Word>(rng_.below(cfg_.max_delta + 1));
      const Word size = object_words(pi, delta);
      const Addr top = sb_.alloc_top();
      // Admission control: the collector's free pointer may still need to
      // evacuate every fromspace word not yet copied, so that worst case
      // stays reserved. (A real runtime would block the allocating thread
      // here until enough of fromspace is proven dead.)
      const Word copied = sb_.free() - heap_.layout().tospace_base();
      const Word reserve =
          fromspace_used_ > copied ? fromspace_used_ - copied : 0;
      if (top < size || top - size <= sb_.free() + reserve + 16) {
        ++stats_.mutator_alloc_backoffs;
        continue;  // heap too tight: pick another operation
      }
      const Addr obj = top - size;
      sb_.set_alloc_top(obj);
      m.store(attributes_addr(obj), make_attributes(pi, delta) | kBlackBit);
      m.store(link_addr(obj), kNullPtr);
      for (Word i = 0; i < pi + delta; ++i) m.store(obj + kHeaderWords + i, 0);
      const std::uint32_t dst = static_cast<std::uint32_t>(
          rng_.below(cfg_.registers));
      set_reg(dst, obj);
      const std::size_t s = shadow_of(obj);
      shadow_[s].kids.assign(shadow_[s].pi, kNullChild);
      for (Word j = 0; j < shadow_[s].delta; ++j) shadow_[s].data[j] = 0;
      ++stats_.mutator_allocations;
      progress();
      finish_op();
      return;
    }
    // Remaining ops need a non-null register.
    const std::uint32_t src = static_cast<std::uint32_t>(
        rng_.below(cfg_.registers));
    const Addr obj = reg(src);
    if (obj == kNullPtr) continue;
    const std::size_t s = shadow_of(obj);

    if (r < 0.30) {  // drop a register (future garbage)
      set_reg(src, kNullPtr);
      progress();
      finish_op();
      return;
    }
    if (r < 0.45 && shadow_[s].delta > 0) {  // write a data word
      const Word j = static_cast<Word>(rng_.below(shadow_[s].delta));
      const Word v = static_cast<Word>(rng_());
      shadow_[s].data[j] = v;
      m.store(data_field_addr(obj, shadow_[s].pi, j), v);
      if (!object_black(obj)) {
        // Gray: dual-write through to the fromspace original so the
        // copying core cannot lose the store (see header comment).
        m.store(data_field_addr(backlink_of(obj), shadow_[s].pi, j), v);
        ++stats_.barrier_dual_writes;
      }
      progress();
      finish_op();
      return;
    }
    if (r < 0.60 && shadow_[s].pi > 0) {  // write a pointer field
      const Word f = static_cast<Word>(rng_.below(shadow_[s].pi));
      const std::uint32_t from = static_cast<std::uint32_t>(
          rng_.below(cfg_.registers));
      const Addr target = reg(from);  // tospace or null: invariant holds
      shadow_[s].kids[f] =
          target == kNullPtr
              ? kNullChild
              : static_cast<std::int64_t>(shadow_of(target));
      m.store(pointer_field_addr(obj, f), target);
      if (!object_black(obj)) {
        m.store(pointer_field_addr(backlink_of(obj), f), target);
        ++stats_.barrier_dual_writes;
      }
      progress();
      finish_op();
      return;
    }
    if (r < 0.80 && shadow_[s].delta > 0) {  // read a data word
      const Word j = static_cast<Word>(rng_.below(shadow_[s].delta));
      op_obj_ = obj;
      op_src_ = src;
      op_field_ = j;
      sb_.set_busy(id_, true);
      if (object_black(obj)) {
        const Word v = m.load(data_field_addr(obj, shadow_[s].pi, j));
        if (shadow_[s].data[j] && *shadow_[s].data[j] != v) {
          ++stats_.validation_mismatches;  // caught live!
        }
        shadow_[s].data[j] = v;
        progress();
        finish_op();
        return;
      }
      // Gray: read through the backlink (one body load). Latch the
      // backlink now — blackening clears the frame's link word.
      ++stats_.barrier_gray_reads;
      op_orig_ = backlink_of(obj);
      mem_.issue_load(id_, Port::kBody,
                      data_field_addr(op_orig_, shadow_[s].pi, j));
      op_child_ = kNullPtr;
      op_dst_ = ~0u;  // data read marker
      state_ = State::kGrayLoad;
      progress();
      return;
    }
    if (shadow_[s].pi > 0) {  // read a pointer field through the barrier
      const Word f = static_cast<Word>(rng_.below(shadow_[s].pi));
      op_obj_ = obj;
      op_src_ = src;
      op_field_ = f;
      op_dst_ = static_cast<std::uint32_t>(rng_.below(cfg_.registers));
      sb_.set_busy(id_, true);
      if (object_black(obj)) {
        // Black fields are tospace-or-null already.
        const Addr child = m.load(pointer_field_addr(obj, f));
        set_reg(op_dst_, child);
        shadow_[s].kids[f] =
            child == kNullPtr
                ? kNullChild
                : static_cast<std::int64_t>(shadow_of(child));
        progress();
        finish_op();
        return;
      }
      ++stats_.barrier_gray_reads;
      op_orig_ = backlink_of(obj);
      mem_.issue_load(id_, Port::kBody, pointer_field_addr(op_orig_, f));
      state_ = State::kGrayLoad;
      progress();
      return;
    }
  }
  // Nothing suitable this cycle (e.g. every register null): count as gap.
  progress();
}

void MutatorSim::do_gray_load() {
  if (mem_.load_pending(id_, Port::kBody)) {
    stall();
    return;
  }
  auto& m = heap_.memory();
  const std::size_t s = shadow_of(op_obj_);
  if (op_dst_ == ~0u) {
    // Data read via backlink.
    const Word v =
        m.load(data_field_addr(op_orig_, shadow_[s].pi, op_field_));
    if (shadow_[s].data[op_field_] && *shadow_[s].data[op_field_] != v) {
      ++stats_.validation_mismatches;
    }
    shadow_[s].data[op_field_] = v;
    progress();
    finish_op();
    return;
  }
  // Pointer read via backlink: the original may still hold a fromspace
  // pointer — that is exactly what the barrier resolves.
  op_child_ = m.load(pointer_field_addr(op_orig_, op_field_));
  if (op_child_ == kNullPtr || heap_.layout().in_tospace(op_child_)) {
    set_reg(op_dst_, op_child_);
    shadow_[s].kids[op_field_] =
        op_child_ == kNullPtr
            ? kNullChild
            : static_cast<std::int64_t>(shadow_of(op_child_));
    progress();
    finish_op();
    return;
  }
  state_ = State::kChildLock;
  progress();
}

void MutatorSim::do_child_lock() {
  if (!sb_.try_lock_header(id_, attributes_addr(op_child_))) {
    stall();
    return;
  }
  mem_.issue_load(id_, Port::kHeader, attributes_addr(op_child_));
  state_ = State::kChildWait;
  progress();
}

void MutatorSim::do_child_wait() {
  if (mem_.load_pending(id_, Port::kHeader)) {
    stall();
    return;
  }
  const auto& m = heap_.memory();
  const Word attrs = m.load(attributes_addr(op_child_));
  if (is_forwarded(attrs)) {
    const Addr fwd = m.load(link_addr(op_child_));
    sb_.unlock_header(id_);
    set_reg(op_dst_, fwd);
    const std::size_t s = shadow_of(op_obj_);
    shadow_[s].kids[op_field_] = static_cast<std::int64_t>(shadow_of(fwd));
    progress();
    finish_op();
    return;
  }
  state_ = State::kEvacuate;
  progress();
}

void MutatorSim::do_evacuate() {
  if (mem_.store_slots_free(id_, Port::kHeader) < 2) {
    stall();
    return;
  }
  if (!sb_.try_lock_free(id_)) {
    stall();
    return;
  }
  auto& m = heap_.memory();
  const Word attrs = m.load(attributes_addr(op_child_));
  const Word size = object_words(attrs);
  const Addr new_addr = sb_.free();
  assert(new_addr + size <= sb_.alloc_top());
  sb_.set_free(new_addr + size);
  m.store(attributes_addr(op_child_), attrs | kForwardedBit);
  m.store(link_addr(op_child_), new_addr);
  mem_.issue_store(id_, Port::kHeader, attributes_addr(op_child_));
  m.store(attributes_addr(new_addr), attrs);
  m.store(link_addr(new_addr), op_child_);
  mem_.issue_store(id_, Port::kHeader, attributes_addr(new_addr));
  fifo_.push(HeaderFifo::Entry{new_addr, attrs, op_child_});
  sb_.unlock_free(id_);
  sb_.unlock_header(id_);
  ++stats_.barrier_evacuations;
  set_reg(op_dst_, new_addr);
  const std::size_t s = shadow_of(op_obj_);
  shadow_[s].kids[op_field_] = static_cast<std::int64_t>(shadow_of(new_addr));
  progress();
  finish_op();
}

std::size_t MutatorSim::validate() const {
  std::size_t mismatches = stats_.validation_mismatches;
  const auto& m = heap_.memory();
  // Reverse map: shadow index -> tospace address.
  std::vector<Addr> addr_of(shadow_.size(), kNullPtr);
  for (const auto& [a, i] : shadow_index_) addr_of[i] = a;
  // Every shadow node's known facts must hold in the final heap. Shadow
  // nodes are keyed by tospace address, so the index *is* the location.
  for (const auto& [addr, idx] : shadow_index_) {
    const ShadowNode& s = shadow_[idx];
    const Word attrs = m.load(attributes_addr(addr));
    if (!is_black(attrs)) ++mismatches;  // everything must end black
    if (pi_of(attrs) != s.pi || delta_of(attrs) != s.delta) {
      ++mismatches;
      continue;
    }
    for (Word f = 0; f < s.pi; ++f) {
      if (s.kids[f] == kUnknown) continue;
      const Addr actual = m.load(pointer_field_addr(addr, f));
      const Addr expect =
          s.kids[f] == kNullChild
              ? kNullPtr
              : addr_of[static_cast<std::size_t>(s.kids[f])];
      if (actual != expect) ++mismatches;
    }
    for (Word j = 0; j < s.delta; ++j) {
      if (!s.data[j]) continue;
      const Word actual = m.load(data_field_addr(addr, s.pi, j));
      if (actual != *s.data[j]) ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace

ConcurrentStats ConcurrentCycle::run() {
  const std::uint32_t n = cfg_.sim.coprocessor.num_cores;
  const CoreId mut_id = n;  // the main processor participates as slot n

  SyncBlock sb(n + 1);
  MemorySystem mem(cfg_.sim.memory, n + 1);
  HeaderFifo fifo(cfg_.sim.coprocessor.header_fifo_capacity);
  GcContext ctx{sb, mem, fifo, heap_, cfg_.sim.coprocessor};

  const Addr tospace_base = heap_.layout().tospace_base();
  sb.set_scan(tospace_base);
  sb.set_free(tospace_base);
  sb.set_alloc_top(heap_.layout().tospace_end());

  MutatorSim mutator(cfg_, heap_, sb, mem, fifo, mut_id);

  std::vector<GcCore> cores;
  cores.reserve(n);
  for (CoreId id = 0; id < n; ++id) cores.emplace_back(id, ctx);

  // The mutator's barrier still arrives at the start barrier: the SB was
  // built with n+1 participants, so it must check in once.
  sb.barrier_arrive(mut_id);

  ConcurrentStats& stats = mutator.stats();
  Cycle now = 0;
  const std::uint64_t start_gen = sb.barrier_generation();
  bool cores_halted = false;
  // This loop deliberately ignores cfg.coprocessor.fast_forward: the
  // mutator steps every cycle (allocation arrivals are cycle-triggered),
  // so no cycle is ever quiescent in the DESIGN.md §13 sense. Per-tick
  // accounting below is therefore safe here — and only here.
  while (true) {
    mem.tick(now);
    sb.begin_cycle();
    if (!cores_halted) {
      // The mutator steps first each cycle: it raises its busy bit before
      // any core's termination check can run in the same cycle.
      mutator.step(now);
      for (auto& c : cores) c.step(now);
      bool all = true;
      for (const auto& c : cores) all = all && c.done();
      cores_halted = all;
      if (!cores_halted && sb.barrier_generation() > start_gen &&
          sb.worklist_empty()) {
        ++stats.gc.worklist_empty_cycles;
      }
    }
    ++now;
    if (cores_halted && mem.stores_drained()) break;
    if (now >= cfg_.sim.coprocessor.watchdog_cycles) {
      throw std::runtime_error("concurrent cycle watchdog expired");
    }
  }
  mutator.halt();
  assert(!mutator.mid_operation() &&
         "cycle terminated while the mutator held its busy bit");

  const Addr free_final = sb.free();
  heap_.flip();
  heap_.set_alloc_ptr(free_final);

  stats.gc.total_cycles = now;
  stats.gc.words_copied = free_final - tospace_base;
  stats.gc.fifo_overflows = fifo.overflows();
  stats.gc.fifo_hits = fifo.hits();
  stats.gc.fifo_misses = fifo.misses();
  stats.gc.mem_requests = mem.requests_issued();
  stats.gc.lock_order_violations = sb.violations();
  for (const auto& c : cores) {
    stats.gc.per_core.push_back(c.counters());
    stats.gc.objects_copied += c.counters().objects_evacuated;
    stats.gc.pointers_forwarded += c.counters().pointers_processed;
  }
  stats.gc.objects_copied += stats.barrier_evacuations;

  stats.validation_mismatches = mutator.validate();
  return stats;
}

}  // namespace hwgc
