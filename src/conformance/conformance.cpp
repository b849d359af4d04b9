#include "conformance/conformance.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "heap/object_model.hpp"

namespace hwgc {

namespace {

std::string hex(Addr a) {
  std::ostringstream os;
  os << "0x" << std::hex << a;
  return os.str();
}

/// Reads the forwarding map {pre addr -> copy} out of a collected heap and
/// checks that it is injective into the current space and that every copy
/// keeps its object's shape. With `total` every pre-live object must be
/// forwarded; a collector whose mutator may disconnect objects mid-cycle
/// passes false. `who` prefixes every diagnostic. Returns false when the
/// map is unusable for the checks that build on it.
bool extract_forwarding_map(const char* who, const HeapSnapshot& pre,
                            const Heap& post, bool total,
                            std::unordered_map<Addr, Addr>& fwd,
                            std::vector<std::string>& errors) {
  const WordMemory& mem = post.memory();
  const Addr base = post.layout().current_base();
  const Addr end = post.layout().current_end();
  std::unordered_set<Addr> images;
  bool usable = true;
  fwd.reserve(pre.objects.size());
  for (const auto& rec : pre.objects) {
    if (!is_forwarded(mem.load(attributes_addr(rec.addr)))) {
      if (total) {
        errors.push_back(std::string(who) + ": live object " + hex(rec.addr) +
                         " has no forwarding pointer");
        usable = false;
      }
      continue;
    }
    const Addr copy = mem.load(link_addr(rec.addr));
    const bool outside = copy < base || copy >= end;
    if (outside || !images.insert(copy).second) {
      errors.push_back(std::string(who) + ": forwarding map " +
                       (outside ? "outside the current space"
                                : "not injective") +
                       " at copy " + hex(copy));
      usable = false;
      continue;
    }
    fwd.emplace(rec.addr, copy);
    const Word cattrs = mem.load(attributes_addr(copy));
    if (pi_of(cattrs) != rec.pi || delta_of(cattrs) != rec.delta) {
      errors.push_back(std::string(who) + ": copy of " + hex(rec.addr) +
                       " changed shape");
    }
  }
  return usable;
}

/// Byte-for-byte equivalence of two collectors' tospace images modulo copy
/// order: for every pre-live object, the two copies must have the same
/// shape, the same data words, and pointer fields denoting the same
/// pre-cycle child (resolved through each heap's own forwarding map).
void cross_compare_images(const char* a_name, const char* b_name,
                          const HeapSnapshot& pre, const Heap& a,
                          const Heap& b,
                          const std::unordered_map<Addr, Addr>& fwd_a,
                          const std::unordered_map<Addr, Addr>& fwd_b,
                          std::vector<std::string>& errors) {
  for (const auto& rec : pre.objects) {
    const Addr ca = fwd_a.at(rec.addr);
    const Addr cb = fwd_b.at(rec.addr);
    const Word attrs_a = a.memory().load(attributes_addr(ca));
    const Word attrs_b = b.memory().load(attributes_addr(cb));
    if (pi_of(attrs_a) != pi_of(attrs_b) ||
        delta_of(attrs_a) != delta_of(attrs_b)) {
      errors.push_back("image shapes diverge for pre object " + hex(rec.addr));
      continue;
    }
    for (Word i = 0; i < rec.pi; ++i) {
      const Addr old_child = rec.pointers[i];
      const Addr want_a = old_child == kNullPtr ? kNullPtr : fwd_a.at(old_child);
      const Addr want_b = old_child == kNullPtr ? kNullPtr : fwd_b.at(old_child);
      const Addr got_a = a.memory().load(pointer_field_addr(ca, i));
      const Addr got_b = b.memory().load(pointer_field_addr(cb, i));
      if (got_a != want_a || got_b != want_b) {
        errors.push_back("pointer field " + std::to_string(i) +
                         " of pre object " + hex(rec.addr) +
                         " denotes different children: " + a_name + " " +
                         hex(got_a) + "/" + hex(want_a) + ", " + b_name + " " +
                         hex(got_b) + "/" + hex(want_b));
      }
    }
    for (Word j = 0; j < rec.delta; ++j) {
      const Word da = a.memory().load(data_field_addr(ca, rec.pi, j));
      const Word db = b.memory().load(data_field_addr(cb, rec.pi, j));
      if (da != db) {
        errors.push_back("data word " + std::to_string(j) + " of pre object " +
                         hex(rec.addr) + " diverges: " + std::to_string(da) +
                         " != " + std::to_string(db));
      }
    }
  }
}

/// A fault-injected run must recover, and its fault accounting must add
/// up: the plan holds the requested events, the attempts account for
/// every firing, and the log records each one. Returns false when the run
/// did not recover (the heap holds the restored pre-cycle image).
bool check_recovery(const char* who, const RecoveryReport& r,
                    std::vector<std::string>& errors) {
  if (!r.ok) {
    errors.push_back(std::string(who) + ": recovery failed: " + r.summary());
    return false;
  }
  if (r.faults_injected != r.faults_requested) {
    errors.push_back(std::string(who) + ": fault plan holds " +
                     std::to_string(r.faults_injected) +
                     " events, config requested " +
                     std::to_string(r.faults_requested));
  }
  std::uint64_t fired = 0;
  for (const auto& a : r.attempts) fired += a.faults_fired;
  if (fired != r.faults_fired) {
    errors.push_back(std::string(who) +
                     ": fault accounting mismatch: attempts account for " +
                     std::to_string(fired) + " firings, injector reports " +
                     std::to_string(r.faults_fired));
  }
  if (r.faults_fired != r.fault_log.size()) {
    errors.push_back(std::string(who) + ": fault log holds " +
                     std::to_string(r.fault_log.size()) + " entries for " +
                     std::to_string(r.faults_fired) + " firings");
  }
  return true;
}

/// The original root slots — the prefix before the mutator registers,
/// which the mutators never write — must be redirected through `fwd`.
void check_root_redirects(const char* who, const HeapSnapshot& pre,
                          const Heap& post,
                          const std::unordered_map<Addr, Addr>& fwd,
                          std::vector<std::string>& errors) {
  const auto& roots = post.roots();
  for (std::size_t i = 0; i < pre.roots.size() && i < roots.size(); ++i) {
    const Addr old_root = pre.roots[i];
    if (old_root == kNullPtr) continue;
    const auto it = fwd.find(old_root);
    if (it == fwd.end()) {
      errors.push_back(std::string(who) + ": root " + std::to_string(i) +
                       " referent " + hex(old_root) + " was never evacuated");
    } else if (roots[i] != it->second) {
      errors.push_back(std::string(who) + ": root " + std::to_string(i) +
                       " not forwarded: holds " + hex(roots[i]) +
                       ", copy is at " + hex(it->second));
    }
  }
}

/// The concurrent collector's checks: its mutator may disconnect pre-live
/// objects mid-cycle (incremental update loses them by design) and keeps
/// rewriting fields, so the oracle verifies the *evacuated subset* — every
/// forwarded pre-live object maps injectively into a dense evacuation
/// extent [base, alloc_ptr), shapes survive, the untouched root prefix is
/// redirected, and the collector's own counters agree with the subset.
void check_concurrent_structure(const char* who, const HeapSnapshot& pre,
                                const Heap& post, const CycleReport& report,
                                std::vector<std::string>& errors) {
  const Addr base = post.layout().current_base();
  std::unordered_map<Addr, Addr> fwd;
  if (!extract_forwarding_map(who, pre, post, /*total=*/false, fwd, errors)) {
    return;
  }

  // The evacuated copies must tile [base, alloc_ptr) exactly — evacuation
  // stays dense even while the mutator bump-allocates from the top.
  std::vector<Addr> sorted;
  sorted.reserve(fwd.size());
  for (const auto& entry : fwd) sorted.push_back(entry.second);
  std::sort(sorted.begin(), sorted.end());
  Addr end = base;
  for (Addr copy : sorted) {
    if (copy != end) {
      errors.push_back(std::string(who) +
                       ": evacuated copies do not tile the evacuation "
                       "extent: expected image at " +
                       hex(end) + ", next is " + hex(copy));
      return;
    }
    end += object_words(post.memory().load(attributes_addr(copy)));
  }
  if (end != post.alloc_ptr()) {
    errors.push_back(std::string(who) +
                     ": evacuation extent ends at " + hex(end) +
                     ", published alloc pointer is " + hex(post.alloc_ptr()));
  }
  const std::uint64_t evac_words = end - base;
  if (report.words_copied != evac_words) {
    errors.push_back(std::string(who) + ": words_copied counter " +
                     std::to_string(report.words_copied) + " != " +
                     std::to_string(evac_words) + " evacuated words");
  }
  if (report.evacuations != fwd.size()) {
    errors.push_back(std::string(who) + ": evacuation count " +
                     std::to_string(report.evacuations) + " != " +
                     std::to_string(fwd.size()) + " forwarded objects");
  }
  check_root_redirects(who, pre, post, fwd, errors);
}

/// The pauseless snapshot collector's checks. SATB gives a *stronger*
/// property than the incremental-update concurrent cycle: every object live
/// at the snapshot is evacuated (totality), even if the racing mutators
/// dropped their last reference mid-cycle. The evacuation extent also holds
/// copies of mid-cycle allocations that became root-reachable, so instead
/// of tiling the extent with snapshot copies the oracle walks it header by
/// header and verifies it is closed: every copy is complete (black), every
/// pointer field lands on a copy start or null, every root slot does too,
/// and the collector's counters agree with the walk.
void check_snapshot_structure(const char* who, const HeapSnapshot& pre,
                              const Heap& post, const CycleReport& report,
                              std::vector<std::string>& errors) {
  const WordMemory& mem = post.memory();
  const Addr base = post.layout().current_base();
  const Addr end = post.alloc_ptr();
  std::unordered_map<Addr, Addr> fwd;
  // SATB totality: every object live at the snapshot was evacuated.
  if (!extract_forwarding_map(who, pre, post, /*total=*/true, fwd, errors)) {
    return;
  }

  // Walk the dense evacuation extent [base, alloc_ptr): snapshot copies
  // interleave with copies of newly reachable mid-cycle allocations.
  std::unordered_set<Addr> starts;
  std::uint64_t walked = 0;
  Addr a = base;
  while (a < end) {
    const Word attrs = mem.load(attributes_addr(a));
    if (!is_black(attrs)) {
      errors.push_back(std::string(who) + ": copy at " + hex(a) +
                       " missing the copy-complete (black) bit");
      return;
    }
    starts.insert(a);
    ++walked;
    a += object_words(attrs);
  }
  if (a != end) {
    errors.push_back(std::string(who) + ": evacuation extent walk overruns "
                     "the published alloc pointer at " + hex(a));
    return;
  }
  for (const auto& [from, copy] : fwd) {
    if (starts.find(copy) == starts.end()) {
      errors.push_back(std::string(who) + ": snapshot copy " + hex(copy) +
                       " of " + hex(from) + " lies outside the evacuation "
                       "extent");
    }
  }
  // Closure: no pointer field of any copy may dangle outside the extent.
  for (const Addr s : starts) {
    const Word attrs = mem.load(attributes_addr(s));
    for (Word i = 0; i < pi_of(attrs); ++i) {
      const Addr v = mem.load(pointer_field_addr(s, i));
      if (v != kNullPtr && starts.find(v) == starts.end()) {
        errors.push_back(std::string(who) + ": field " + std::to_string(i) +
                         " of copy " + hex(s) + " dangles to " + hex(v));
      }
    }
  }

  if (report.evacuations != walked) {
    errors.push_back(std::string(who) + ": evacuation count " +
                     std::to_string(report.evacuations) + " != " +
                     std::to_string(walked) + " copies in the extent");
  }
  if (report.objects_copied != walked) {
    errors.push_back(std::string(who) + ": objects_copied counter " +
                     std::to_string(report.objects_copied) + " != " +
                     std::to_string(walked) + " copies in the extent");
  }
  if (report.words_copied != end - base) {
    errors.push_back(std::string(who) + ": words_copied counter " +
                     std::to_string(report.words_copied) + " != " +
                     std::to_string(end - base) + " extent words");
  }

  // Every root slot, mutator registers included, must land inside the
  // extent.
  check_root_redirects(who, pre, post, fwd, errors);
  const auto& roots = post.roots();
  for (std::size_t i = 0; i < roots.size(); ++i) {
    if (roots[i] != kNullPtr && starts.find(roots[i]) == starts.end()) {
      errors.push_back(std::string(who) + ": root " + std::to_string(i) +
                       " points outside the evacuation extent: " +
                       hex(roots[i]));
    }
  }
}

}  // namespace

std::string ConformanceVerdict::summary() const {
  if (ok) return "OK";
  std::ostringstream os;
  os << errors.size() << " conformance error(s):";
  for (const auto& e : errors) os << "\n  - " << e;
  return os.str();
}

double conformance_heap_factor(CollectorId id, const ConformanceCase& c) {
  const CollectorTraits t = traits_of(id);
  double factor = 2.0;  // the paper's rule of thumb (Section VI-B)
  if (t.threaded && !t.dense) {
    // Chunk/LAB collectors clamp their allocation unit to
    // semispace / (4 * threads) with a 16-word floor, so heavy
    // oversubscription of a small graph can burn more tospace in
    // per-thread slack than the 2x rule leaves. Scale headroom with the
    // thread count so the floor-sized chunks of every thread always fit.
    const double live =
        static_cast<double>(std::max<std::uint64_t>(1, c.plan.live_words()));
    factor += static_cast<double>(c.harness.cores) * 64.0 / live;
  }
  if (t.concurrent_mutator) {
    // Real mutator threads bump-allocate fromspace while the cycle runs;
    // give them room to make progress before they hit the backoff path.
    factor += 1.0;
  }
  return factor * c.extra_heap_factor;
}

void check_post_structure(CollectorId id, const HeapSnapshot& pre,
                          const Heap& post, const CycleReport& report,
                          std::vector<std::string>& errors) {
  const CollectorTraits t = traits_of(id);
  const char* who = to_string(id);

  if (report.recovery && !check_recovery(who, *report.recovery, errors)) {
    return;
  }
  for (const auto& x : report.lock_order_violations) {
    errors.push_back(std::string(who) + ": lock order: " + x);
  }
  if (report.validation_mismatches != 0) {
    errors.push_back(std::string(who) + ": " +
                     std::to_string(report.validation_mismatches) +
                     " shadow-graph validation mismatches");
  }

  if (t.concurrent_mutator) {
    check_snapshot_structure(who, pre, post, report, errors);
    return;
  }
  if (!t.preserves_image) {
    check_concurrent_structure(who, pre, post, report, errors);
    return;
  }

  // Liveness preservation + (where promised) dense compaction: the copies
  // tile tospace from its base, with the allocation pointer at their end.
  VerifyOptions opts;
  opts.require_dense = t.dense;
  const VerifyResult vr = verify_collection(pre, post, opts);
  for (const auto& e : vr.errors) {
    errors.push_back(std::string(who) + ": " + e);
  }

  // Forwarding-map bijectivity.
  std::unordered_map<Addr, Addr> fwd;
  extract_forwarding_map(who, pre, post, /*total=*/true, fwd, errors);

  // Single-evacuation counters: injectivity above rules out double copies,
  // the collector's own counter rules out phantom or lost evacuations.
  if (report.evacuations != pre.objects.size()) {
    errors.push_back(std::string(who) + ": evacuation count " +
                     std::to_string(report.evacuations) + " != " +
                     std::to_string(pre.objects.size()) + " live objects");
  }
  if (report.objects_copied != pre.objects.size()) {
    errors.push_back(std::string(who) + ": objects_copied counter " +
                     std::to_string(report.objects_copied) + " != " +
                     std::to_string(pre.objects.size()) + " live objects");
  }
  if (report.words_copied != pre.live_words) {
    errors.push_back(std::string(who) + ": words_copied counter " +
                     std::to_string(report.words_copied) + " != " +
                     std::to_string(pre.live_words) + " live words");
  }

  // Fragmentation accounting: everything the collector took from tospace
  // is either a landed live word or admitted waste.
  const std::uint64_t consumed = post.alloc_ptr() - post.layout().current_base();
  if (report.words_copied + report.wasted_words != consumed) {
    errors.push_back(std::string(who) + ": tospace accounting: " +
                     std::to_string(report.words_copied) + " copied + " +
                     std::to_string(report.wasted_words) + " wasted != " +
                     std::to_string(consumed) + " words consumed");
  }
  if (t.dense && report.wasted_words != 0) {
    errors.push_back(std::string(who) + ": dense collector reported " +
                     std::to_string(report.wasted_words) + " wasted words");
  }
}

ConformanceVerdict run_conformance_case(CollectorId id,
                                        const ConformanceCase& c) {
  ConformanceVerdict v;
  const CollectorTraits t = traits_of(id);
  const char* who = to_string(id);

  Workload w = materialize(c.plan, conformance_heap_factor(id, c));
  const HeapSnapshot pre = HeapSnapshot::capture(*w.heap);
  v.live_objects = pre.objects.size();
  v.live_words = pre.live_words;

  auto harness = make_harness(id, c.harness);
  try {
    v.report = harness->collect(*w.heap);
  } catch (const std::exception& e) {
    v.fail(std::string(who) + " threw: " + e.what());
    return v;
  }

  {
    std::vector<std::string> errs;
    check_post_structure(id, pre, *w.heap, v.report, errs);
    for (auto& e : errs) v.fail(std::move(e));
  }

  // Cross-collector equivalence: the same plan through the sequential
  // reference must yield the identical image modulo copy order.
  if (t.preserves_image && c.cross_compare && v.ok) {
    Workload ref = materialize(c.plan, conformance_heap_factor(id, c));
    const HeapSnapshot pre_ref = HeapSnapshot::capture(*ref.heap);
    if (pre_ref.objects.size() != pre.objects.size()) {
      v.fail("materialization diverged between the two heaps");
      return v;
    }
    SequentialCheney::collect(*ref.heap);
    std::vector<std::string> errs;
    std::unordered_map<Addr, Addr> fwd, fwd_ref;
    const bool a_ok =
        extract_forwarding_map(who, pre, *w.heap, /*total=*/true, fwd, errs);
    const bool b_ok = extract_forwarding_map("sequential", pre_ref, *ref.heap,
                                             /*total=*/true, fwd_ref, errs);
    if (a_ok && b_ok) {
      cross_compare_images(who, "sequential", pre, *w.heap, *ref.heap, fwd,
                           fwd_ref, errs);
    }
    for (auto& e : errs) v.fail(std::move(e));
  }

  // Idempotence: an immediate second cycle over the freshly collected heap
  // must preserve the graph again and copy exactly the same live set. The
  // concurrent collector's second cycle goes through the sequential
  // reference instead — re-running its mutator would change the graph.
  if (c.check_idempotence && v.ok) {
    const HeapSnapshot pre2 = HeapSnapshot::capture(*w.heap);
    if (t.preserves_image && pre2.objects.size() != pre.objects.size()) {
      v.fail(std::string(who) + ": re-collection sees " +
             std::to_string(pre2.objects.size()) + " live objects, first "
             "cycle had " + std::to_string(pre.objects.size()));
      return v;
    }
    std::vector<std::string> errs;
    if (t.preserves_image) {
      CycleReport second;
      try {
        second = harness->collect(*w.heap);
      } catch (const std::exception& e) {
        v.fail(std::string(who) + " threw on re-collection: " + e.what());
        return v;
      }
      check_post_structure(id, pre2, *w.heap, second, errs);
    } else {
      SequentialCheney::collect(*w.heap);
      const VerifyResult vr = verify_collection(pre2, *w.heap);
      errs = vr.errors;
    }
    for (auto& e : errs) v.fail("recollect: " + std::move(e));
  }

  return v;
}

void CycleOracle::before_collection(Runtime& rt) {
  pre_ = HeapSnapshot::capture(rt.heap());
}

void CycleOracle::after_collection(Runtime& rt, const GcCycleStats&) {
  std::vector<std::string> errors;
  check_post_structure(rt.collector_id(), pre_, rt.heap(), rt.last_report(),
                       errors);
  // The snapshot is dead until the next cycle: do not hold it meanwhile.
  pre_ = HeapSnapshot{};
  failures_ += errors.size();
  for (std::string& e : errors) {
    if (findings_.size() >= max_findings_) break;
    findings_.push_back(label_ + "cycle " +
                        std::to_string(rt.gc_history().size() - 1) + ": " +
                        std::move(e));
  }
}

}  // namespace hwgc
