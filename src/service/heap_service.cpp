#include "service/heap_service.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include <map>

#include "conformance/conformance.hpp"
#include "heap/object_model.hpp"
#include "service/checkpoint.hpp"
#include "trace/replayer.hpp"

namespace hwgc {

namespace {

/// Independent per-shard streams from one service seed.
std::uint64_t shard_seed(std::uint64_t base, std::size_t shard) {
  std::uint64_t s = base + 0x9e3779b97f4a7c15ULL * (shard + 1);
  return splitmix64(s);
}

/// Churn budget per request kind, in churn steps. Allocation-heavy
/// requests churn more (sessions building state), releases less (teardown
/// is cheap), and a read is one read; the churn's own policy keeps the
/// mirror consistent whatever the mix.
std::uint32_t steps_for(RequestKind kind, std::uint32_t base) {
  switch (kind) {
    case RequestKind::kAllocate: return base + 2;
    case RequestKind::kMutate: return base;
    case RequestKind::kRelease: return base > 2 ? base / 2 : 1;
    case RequestKind::kRead: return 1;
    case RequestKind::kCount: break;
  }
  return 0;
}

/// Trace budget per request kind, in ops — same shape bias as steps_for,
/// scaled up because one trace op is much lighter than one churn step.
std::size_t trace_ops_for(RequestKind kind, std::uint32_t base) {
  const std::size_t b = std::max<std::uint32_t>(base, 1);
  switch (kind) {
    case RequestKind::kAllocate: return b + b / 2;
    case RequestKind::kMutate: return b;
    case RequestKind::kRelease: return std::max<std::size_t>(b / 2, 1);
    case RequestKind::kRead: return std::max<std::size_t>(b / 2, 1);
    case RequestKind::kCount: break;
  }
  return 1;
}

}  // namespace

/// One shard: a full Runtime + its sessions' cursors + virtual-time
/// bookkeeping.
/// Doubles as the runtime's CollectionObserver so scheduled AND
/// exhaustion-triggered cycles get identical oracle + stall accounting.
struct HeapService::ShardState final : CollectionObserver {
  ShardState(std::size_t index_, const ServiceConfig& cfg,
             const FaultStorm& storm)
      : index(index_),
        oracle_on(cfg.oracle),
        resilient(cfg.resilience.enabled()),
        profiling(cfg.profile.enabled),
        pauseless(cfg.scheduler == GcSchedulerKind::kPauseless),
        exemplar_cap(cfg.profile.exemplars),
        checkpoint_interval(cfg.resilience.checkpoint_interval),
        sessions(cfg.traffic.sessions),
        traces(cfg.traces),
        // Pauseless: every cycle on this shard — scheduled or exhaustion-
        // triggered — runs through the SATB snapshot collector. One worker
        // thread keeps the quiescent cycle bit-deterministic (the byte-
        // identity proof across host thread counts depends on it); the
        // runtime runs it without mutator threads because the shard's
        // sessions ARE the mutator — their stores all land between cycles.
        rt(cfg.semispace_words, shard_sim_config(index_, cfg, storm),
           pauseless ? CollectorId::kSnapshot : CollectorId::kCoprocessor,
           one_worker()),
        oracle("shard " + std::to_string(index_) + ": ", 16) {
    if (traces == nullptr) {
      cursors.emplace(0, TraceCursor(ChurnSource(shard_churn_config(index_,
                                                                    cfg))));
    }
    rt.set_collection_observer(this);
    if (profiling) rt.enable_profiling();
    if (resilient) {
      // Checkpoint 0: the pristine construction state, so a restore is
      // always possible even before the first verified-clean cycle.
      take_checkpoint();
      slo_ring.assign(std::max<std::uint32_t>(cfg.resilience.slo_window, 1),
                      0);
    }
  }

  static SimConfig shard_sim_config(std::size_t index,
                                    const ServiceConfig& cfg,
                                    const FaultStorm& storm) {
    SimConfig sim = cfg.sim;
    if (cfg.fault_shard == index && cfg.fault_events > 0) {
      sim.fault.events = cfg.fault_events;
      sim.fault.seed = shard_seed(cfg.fault_seed, index);
    }
    if (storm.enabled() && storm.stormed(index)) {
      sim.fault = storm_fault_config(storm, index, sim.fault,
                                     storm.initially_active(index));
      // Keep the detection/recovery machinery armed through calm burst
      // windows too: every collection on a stormed shard goes through the
      // RecoveringCollector, so its counters stay in one family.
      sim.recovery.enabled = true;
    }
    return sim;
  }

  static HarnessConfig one_worker() {
    HarnessConfig hc;
    hc.cores = 1;
    return hc;
  }

  static ChurnSource::Config shard_churn_config(std::size_t index,
                                               const ServiceConfig& cfg) {
    ChurnSource::Config m = cfg.traffic.churn;
    m.seed = shard_seed(cfg.traffic.seed, index);
    // The churn's steady-state live set runs about 2× target_live objects
    // of mean shape (interior links keep released roots reachable). Clamp
    // target_live so that fits in half the semispace — a shard whose live
    // set alone exceeds capacity fails its allocating requests on "heap
    // exhausted even after a collection", which no scheduler can prevent.
    const Word mean_words =
        kHeaderWords + (m.max_pi + m.max_delta) / 2;
    const std::size_t cap = static_cast<std::size_t>(
        cfg.semispace_words / (4 * std::max<Word>(mean_words, 1)));
    m.target_live = std::max<std::size_t>(1, std::min(m.target_live, cap));
    return m;
  }

  // --- CollectionObserver ---------------------------------------------------

  void before_collection(Runtime& r) override {
    if (oracle_on) oracle.before_collection(r);
  }

  void after_collection(Runtime& r, const GcCycleStats& s) override {
    ++stats.collections;
    stats.gc_cycle_total += s.total_cycles;
    // Pauseless split: only the two rendezvous pauses block the shard; the
    // concurrent copying phase becomes debt drained as per-request service
    // overhead (execute_request) instead of stall.
    Cycle blocking = s.total_cycles;
    if (const auto& snap = r.last_report().snapshot; snap.has_value()) {
      blocking = snap->pause_cycles;
      concurrent_debt += snap->concurrent_cycles;
    }
    pending_gc += blocking;
    if (profiling) {
      // Link key for the exemplar span trees: the slot this cycle took in
      // the runtime's gc_history / profile_history (pushed just before the
      // observer ran). The charge carries only the stall-chargeable cycles.
      pending_charges.push_back(
          {static_cast<long long>(r.gc_history().size()) - 1, blocking});
    }
    requests_since_gc = 0;
    if (!r.recovery_history().empty()) {
      const RecoveryReport& rep = r.recovery_history().back();
      if (rep.faults_fired > 0 || rep.attempts.size() > 1) {
        ++stats.recovered_collections;
      }
      // Escalated recoveries — anything beyond a clean first attempt —
      // feed the supervisor's degrade/quarantine thresholds.
      if (rep.attempts.size() > 1 || rep.used_sequential_fallback ||
          !rep.deconfigured.empty()) {
        ++escalations;
      }
    }
    std::uint64_t errors = 0;
    if (oracle_on) {
      const std::uint64_t before = oracle.failures();
      oracle.after_collection(r, s);
      errors = oracle.failures() - before;
      stats.oracle_failures += errors;
    }
    // Verified-clean cycle boundary: the only place a checkpoint may be
    // taken (the service never checkpoints state it has not verified —
    // with the oracle off, every completed cycle counts as clean).
    if (resilient && checkpoint_interval > 0 && errors == 0) {
      if (++clean_cycles >= checkpoint_interval) {
        take_checkpoint();
        clean_cycles = 0;
      }
    }
  }

  void take_checkpoint() {
    checkpoint = ShardCheckpoint::capture(index, sessions, rt, cursors,
                                          stats.collections);
    ++stats.checkpoints;
    completed_since_checkpoint = 0;
  }

  /// Quarantine response, on the shard's lane: rewinds heap + cursors to
  /// the last verified-clean checkpoint (digest-checked) and occupies the
  /// shard until `ready`. Completions since the checkpoint are counted
  /// rolled_back; a digest mismatch refuses the restore (the shard then
  /// continues from its crash-consistent pre-cycle image — the recovery
  /// ladder already restored that — and the mismatch is counted).
  void run_restore(Cycle ready) {
    ++stats.restores;
    if (checkpoint.has_value() && checkpoint->restore_into(rt, cursors)) {
      stats.rolled_back += completed_since_checkpoint;
    } else {
      ++stats.checkpoint_digest_failures;
    }
    completed_since_checkpoint = 0;
    clean_cycles = 0;
    gc_backlog = 0;
    pending_gc = 0;
    concurrent_debt = 0;
    pending_charges.clear();
    uncharged.clear();
    requests_since_gc = 0;
    ring_pos = 0;
    ring_size = 0;
    ring_violations = 0;
    next_free = std::max(next_free, ready);
  }

  /// The cursor serving `session`: the shard's one churn cursor, or the
  /// session's own replay cursor over traces[session % traces.size()],
  /// built on first use.
  TraceCursor& session_cursor(std::uint32_t session) {
    if (traces == nullptr) return cursors.begin()->second;
    auto it = cursors.find(session);
    if (it == cursors.end()) {
      const std::vector<Trace>& ts = *traces;
      const Trace* t = &ts[session % ts.size()];
      it = cursors.emplace(session, TraceCursor(t, /*wrap=*/true)).first;
    }
    return it->second;
  }

  Cycle take_pending_gc() noexcept {
    const Cycle g = pending_gc;
    pending_gc = 0;
    return g;
  }

  std::vector<GcCharge> take_pending_charges() {
    std::vector<GcCharge> c = std::move(pending_charges);
    pending_charges.clear();
    return c;
  }

  const std::size_t index;
  const bool oracle_on;
  const bool resilient;
  const bool profiling;
  const bool pauseless;
  const std::size_t exemplar_cap;
  const std::uint32_t checkpoint_interval;
  const std::uint32_t sessions;
  /// Shared corpus keep-alive for trace sessions (null = churn).
  const std::shared_ptr<const std::vector<Trace>> traces;
  Runtime rt;
  CycleOracle oracle;
  /// Session cursors, lane-owned: one churn cursor (key 0) or one replay
  /// cursor per trace session. std::map keeps the walk and the checkpoint
  /// digest in session order.
  std::map<std::uint32_t, TraceCursor> cursors;

  Cycle next_free = 0;          ///< virtual cycle the backlog drains
  Cycle gc_backlog = 0;         ///< collection cycles inside the backlog
                                ///< not yet charged to any request
  std::uint64_t requests_since_gc = 0;
  Cycle pending_gc = 0;         ///< cycles collected since last harvest
  /// Pauseless mode: concurrent-phase cycles not yet drained into any
  /// request's service overhead (always 0 under the STW schedulers).
  Cycle concurrent_debt = 0;

  // --- Profiling state (lane-owned, mirrors the cycle bookkeeping above;
  // all empty when profiling is off) --------------------------------------
  std::vector<GcCharge> pending_charges;  ///< charge twins of pending_gc
  std::vector<GcCharge> uncharged;        ///< charge twins of gc_backlog
  std::vector<RequestExemplar> exemplars; ///< this lane's K slowest

  SloStats stats;

  // --- Resilience state (lane-owned; conductor reads only after a join) --
  std::uint64_t escalations = 0;  ///< cumulative escalated recoveries
  std::uint64_t failures = 0;     ///< cumulative unrecoverable failures
  std::uint64_t clean_cycles = 0; ///< clean cycles since last checkpoint
  std::uint64_t completed_since_checkpoint = 0;
  std::optional<ShardCheckpoint> checkpoint;
  /// SLO-burn sliding window over recent completions (1 = violation).
  std::vector<std::uint8_t> slo_ring;
  std::size_t ring_pos = 0;
  std::uint64_t ring_size = 0;
  std::uint64_t ring_violations = 0;
};

HeapService::HeapService(const ServiceConfig& cfg)
    : cfg_(cfg),
      traffic_(cfg.traffic, cfg.shards),
      scheduler_(make_scheduler(cfg.scheduler, cfg.scheduling)) {
  if (cfg_.shards == 0) {
    throw std::invalid_argument("HeapService: need at least one shard");
  }
  if (cfg_.fault_shard != ServiceConfig::kNoShard &&
      cfg_.fault_shard >= cfg_.shards) {
    throw std::invalid_argument("HeapService: fault_shard out of range");
  }
  if (cfg_.scheduler == GcSchedulerKind::kPauseless &&
      (cfg_.fault_shard != ServiceConfig::kNoShard || cfg_.storm.enabled() ||
       cfg_.sim.fault.events > 0 || cfg_.sim.recovery.enabled)) {
    // Faulted shards collect through the coprocessor's RecoveringCollector;
    // the snapshot collector has no fault-injection model, so a Runtime
    // running it refuses a faulted config.
    throw std::invalid_argument(
        "HeapService: the pauseless scheduler cannot run with fault "
        "injection or recovery (the snapshot collector replaces the "
        "coprocessor path the fault model instruments)");
  }
  if (cfg_.storm.enabled() && cfg_.storm.crash_period > 0 &&
      !cfg_.resilience.supervise) {
    throw std::invalid_argument(
        "HeapService: storm crash_period needs resilience.supervise (a "
        "crashed shard must be quarantined and restored)");
  }
  if (cfg_.traces != nullptr) {
    if (cfg_.traces->empty()) {
      throw std::invalid_argument("HeapService: trace list is empty");
    }
    // Every session's live set is bounded by its trace's recorded semispace
    // (the trace was captured inside one). Sessions pinned to a shard share
    // its heap, so size the shard for the worst case — all of its sessions
    // at their recorded bound at once, plus one trace of allocation slack —
    // or the default 8192 words wedges under ~16 replaying sessions.
    Word max_trace = 0;
    for (const Trace& t : *cfg_.traces) {
      max_trace = std::max(max_trace, t.header.semispace_words);
    }
    const std::size_t per_shard =
        (cfg_.traffic.sessions + cfg_.shards - 1) / cfg_.shards;
    const std::uint64_t required =
        (static_cast<std::uint64_t>(per_shard) + 1) * max_trace;
    if (required > std::numeric_limits<Word>::max()) {
      throw std::invalid_argument(
          "HeapService: trace-driven shard heap needs " +
          std::to_string(required) +
          " words, beyond the Word range; spread sessions over more shards "
          "or replay smaller traces");
    }
    cfg_.semispace_words =
        std::max(cfg_.semispace_words, static_cast<Word>(required));
  }
  storm_ = FaultStorm(cfg_.storm, cfg_.shards);
  if (cfg_.resilience.enabled()) {
    supervisor_ =
        std::make_unique<ShardSupervisor>(cfg_.shards, cfg_.resilience);
  }
  shards_.reserve(cfg_.shards);
  for (std::size_t i = 0; i < cfg_.shards; ++i) {
    shards_.push_back(std::make_unique<ShardState>(i, cfg_, storm_));
  }
  fleet_size_view_.resize(cfg_.shards);
  for (std::size_t i = 0; i < cfg_.shards; ++i) {
    fleet_size_view_[i].shard = i;
  }
  rebuild_pool();
}

HeapService::~HeapService() = default;

void HeapService::rebuild_pool() {
  // One lane per shard. A cycle observer is shared mutable state across
  // every shard's runtime, so its presence forces the inline (serial)
  // engine; serve() fully drains before returning, so swapping engines
  // between serves is safe.
  const std::size_t threads = cycle_obs_ != nullptr ? 1 : cfg_.host_threads;
  pool_ = std::make_unique<ShardPool>(cfg_.shards, threads);
}

ShardObservation HeapService::observe(std::size_t shard) const {
  const ShardState& s = *shards_.at(shard);
  ShardObservation o;
  o.shard = shard;
  o.occupancy = static_cast<double>(s.rt.words_in_use()) /
                static_cast<double>(s.rt.heap().capacity_words());
  o.live_roots = s.rt.live_roots();
  o.root_high_water = s.rt.root_high_water();
  o.requests_since_gc = s.requests_since_gc;
  o.backlog = s.next_free > now_ ? s.next_free - now_ : 0;
  o.collections = s.stats.collections;
  return o;
}

std::vector<ShardObservation> HeapService::observations(Cycle at) const {
  std::vector<ShardObservation> v;
  v.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    ShardObservation o = observe(i);
    o.backlog = shards_[i]->next_free > at ? shards_[i]->next_free - at : 0;
    v.push_back(o);
  }
  return v;
}

void HeapService::run_scheduled_collection(ShardState& shard, Cycle at) {
  shard.pending_gc = 0;
  shard.pending_charges.clear();
  // The observer handles oracle + per-cycle accounting. A scheduler-forced
  // cycle can die unrecoverable on a faulted shard; record the failure for
  // the supervisor instead of unwinding the conductor. The failed attempt
  // published nothing (observer never ran), so neither collections nor
  // scheduled_collections counts it.
  try {
    shard.rt.collect();
  } catch (const std::runtime_error&) {
    ++shard.failures;
    return;
  }
  const Cycle dur = shard.take_pending_gc();
  shard.next_free = std::max(shard.next_free, at) + dur;
  shard.gc_backlog += dur;
  if (shard.profiling) {
    // The cycles went into the backlog; their charge records ride along
    // until a later completion inherits them as stall.
    std::vector<GcCharge> c = shard.take_pending_charges();
    shard.uncharged.insert(shard.uncharged.end(), c.begin(), c.end());
  }
  ++shard.stats.scheduled_collections;
}

/// Everything that touches only the target shard's state — runs on the
/// shard's pool lane (or inline in serial mode). `req.arrival` is final by
/// the time this executes; the lane's FIFO order makes the shard see the
/// exact serial sequence of collections and requests. `penalty` is retry
/// backoff accrued over `hops` failover hops (part of the request's queue
/// latency); `req_id` is the conductor-assigned fleet-unique id exemplar
/// capture keys on.
void HeapService::execute_request(ShardState& sh, const Request& req,
                                  Cycle penalty, std::uint32_t hops,
                                  std::uint64_t req_id) {
  ++sh.stats.offered;
  const Cycle start = std::max(req.arrival + penalty, sh.next_free);
  const Cycle wait = start - req.arrival;
  // Collection debt from earlier dispatches drains into this request's
  // stall component — charged to at most one request, never two. The
  // shard is a FIFO server, so by `start` its queue (GC included) has
  // fully drained: whatever debt this wait did not cover elapsed before
  // the request arrived and delayed nobody. That discarded remainder is
  // precisely the GC a proactive scheduler hides in idle time.
  const Cycle inherited_stall = std::min(wait, sh.gc_backlog);
  const Cycle prior_gc_backlog = sh.gc_backlog;
  sh.gc_backlog = 0;
  std::vector<GcCharge> inherited;
  if (sh.profiling) {
    inherited = std::move(sh.uncharged);
    sh.uncharged.clear();
  }

  sh.pending_gc = 0;
  sh.pending_charges.clear();
  // Advance the session's cursor by the request's budget. Reads verify
  // their digests as they go; collections (explicit hints and exhaustion)
  // run through the shard's observer. Graceful degradation: an
  // unrecoverable collection (every rung of the escalation ladder failed)
  // or heap exhaustion kills THIS request, not the fleet. The heap still
  // holds the recovery ladder's restored pre-cycle image and the cursor
  // mirrors only the ops that completed, so shard state stays consistent;
  // under supervision the supervisor quarantines and restores at the next
  // conductor join.
  TraceCursor& cursor = sh.session_cursor(req.session);
  const bool read = req.kind == RequestKind::kRead;
  const std::size_t budget =
      cursor.generated()
          ? steps_for(req.kind, traffic_.config().steps_per_request)
          : trace_ops_for(req.kind, cfg_.trace_ops_per_request);
  const std::uint64_t mismatches_before = cursor.read_mismatches();
  std::size_t work = 0;
  bool failed = false;
  try {
    work = cursor.apply(sh.rt, budget, read);
  } catch (const std::runtime_error&) {
    failed = true;
    ++sh.failures;
  }
  sh.stats.read_mismatches += cursor.read_mismatches() - mismatches_before;
  const std::uint32_t steps = read ? 0 : static_cast<std::uint32_t>(work);
  const std::size_t read_words = read ? work : 0;
  // Cycles of exhaustion-triggered collection during this request's own
  // execution (harvested from the observer).
  const Cycle own_gc = sh.take_pending_gc();
  std::vector<GcCharge> own;
  if (sh.profiling) own = sh.take_pending_charges();
  if (failed) {
    // The request dies without a completion record, so it charges no
    // latency components. GC debt — what it would have inherited plus
    // cycles that DID run before the failure — stays in the backlog for a
    // later completion to inherit as stall (the at-most-one-request
    // charging rule holds — this request charges nothing).
    sh.next_free = start + own_gc;
    sh.gc_backlog = prior_gc_backlog + own_gc;
    if (sh.profiling) {
      // Charge records track the backlog exactly: restore the inherited
      // list and append the cycles that ran before the failure.
      sh.uncharged = std::move(inherited);
      sh.uncharged.insert(sh.uncharged.end(), own.begin(), own.end());
    }
    ++sh.stats.failed;
    return;
  }
  Cycle service = traffic_.service_cost(steps, read_words);
  // Pauseless mode: drain a slice of the outstanding concurrent-phase debt
  // as overhead INSIDE this request's service time — an eighth of the
  // request's own cost, plus one so the debt always shrinks. The latency
  // partition (service + queue + stall == latency) is untouched; the
  // gc_concurrent_cycles counter records the sub-component so the A/B
  // against a stop-the-world scheduler stays honest about where the
  // concurrent collector's work went.
  Cycle concurrent_overhead = 0;
  if (sh.concurrent_debt > 0) {
    concurrent_overhead = std::min(sh.concurrent_debt, service / 8 + 1);
    sh.concurrent_debt -= concurrent_overhead;
    service += concurrent_overhead;
  }
  const Cycle total = wait + own_gc + service;

  sh.next_free = start + own_gc + service;
  ++sh.stats.completed;
  if (hops > 0) ++sh.stats.retried;
  if (sh.profiling) {
    RequestExemplar e;
    e.request_id = req_id;
    e.shard = sh.index;
    e.arrival = req.arrival;
    e.start = start;
    e.completion = start + own_gc + service;
    e.penalty = penalty;
    e.inherited_stall = inherited_stall;
    e.own_gc = own_gc;
    e.service = service;
    e.gc_concurrent = concurrent_overhead;
    e.hops = hops;
    e.own = std::move(own);
    e.inherited = std::move(inherited);
    insert_exemplar(sh.exemplars, sh.exemplar_cap, std::move(e));
  }
  ++sh.completed_since_checkpoint;
  ++sh.requests_since_gc;
  sh.stats.latency.record(total);
  sh.stats.service_cycles += service;
  sh.stats.gc_concurrent_cycles += concurrent_overhead;
  sh.stats.queue_cycles += wait - inherited_stall;
  sh.stats.stall_cycles += inherited_stall + own_gc;
  const bool violation = cfg_.slo_cycles > 0 && total > cfg_.slo_cycles;
  if (violation) ++sh.stats.slo_violations;
  if (sh.resilient && !sh.slo_ring.empty()) {
    if (sh.ring_size == sh.slo_ring.size()) {
      sh.ring_violations -= sh.slo_ring[sh.ring_pos];
    } else {
      ++sh.ring_size;
    }
    sh.slo_ring[sh.ring_pos] = violation ? 1 : 0;
    sh.ring_violations += violation ? 1 : 0;
    sh.ring_pos = (sh.ring_pos + 1) % sh.slo_ring.size();
  }
}

void HeapService::supervise(std::size_t shard, Cycle at) {
  // Caller has joined the shard's lane: its counters are quiescent.
  ShardState& sh = *shards_[shard];
  HealthSignals sig;
  sig.escalations = sh.escalations;
  sig.failures = sh.failures;
  sig.completions = sh.stats.completed;
  sig.window_size = sh.ring_size;
  sig.window_violations = sh.ring_violations;
  const ShardSupervisor::Verdict v = supervisor_->observe(shard, at, sig);
  if (v.degraded) ++sh.stats.degradations;
  if (v.reset_window) {
    sh.ring_pos = 0;
    sh.ring_size = 0;
    sh.ring_violations = 0;
  }
  if (v.quarantined) {
    ++sh.stats.quarantines;
    restore_shard(shard, at);
  }
}

void HeapService::restore_shard(std::size_t shard, Cycle at) {
  // The restore occupies the shard for restore_cost virtual cycles;
  // arrivals before `ready` fail over to healthy shards. The rewind runs
  // on the shard's own lane (FIFO after anything already queued there).
  ShardState* sh = shards_[shard].get();
  const Cycle ready = at + cfg_.resilience.restore_cost;
  HealthSignals sig;
  sig.escalations = sh->escalations;
  sig.failures = sh->failures;
  sig.completions = sh->stats.completed;
  supervisor_->restored(shard, ready, sig);
  pool_->submit(shard, [sh, ready] { sh->run_restore(ready); });
}

std::size_t HeapService::route(const Request& req, Cycle& penalty,
                               std::uint32_t& hops) {
  const ResilienceConfig& rc = cfg_.resilience;
  const std::size_t n = shards_.size();
  const std::size_t max_hops =
      std::min<std::size_t>(std::size_t{rc.max_retries} + 1, n);
  for (std::size_t h = 0; h < max_hops; ++h) {
    const std::size_t cand = (req.shard + h) % n;
    penalty = rc.retry_backoff * h;
    const Cycle eff = req.arrival + penalty;
    if (!supervisor_->serving(cand, eff)) continue;
    pool_->join(cand);
    const ShardState& cs = *shards_[cand];
    const Cycle backlog = cs.next_free > eff ? cs.next_free - eff : 0;
    if (cfg_.max_backlog > 0 && backlog > cfg_.max_backlog) continue;
    if (rc.deadline_cycles > 0 && backlog + penalty > rc.deadline_cycles) {
      continue;
    }
    hops = static_cast<std::uint32_t>(h);
    return cand;
  }
  penalty = 0;
  hops = 0;
  return ServiceConfig::kNoShard;
}

void HeapService::serve(std::uint64_t requests) {
  // Conductor loop (DESIGN.md §13). The conductor owns every cross-shard
  // decision — traffic RNG, virtual clock, storm schedule, supervision,
  // routing, admission, scheduling — in strict request order, and ships
  // shard-local work to the shards' FIFO lanes. It joins a lane exactly
  // where the serial engine would read that shard's state: closed-loop
  // arrival sampling, supervision harvests, admission control and failover
  // candidate probing join the target shard; a kFull scheduler observation
  // joins the whole fleet. With host_threads <= 1 every submit runs
  // inline, reproducing the serial engine verbatim — which is why serial
  // and shard-pool runs stay bit-identical even mid-storm.
  const ObservationNeeds needs = scheduler_->needs();
  const bool resilient = supervisor_ != nullptr;
  for (std::uint64_t n = 0; n < requests; ++n) {
    Request req = traffic_.draw();
    const std::size_t home = req.shard;
    if (!traffic_.config().open_loop) {
      pool_->join(home);
      traffic_.finalize_closed(req, shards_[home]->next_free);
    }
    if (req.arrival > now_) now_ = req.arrival;
    ++offered_;
    ShardState& sh = *shards_[home];

    // Fault-storm schedule for the home shard: burst-window toggles ship a
    // new fault config down the lane; crash events kill the shard as this
    // request arrives (the request is lost, the shard restores).
    bool crash_now = false;
    if (storm_.enabled() && storm_.stormed(home)) {
      const StormTick t = storm_.tick(home);
      if (t.toggled) {
        const FaultConfig fc = storm_fault_config(storm_, home,
                                                  cfg_.sim.fault,
                                                  t.fault_active);
        ShardState* hs = &sh;
        pool_->submit(home, [hs, fc] { hs->rt.set_fault_config(fc); });
      }
      crash_now = t.crash && resilient;
    }

    std::size_t target = home;
    Cycle penalty = 0;
    std::uint32_t hops = 0;
    if (resilient) {
      pool_->join(home);
      supervise(home, req.arrival);
      if (crash_now) {
        ++sh.stats.offered;
        ++sh.stats.failed;
        ++sh.stats.crashes;
        if (supervisor_->crash(home, req.arrival, "storm-crash")) {
          ++sh.stats.quarantines;
          restore_shard(home, req.arrival);
        }
        continue;
      }
      // Failover routing with deadline budget; shed when no serving shard
      // can take the request.
      target = route(req, penalty, hops);
      if (target == ServiceConfig::kNoShard) {
        ++sh.stats.offered;
        ++sh.stats.rejected;
        continue;
      }
    } else if (cfg_.max_backlog > 0) {
      // Admission control: shed instead of queueing past the debt bound.
      // Joined above for closed-loop traffic; open-loop joins here.
      pool_->join(home);
      const Cycle backlog =
          sh.next_free > req.arrival ? sh.next_free - req.arrival : 0;
      if (backlog > cfg_.max_backlog) {
        ++sh.stats.offered;
        ++sh.stats.rejected;
        continue;
      }
    }

    // One scheduling decision per dispatch — the scheduler may collect any
    // shard, not just the one this request lands on. Policies that do not
    // read live shard state skip both the fleet join and the observation
    // build (the big O(shards)-per-request cost at 1000-shard scale).
    std::optional<std::size_t> pick;
    if (needs == ObservationNeeds::kFull) {
      pool_->join_all();
      pick = scheduler_->pick(observations(req.arrival));
    } else {
      pick = scheduler_->pick(fleet_size_view_);
    }
    if (pick) {
      ShardState& sched_target = *shards_[*pick];
      const Cycle at = req.arrival;
      pool_->submit(*pick, [this, &sched_target, at] {
        run_scheduled_collection(sched_target, at);
      });
    }

    ShardState* ts = shards_[target].get();
    const std::uint64_t req_id = offered_;
    pool_->submit(target, [this, ts, req, penalty, hops, req_id] {
      execute_request(*ts, req, penalty, hops, req_id);
    });
  }
  pool_->join_all();
}

const SloStats& HeapService::shard_stats(std::size_t shard) const {
  return shards_.at(shard)->stats;
}

const std::vector<std::string>& HeapService::oracle_diagnostics(
    std::size_t shard) const {
  return shards_.at(shard)->oracle.findings();
}

SloStats HeapService::fleet_stats() const {
  SloStats fleet;
  for (const auto& s : shards_) fleet.merge(s->stats);
  return fleet;
}

Runtime& HeapService::runtime(std::size_t shard) {
  return shards_.at(shard)->rt;
}

const Runtime& HeapService::runtime(std::size_t shard) const {
  return shards_.at(shard)->rt;
}

std::size_t HeapService::validate_shard(std::size_t shard) {
  ShardState& s = *shards_.at(shard);
  std::size_t mismatches = 0;
  for (const auto& [session, cursor] : s.cursors) {
    mismatches += cursor.validate(s.rt);
  }
  return mismatches;
}

std::size_t HeapService::validate_all_shards() {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    mismatches += validate_shard(i);
  }
  return mismatches;
}

ShardHealth HeapService::shard_health(std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw std::out_of_range("HeapService::shard_health: shard out of range");
  }
  return supervisor_ ? supervisor_->state(shard) : ShardHealth::kHealthy;
}

ShardHealth HeapService::fleet_health() const {
  ShardHealth worst = ShardHealth::kHealthy;
  if (supervisor_) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const ShardHealth h = supervisor_->state(i);
      if (severity(h) > severity(worst)) worst = h;
    }
  }
  return worst;
}

const std::vector<HealthEvent>& HeapService::health_events() const {
  static const std::vector<HealthEvent> kEmpty;
  return supervisor_ ? supervisor_->events() : kEmpty;
}

ProfileAttribution HeapService::shard_attribution(std::size_t shard) const {
  const ShardState& s = *shards_.at(shard);
  ProfileAttribution a;
  a.source = "service";
  a.shard = static_cast<long long>(shard);
  for (const CycleProfile& p : s.rt.profile_history()) a.add(p);
  return a;
}

std::vector<RequestExemplar> HeapService::slowest_requests() const {
  std::vector<RequestExemplar> top;
  for (const auto& s : shards_) {
    for (const RequestExemplar& e : s->exemplars) {
      insert_exemplar(top, cfg_.profile.exemplars, e);
    }
  }
  return top;
}

void HeapService::set_cycle_observer(CycleObserver* obs) {
  for (auto& s : shards_) s->rt.set_cycle_observer(obs);
  const bool rebuild = (obs != nullptr) != (cycle_obs_ != nullptr);
  cycle_obs_ = obs;
  if (rebuild) rebuild_pool();
}

}  // namespace hwgc
