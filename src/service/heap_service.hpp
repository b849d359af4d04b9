// HeapService — the multi-tenant heap layer (tentpole of the service work).
//
// The paper stops one application processor while the coprocessor collects
// one heap (Section V-E). A production-scale runtime serves heavy traffic
// from many tenants, which means MANY heaps collected under a latency
// budget. The service composes everything below it into that layer:
//
//   * N independent shards, each a full Runtime (own Heap, own root-table
//     namespace, own simulated coprocessor) plus a ShadowMutator that
//     models the shard's expected object graph — shards share NOTHING, so
//     a fault or a collection on one cannot perturb a neighbor, and the
//     cross-shard verifier can prove it;
//   * a seeded TrafficModel turning session requests (allocate / mutate /
//     read / release) into shard work, open- or closed-loop;
//   * a pluggable GcScheduler multiplexing collection across shards
//     (reactive exhaustion, proactive occupancy pacing, budgeted
//     round-robin), consulted before every dispatch;
//   * admission control: a request arriving at a shard whose backlog
//     (queued work + uncharged collection debt) exceeds max_backlog is
//     rejected instead of queued — backpressure instead of unbounded tail
//     latency;
//   * end-to-end SLO accounting (slo.hpp): every completed request's
//     latency is split exactly into service + queue + GC stall, with each
//     collection cycle charged to exactly one request;
//   * an optional per-cycle oracle: the conformance kit's post-structure
//     checks (forwarding bijectivity, dense tiling, counter consistency)
//     run against a pre-cycle snapshot after EVERY collection, on every
//     shard — the service never trusts a cycle it did not verify.
//
// Time is virtual (simulated clock cycles): request interarrivals and
// service costs come from the seeded traffic model, collection durations
// from the cycle-accurate coprocessor simulation. The whole service is
// bit-deterministic from its seeds, across scheduler policies — AND across
// host thread counts: with host_threads > 1 shard work executes on a
// ShardPool (per-shard FIFO lanes, DESIGN.md §13) while a serial conductor
// keeps every cross-shard decision in request order, so parallel output is
// byte-identical to serial (tests/test_service_parallel.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "fault/fault_storm.hpp"
#include "profile/request_trace.hpp"
#include "runtime/runtime.hpp"
#include "service/scheduler.hpp"
#include "service/slo.hpp"
#include "service/supervisor.hpp"
#include "service/traffic.hpp"
#include "sim/config.hpp"
#include "sim/shard_pool.hpp"
#include "trace/trace_format.hpp"
#include "workloads/mutator.hpp"

namespace hwgc {

struct ServiceConfig {
  static constexpr std::size_t kNoShard = ~std::size_t{0};

  std::size_t shards = 4;

  /// Per-shard semispace size in words.
  Word semispace_words = 8192;

  /// Per-shard simulator configuration (cores, memory model, ...).
  SimConfig sim{};

  TrafficConfig traffic{};

  GcSchedulerKind scheduler = GcSchedulerKind::kReactive;
  SchedulerConfig scheduling{};

  /// Admission control: reject a request whose shard backlog exceeds this
  /// many cycles. 0 = queue without bound.
  Cycle max_backlog = 0;

  /// SLO bound on end-to-end request latency; completions above it count
  /// as violations. 0 = no SLO accounting.
  Cycle slo_cycles = 1u << 14;

  /// Run the conformance post-structure oracle after every collection
  /// cycle, on every shard (costs a pre-cycle snapshot per collection).
  bool oracle = true;

  /// Per-shard fault injection: route `fault_events` seeded fault events
  /// into every collection on `fault_shard` (collections there then run
  /// through the RecoveringCollector). kNoShard disables. The multi-shard
  /// generalization is `storm` below; both may be active at once (the
  /// storm's plan wins on a shard it covers).
  std::size_t fault_shard = kNoShard;
  std::uint32_t fault_events = 0;
  std::uint64_t fault_seed = 1;

  /// Seeded multi-shard fault storm (fault/fault_storm.hpp): a fraction of
  /// the fleet takes repeating per-collection faults, in bursts, with
  /// correlated neighbors and an optional crash schedule. Stormed shards
  /// always run collections through the RecoveringCollector.
  FaultStormConfig storm{};

  /// Fleet resilience (service/supervisor.hpp): health supervision,
  /// verified-clean checkpoints, restore-on-quarantine, failover routing
  /// with deadline budgets and load shedding. Disabled by default — the
  /// engine is then byte-identical to the pre-resilience service.
  ResilienceConfig resilience{};

  /// Request tracing + stall attribution (src/profile/). Off by default;
  /// the serving math is untouched either way — profiling only *observes*
  /// (per-shard CycleProfiles, GC charge links, slow-request exemplars),
  /// so disabled runs are byte-identical to a profile-free build.
  /// `exemplars` bounds both the per-shard capture buffers and the fleet
  /// top-K returned by slowest_requests().
  struct ProfileConfig {
    bool enabled = false;
    std::uint32_t exemplars = 4;
  };
  ProfileConfig profile{};

  /// Trace-driven sessions (src/trace/): when set (non-empty), requests
  /// replay recorded hwgc-trace-v1 op streams instead of seeded
  /// ShadowMutator churn. Each session gets its own wrapping TraceCursor
  /// over traces[session % traces.size()] — trace-per-session, scaled
  /// across shards by the usual session-affinity pinning. Read probes in
  /// the stream verify their recorded digests (mismatches land in
  /// SloStats::read_mismatches), and the per-cycle oracle still checks
  /// every collection. Deterministic like the churn engine: serial and
  /// shard-pool runs stay byte-identical.
  std::shared_ptr<const std::vector<Trace>> traces;

  /// Trace mode: baseline op budget per request; scaled by request kind
  /// like steps_per_request (allocate-biased requests apply more ops).
  std::uint32_t trace_ops_per_request = 16;

  /// Host threads executing shard work (simulation, not virtual time).
  /// <= 1 runs everything inline on the caller's thread — the serial
  /// reference engine. Any thread count produces byte-identical output
  /// (enforced by tests/test_service_parallel.cpp): shards share nothing,
  /// tasks for one shard run FIFO, and the conductor joins at every data
  /// dependency. Ignored (forced serial) while a cycle observer is
  /// attached, because one observer is shared by every shard.
  std::size_t host_threads = 1;
};

class HeapService {
 public:
  explicit HeapService(const ServiceConfig& cfg);
  ~HeapService();

  HeapService(const HeapService&) = delete;
  HeapService& operator=(const HeapService&) = delete;

  /// Serves the next `requests` requests from the traffic stream. May be
  /// called repeatedly; state (virtual clock, backlogs, shard graphs)
  /// carries over — gc_top uses this to animate a live panel.
  void serve(std::uint64_t requests);

  std::size_t shard_count() const noexcept { return shards_.size(); }
  const ServiceConfig& config() const noexcept { return cfg_; }

  const SloStats& shard_stats(std::size_t shard) const;
  /// Fleet-wide aggregate (per-shard stats merged).
  SloStats fleet_stats() const;

  /// First findings (capped) of the shard's post-structure oracle; empty
  /// when every cycle verified clean.
  const std::vector<std::string>& oracle_diagnostics(std::size_t shard) const;

  Runtime& runtime(std::size_t shard);
  const Runtime& runtime(std::size_t shard) const;

  /// Scheduler-visible view of one shard, at the current virtual time.
  ShardObservation observe(std::size_t shard) const;

  /// Virtual fleet clock: the latest request arrival processed so far.
  Cycle now() const noexcept { return now_; }
  std::uint64_t requests_offered() const noexcept { return offered_; }

  /// Walks every shard's shadow graph against its heap; returns the total
  /// mismatch count (0 = every shard's heap agrees with its model). THE
  /// cross-shard isolation check: run it after a fault-injected run to
  /// prove neighbor shards were not perturbed.
  std::size_t validate_all_shards();
  std::size_t validate_shard(std::size_t shard);

  /// Attaches one cycle observer to every shard runtime (nullptr to
  /// detach). With a TelemetryBus, collections from all shards land on a
  /// single fleet timeline, one epoch per cycle (core tracks are shared
  /// across shards; epochs identify the collecting shard).
  void set_cycle_observer(CycleObserver* obs);

  // --- Fleet resilience ----------------------------------------------------

  /// True when health supervision / failover routing is active (the
  /// resilience config's enabled() — supervise or a deadline budget).
  bool resilient() const noexcept { return supervisor_ != nullptr; }

  /// Current health of one shard (kHealthy when supervision is off).
  ShardHealth shard_health(std::size_t shard) const;

  /// Worst health across the fleet (severity order in supervisor.hpp).
  ShardHealth fleet_health() const;

  /// Health transition log (empty when supervision is off).
  const std::vector<HealthEvent>& health_events() const;

  /// The storm plan in effect (enabled() false without a storm config).
  const FaultStorm& storm() const noexcept { return storm_; }

  // --- Profiling (cfg.profile.enabled) -------------------------------------

  bool profiling() const noexcept { return cfg_.profile.enabled; }

  /// Stall-attribution aggregate over every collection the shard has run
  /// (source "service"). Call between serve() calls — the lanes are then
  /// drained. Empty (zero collections) when profiling is off.
  ProfileAttribution shard_attribution(std::size_t shard) const;

  /// The fleet's K slowest completed requests (cfg.profile.exemplars), in
  /// RequestExemplar::slower order — deterministic across host thread
  /// counts because ids are conductor-assigned and each lane's top-K is
  /// merged with the same comparator. Empty when profiling is off.
  std::vector<RequestExemplar> slowest_requests() const;

 private:
  struct ShardState;

  std::vector<ShardObservation> observations(Cycle at) const;
  void run_scheduled_collection(ShardState& shard, Cycle at);
  void execute_request(ShardState& shard, const Request& req, Cycle penalty,
                       std::uint32_t hops, std::uint64_t req_id);
  void rebuild_pool();

  /// Harvests the shard's health signals (its lane must be joined) and
  /// runs the supervisor's state machine; performs the restore on a
  /// quarantine verdict.
  void supervise(std::size_t shard, Cycle at);

  /// Quarantine response: submits the checkpoint restore to the shard's
  /// lane and marks the shard restoring until `at` + restore_cost.
  void restore_shard(std::size_t shard, Cycle at);

  /// Failover routing: picks the first serving candidate in (home + k) %
  /// shards order whose backlog passes admission and the deadline budget;
  /// sets `penalty` to the accumulated retry backoff and `hops` to the
  /// number of failover hops taken. Returns ServiceConfig::kNoShard when
  /// every candidate fails (shed).
  std::size_t route(const Request& req, Cycle& penalty, std::uint32_t& hops);

  ServiceConfig cfg_;
  TrafficModel traffic_;
  std::unique_ptr<GcScheduler> scheduler_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  FaultStorm storm_;
  std::unique_ptr<ShardSupervisor> supervisor_;
  Cycle now_ = 0;
  std::uint64_t offered_ = 0;
  CycleObserver* cycle_obs_ = nullptr;

  /// Placeholder fleet view for ObservationNeeds::kFleetSize policies:
  /// only .shard is populated (built once; the contract in scheduler.hpp
  /// forbids such policies from reading anything else).
  std::vector<ShardObservation> fleet_size_view_;

  /// Declared last so workers are joined (and the pool drained) before any
  /// shard state is destroyed.
  std::unique_ptr<ShardPool> pool_;
};

}  // namespace hwgc
