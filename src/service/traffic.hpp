// Seeded request-stream generator for the heap service.
//
// Models the traffic a multi-tenant runtime fleet actually serves:
// sessions (think: user connections) pinned to shards by affinity, each
// issuing allocate / mutate / read / release requests. Each request
// advances its session's TraceCursor (trace/replayer.hpp): seeded churn
// steps (trace/churn.hpp) or the ops of a recorded trace. The cursor keeps
// a host-side mirror of the expected object graph, so ANY number of
// collection cycles can be validated against it, and every read is
// checked against the mirror's digest, so each read request doubles as a
// data-integrity check.
//
// Arrival model, in simulated cycles:
//   * open loop   — arrivals are independent of completions; interarrival
//     times are seeded-uniform with mean mean_interarrival / load. Load
//     above the service rate builds real queues (and, with admission
//     control, real rejections).
//   * closed loop — a session's next request arrives when its shard has
//     drained (arrival = the shard's next-free time): classic
//     one-outstanding-request-per-session behavior, no queueing.
//
// Everything is derived from `seed`; the stream is bit-reproducible, which
// the determinism suite asserts across scheduler policies.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/rng.hpp"
#include "sim/types.hpp"
#include "trace/churn.hpp"

namespace hwgc {

enum class RequestKind : std::uint8_t {
  kAllocate = 0,  ///< session creates state: allocation-biased churn
  kMutate,        ///< session updates state: link/unlink/data writes
  kRead,          ///< read-only probe, verified against the mirror
  kRelease,       ///< session drops state: release-biased churn
  kCount
};

constexpr const char* to_string(RequestKind k) noexcept {
  switch (k) {
    case RequestKind::kAllocate: return "allocate";
    case RequestKind::kMutate: return "mutate";
    case RequestKind::kRead: return "read";
    case RequestKind::kRelease: return "release";
    case RequestKind::kCount: break;
  }
  return "?";
}

struct Request {
  std::uint64_t id = 0;
  std::uint32_t session = 0;
  std::size_t shard = 0;
  RequestKind kind = RequestKind::kMutate;
  Cycle arrival = 0;
};

struct TrafficConfig {
  std::uint64_t seed = 1;

  /// Concurrent sessions; each is pinned to shard (session % shards).
  std::uint32_t sessions = 64;

  bool open_loop = true;

  /// Open loop: mean interarrival = mean_interarrival / load. load > 1
  /// overdrives the fleet; load < 1 leaves it idle between requests.
  double load = 1.0;
  Cycle mean_interarrival = 400;

  /// Churn steps a mutate request executes (allocate requests run two
  /// more, release requests half; the kind mix below shapes the
  /// aggregate). Trace sessions use ServiceConfig::trace_ops_per_request.
  std::uint32_t steps_per_request = 4;

  /// Request-kind mix, in units of 1/16 (must sum to <= 16; the remainder
  /// goes to kMutate).
  std::uint32_t allocate_sixteenths = 5;
  std::uint32_t read_sixteenths = 5;
  std::uint32_t release_sixteenths = 2;

  /// Deterministic service-cost model, in cycles.
  Cycle request_base_cost = 60;  ///< fixed per-request overhead
  Cycle step_cost = 24;          ///< per executed churn step or trace op
  Cycle read_word_cost = 2;      ///< per data word a read probe touches

  /// Shape of the per-shard churn graphs.
  ChurnSource::Config churn{};
};

class TrafficModel {
 public:
  TrafficModel(const TrafficConfig& cfg, std::size_t shards);

  /// Draws the next request. `shard_next_free[s]` is the cycle shard s
  /// drains its current backlog (closed-loop arrivals latch onto it).
  /// Equivalent to draw() + finalize_closed() — kept for callers that hold
  /// the whole fleet view.
  Request next(const std::vector<Cycle>& shard_next_free);

  /// First half of next(): everything derived from the RNG alone (session,
  /// shard affinity, kind, open-loop arrival). In closed-loop mode the
  /// returned request is NOT finished — its arrival must be latched with
  /// finalize_closed() once the target shard's drain time is known. The
  /// split lets the parallel conductor draw requests without a fleet-wide
  /// synchronization point: only the target shard's lane must be joined
  /// (DESIGN.md §13).
  Request draw();

  /// Second half for closed-loop mode: latches `r.arrival` onto
  /// max(session ready time, `shard_free` of r.shard) and advances the
  /// session gate. No-op in open-loop mode (draw() already set arrival).
  void finalize_closed(Request& r, Cycle shard_free);

  /// Service cost of executing `steps` mutator steps + `read_words` probe
  /// words for one request.
  Cycle service_cost(std::uint32_t steps, std::size_t read_words) const {
    return cfg_.request_base_cost + Cycle{steps} * cfg_.step_cost +
           Cycle{read_words} * cfg_.read_word_cost;
  }

  const TrafficConfig& config() const noexcept { return cfg_; }

 private:
  TrafficConfig cfg_;
  std::size_t shards_;
  Rng rng_;
  std::uint64_t next_id_ = 0;
  Cycle clock_ = 0;                      ///< open-loop arrival clock
  std::vector<Cycle> session_ready_;     ///< closed-loop per-session gate
};

}  // namespace hwgc
