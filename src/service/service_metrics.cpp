#include "service/service_metrics.hpp"

#include "profile/profile_metrics.hpp"
#include "telemetry/metrics.hpp"
#include "trace/trace_format.hpp"

namespace hwgc {

namespace {

/// One hwgc-service-v1 record: a shard's (or, for shard -1, the fleet's)
/// request accounting.
struct ServiceRow {
  const HeapService& service;
  const std::string& suite;
  long long shard;
  const SloStats& s;

  const ServiceConfig& cfg() const { return service.config(); }
  ShardHealth health() const {
    return shard < 0 ? service.fleet_health()
                     : service.shard_health(static_cast<std::size_t>(shard));
  }
};

// The hwgc-service-v1 schema, in emission order. New fields may be
// appended (and committed snapshots regenerated); none may be renamed or
// removed.
const JsonRecordTable<ServiceRow>& service_table() {
  using R = ServiceRow;
  static const JsonRecordTable<R> table = [] {
    JsonRecordTable<R> t;
    t.constant("schema", std::string(kServiceSchema))
        .str("suite", [](const R& r) { return r.suite; })
        .str("scheduler",
             [](const R& r) {
               return std::string(to_string(r.cfg().scheduler));
             })
        .u64("shards", [](const R& r) { return r.cfg().shards; })
        .i64("shard", [](const R& r) { return r.shard; })
        .u64("seed", [](const R& r) { return r.cfg().traffic.seed; })
        .u64("cores",
             [](const R& r) { return r.cfg().sim.coprocessor.num_cores; })
        .u64("semispace_words",
             [](const R& r) { return r.cfg().semispace_words; })
        .fixed6("load", [](const R& r) { return r.cfg().traffic.load; })
        .u64("open_loop",
             [](const R& r) { return r.cfg().traffic.open_loop ? 1 : 0; })
        .u64("requests", [](const R& r) { return r.s.offered; })
        .u64("completed", [](const R& r) { return r.s.completed; })
        .u64("rejected", [](const R& r) { return r.s.rejected; })
        .u64("collections", [](const R& r) { return r.s.collections; })
        .u64("scheduled_collections",
             [](const R& r) { return r.s.scheduled_collections; })
        .u64("recovered_collections",
             [](const R& r) { return r.s.recovered_collections; })
        .u64("gc_cycle_total", [](const R& r) { return r.s.gc_cycle_total; })
        .u64("oracle_failures", [](const R& r) { return r.s.oracle_failures; })
        .u64("read_mismatches", [](const R& r) { return r.s.read_mismatches; })
        .u64("latency_p50",
             [](const R& r) { return r.s.latency.percentile(0.50); })
        .u64("latency_p99",
             [](const R& r) { return r.s.latency.percentile(0.99); })
        .u64("latency_p999",
             [](const R& r) { return r.s.latency.percentile(0.999); })
        .u64("latency_max", [](const R& r) { return r.s.latency.max(); })
        .fixed6("latency_mean", [](const R& r) { return r.s.latency.mean(); })
        .u64("latency_cycles", [](const R& r) { return r.s.latency.sum(); })
        .u64("service_cycles", [](const R& r) { return r.s.service_cycles; })
        .u64("queue_cycles", [](const R& r) { return r.s.queue_cycles; })
        .u64("stall_cycles", [](const R& r) { return r.s.stall_cycles; })
        .u64("slo_cycles", [](const R& r) { return r.cfg().slo_cycles; })
        .u64("slo_violations", [](const R& r) { return r.s.slo_violations; })
        .u64("served", [](const R& r) { return r.s.served(); })
        .u64("retried", [](const R& r) { return r.s.retried; })
        .u64("failed", [](const R& r) { return r.s.failed; })
        .u64("rolled_back", [](const R& r) { return r.s.rolled_back; })
        .u64("checkpoints", [](const R& r) { return r.s.checkpoints; })
        .u64("restores", [](const R& r) { return r.s.restores; })
        .u64("quarantines", [](const R& r) { return r.s.quarantines; })
        .u64("degradations", [](const R& r) { return r.s.degradations; })
        .u64("crashes", [](const R& r) { return r.s.crashes; })
        .str("health",
             [](const R& r) { return std::string(to_string(r.health())); })
        .u64("gc_concurrent_cycles",
             [](const R& r) { return r.s.gc_concurrent_cycles; });
    return t;
  }();
  return table;
}

}  // namespace

std::string service_report_jsonl(const HeapService& service,
                                 const std::string& suite) {
  std::string out;
  for (std::size_t i = 0; i < service.shard_count(); ++i) {
    service_table().render(
        {service, suite, static_cast<long long>(i), service.shard_stats(i)},
        out);
  }
  const SloStats fleet = service.fleet_stats();
  service_table().render({service, suite, -1, fleet}, out);
  return out;
}

const std::vector<JsonField>& service_record_fields() {
  return service_table().fields();
}

std::string profile_report_jsonl(const HeapService& service,
                                 const std::string& suite,
                                 std::uint64_t trace_base) {
  std::string out;
  for (std::size_t i = 0; i < service.shard_count(); ++i) {
    out += profile_attribution_jsonl(service.shard_attribution(i), suite);
  }
  std::vector<RequestExemplar> slow = service.slowest_requests();
  for (RequestExemplar& e : slow) e.request_id += trace_base;
  out += exemplar_spans_jsonl(slow, suite);
  return out;
}

bool validate_service_jsonl_line(const std::string& line, std::string* error) {
  JsonKv kv;
  if (!parse_flat_json_object(line, kv, error) ||
      !check_fields(kv, service_record_fields(), error)) {
    return false;
  }
  const auto u64 = [&](const char* key) { return *req_u64(kv, key); };
  const std::uint64_t shards = u64("shards");
  if (shards < 1) return set_error(error, "shards must be >= 1");
  const std::int64_t shard = *req_i64(kv, "shard");
  if (shard < -1 ||
      (shard >= 0 && static_cast<std::uint64_t>(shard) >= shards)) {
    return set_error(error, "shard must be -1 (fleet) or in [0, shards)");
  }
  if (!sums_to({u64("completed"), u64("rejected"), u64("failed")},
               u64("requests"))) {
    return set_error(error, "completed + rejected + failed != requests");
  }
  if (!sums_to({u64("served"), u64("retried")}, u64("completed"))) {
    return set_error(error, "served + retried != completed");
  }
  if (u64("crashes") > u64("failed")) {
    return set_error(error, "crashes exceeds failed requests");
  }
  if (u64("restores") > u64("quarantines")) {
    return set_error(error, "restores exceeds quarantines");
  }
  const std::string health = *req_str(kv, "health");
  if (health != "healthy" && health != "degraded" && health != "quarantined" &&
      health != "restoring") {
    return set_error(error, "health is not a known shard-health state");
  }
  const std::uint64_t p50 = u64("latency_p50"), p99 = u64("latency_p99"),
                      p999 = u64("latency_p999"), mx = u64("latency_max");
  if (!(p50 <= p99 && p99 <= p999 && p999 <= mx)) {
    return set_error(error,
                     "latency percentiles not ordered (p50<=p99<=p999<=max)");
  }
  const std::uint64_t service = u64("service_cycles");
  if (!sums_to({service, u64("queue_cycles"), u64("stall_cycles")},
               u64("latency_cycles"))) {
    return set_error(error,
                     "stall accounting does not add up: service + queue + "
                     "stall != latency_cycles");
  }
  if (u64("slo_violations") > u64("completed")) {
    return set_error(error, "slo_violations exceeds completed requests");
  }
  if (u64("scheduled_collections") > u64("collections")) {
    return set_error(error, "scheduled_collections exceeds collections");
  }
  // The pauseless concurrent-overhead drain is a sub-component of
  // service_cycles.
  if (u64("gc_concurrent_cycles") > service) {
    return set_error(error, "gc_concurrent_cycles exceeds service_cycles");
  }
  return true;
}

bool validate_metrics_jsonl_file(const std::string& path,
                                 std::vector<std::string>* errors,
                                 std::string_view only) {
  static const std::vector<JsonlSchema> kSchemas = {
      {kBenchSchema, &validate_bench_jsonl_line},
      {kServiceSchema, &validate_service_jsonl_line},
      {kProfileSchema, &validate_profile_jsonl_line},
      {kTraceSchema, &validate_trace_jsonl_line},
  };
  return validate_jsonl_file(path, kSchemas, only, errors);
}

}  // namespace hwgc
