// hwgc-service-v1 — the heap service's stable JSONL metrics section.
//
// One record per shard plus one fleet-wide aggregate (shard = -1), flat
// and append-only exactly like hwgc-bench-v1 (telemetry/metrics.hpp):
// tooling may add fields, never rename or remove them. A heapd output
// file typically carries BOTH sections — per-shard collection-cycle
// aggregates as hwgc-bench-v1 lines and request-latency/SLO accounting as
// hwgc-service-v1 lines — so validation dispatches per line on the
// "schema" field (validate_metrics_jsonl_file), which is what the
// bench_validate gate runs in CI. The schema's one declaration is the field
// table behind service_record_fields(): the writer renders it and the
// validator's presence-and-type pass walks it.
//
// Schema invariants enforced by the validator:
//   * field presence and types;
//   * latency percentiles monotone (p50 <= p99 <= p999 <= max);
//   * non-negative stall accounting that adds up exactly:
//     service_cycles + queue_cycles + stall_cycles == latency_cycles;
//   * the request partition: completed + rejected + failed == requests and
//     served + retried == completed (resilience additions keep the
//     identities exact under failover retries and load shedding);
//   * crashes <= failed, restores <= quarantines, and health is one of
//     healthy / degraded / quarantined / restoring;
//   * scheduled_collections <= collections, slo_violations <= completed;
//   * gc_concurrent_cycles <= service_cycles.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "service/heap_service.hpp"
#include "telemetry/jsonl.hpp"

namespace hwgc {

constexpr std::string_view kServiceSchema = "hwgc-service-v1";

/// All shard records + the fleet record as JSONL, one "hwgc-service-v1"
/// object per line (deterministic byte-for-byte for a deterministic run).
/// Write it, alone or concatenated with other sections, with
/// write_jsonl_file.
std::string service_report_jsonl(const HeapService& service,
                                 const std::string& suite);

/// The hwgc-service-v1 field table (the writer's and validator's one
/// declaration of the schema).
const std::vector<JsonField>& service_record_fields();

/// Validates one JSONL line against the hwgc-service-v1 schema.
bool validate_service_jsonl_line(const std::string& line, std::string* error);

/// The service's hwgc-profile-v1 section (cfg.profile.enabled runs): one
/// attribution record per shard followed by the span trees of the fleet's
/// K slowest requests, whose trace ids are their request ids plus
/// `trace_base` (a sweep writing several services into one file passes
/// disjoint bases). Deterministic byte-for-byte, at any host thread
/// count. Call between serve() calls (lanes drained).
std::string profile_report_jsonl(const HeapService& service,
                                 const std::string& suite,
                                 std::uint64_t trace_base = 0);

/// The file gate over every hwgc schema: validates each line of `path`
/// against the schema its "schema" field names (hwgc-bench-v1,
/// hwgc-service-v1, hwgc-profile-v1 or hwgc-trace-v1); unknown or missing
/// schemas are violations, and duplicate profile span ids are caught
/// file-wide. A non-empty `only` validates every line against that one
/// schema instead. This is what examples/bench_validate runs over CI
/// artifacts and committed snapshots.
bool validate_metrics_jsonl_file(const std::string& path,
                                 std::vector<std::string>* errors,
                                 std::string_view only = {});

}  // namespace hwgc
