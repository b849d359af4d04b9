#include "telemetry/metrics.hpp"

#include <algorithm>

namespace hwgc {

namespace {

Cycle percentile(const std::vector<Cycle>& sorted, double p) {
  if (sorted.empty()) return 0;
  // Nearest-rank on the sorted samples.
  const std::size_t rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

std::string baseline_key(const std::string& benchmark, double scale,
                         std::uint64_t seed) {
  return benchmark + "|" + fmt_fixed6(scale) + "|" + std::to_string(seed);
}

/// Stall-reason JSONL field name: "stall_scan_lock" etc.
std::string stall_field(StallReason r) {
  std::string name = "stall_";
  for (char c : std::string(to_string(r))) {
    name += c == '-' ? '_' : c;
  }
  return name;
}

/// One hwgc-bench-v1 record: a key's aggregate plus the derived sample
/// statistics.
struct BenchRow {
  const std::string& suite;
  const MetricsRegistry::Key& key;
  const MetricsRegistry::Aggregate& a;
  std::vector<Cycle> sorted;  ///< the key's cycle samples, ascending
  double mean = 0.0;
  double speedup = 0.0;

  /// Mean of a per-sample sum (0 without samples).
  double per_sample(double sum) const {
    return sorted.empty() ? 0.0 : sum / static_cast<double>(sorted.size());
  }
};

// The hwgc-bench-v1 schema, in emission order. New fields may be appended
// (and committed snapshots regenerated); none may be renamed or removed.
const JsonRecordTable<BenchRow>& bench_table() {
  using R = BenchRow;
  static const JsonRecordTable<R> table = [] {
    JsonRecordTable<R> t;
    t.constant("schema", std::string(kBenchSchema))
        .str("suite", [](const R& r) { return r.suite; })
        .str("benchmark", [](const R& r) { return r.key.benchmark; })
        .u64("cores", [](const R& r) { return r.key.cores; })
        .fixed6("scale", [](const R& r) { return r.key.scale; })
        .u64("seed", [](const R& r) { return r.key.seed; })
        .str("config", [](const R& r) { return r.a.config; })
        .u64("samples", [](const R& r) { return r.sorted.size(); })
        .u64("cycles_min",
             [](const R& r) { return r.sorted.empty() ? 0 : r.sorted.front(); })
        .u64("cycles_p50",
             [](const R& r) { return percentile(r.sorted, 0.50); })
        .fixed6("cycles_mean", [](const R& r) { return r.mean; })
        .u64("cycles_p99",
             [](const R& r) { return percentile(r.sorted, 0.99); })
        .u64("cycles_max",
             [](const R& r) { return r.sorted.empty() ? 0 : r.sorted.back(); })
        .fixed6("speedup_vs_sequential", [](const R& r) { return r.speedup; })
        .fixed6("worklist_empty_fraction",
                [](const R& r) { return r.per_sample(r.a.worklist_empty_sum); })
        .u64("drain_cycles", [](const R& r) { return r.a.drain_cycles; })
        .u64("objects_copied", [](const R& r) { return r.a.objects_copied; })
        .u64("words_copied", [](const R& r) { return r.a.words_copied; })
        .u64("pointers_forwarded",
             [](const R& r) { return r.a.pointers_forwarded; })
        .u64("mem_requests", [](const R& r) { return r.a.mem_requests; })
        .u64("fifo_hits", [](const R& r) { return r.a.fifo_hits; })
        .u64("fifo_misses", [](const R& r) { return r.a.fifo_misses; })
        .u64("fifo_overflows", [](const R& r) { return r.a.fifo_overflows; })
        .u64("faults_fired", [](const R& r) { return r.a.faults_fired; });
    for (std::size_t i = 0; i < kStallReasonCount; ++i) {
      if (static_cast<StallReason>(i) == StallReason::kNone) continue;
      t.fixed6(stall_field(static_cast<StallReason>(i)),
               [i](const R& r) { return r.per_sample(r.a.stall_sum[i]); });
    }
    t.u64("snapshot_stores", [](const R& r) { return r.a.snapshot_stores; })
        .u64("reconciliation_repairs",
             [](const R& r) { return r.a.reconciliation_repairs; })
        .u64("safe_point_waits",
             [](const R& r) { return r.a.safe_point_waits; });
    return t;
  }();
  return table;
}

}  // namespace

void MetricsRegistry::record(const Key& key, const SimConfig& cfg,
                             const GcCycleStats& s) {
  Aggregate& a = aggregates_[key];
  if (a.config.empty()) a.config = cfg.summary();
  a.cycle_samples.push_back(s.total_cycles);
  a.worklist_empty_sum += s.worklist_empty_fraction();
  for (std::size_t r = 0; r < kStallReasonCount; ++r) {
    a.stall_sum[r] += s.mean_stall(static_cast<StallReason>(r));
  }
  a.objects_copied += s.objects_copied;
  a.words_copied += s.words_copied;
  a.pointers_forwarded += s.pointers_forwarded;
  a.mem_requests += s.mem_requests;
  a.fifo_hits += s.fifo_hits;
  a.fifo_misses += s.fifo_misses;
  a.fifo_overflows += s.fifo_overflows;
  a.faults_fired += s.faults_fired;
  a.drain_cycles += s.drain_cycles;
  a.snapshot_stores += s.snapshot_stores;
  a.reconciliation_repairs += s.reconciliation_repairs;
  a.safe_point_waits += s.safe_point_waits;
}

void MetricsRegistry::set_sequential_baseline(const std::string& benchmark,
                                              double scale,
                                              std::uint64_t seed,
                                              double mean_cycles) {
  explicit_baselines_[baseline_key(benchmark, scale, seed)] = mean_cycles;
}

double MetricsRegistry::baseline_mean(const Key& key) const {
  const auto it =
      explicit_baselines_.find(baseline_key(key.benchmark, key.scale, key.seed));
  if (it != explicit_baselines_.end()) return it->second;
  Key one = key;
  one.cores = 1;
  const auto agg = aggregates_.find(one);
  if (agg == aggregates_.end() || agg->second.cycle_samples.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (Cycle c : agg->second.cycle_samples) sum += static_cast<double>(c);
  return sum / static_cast<double>(agg->second.cycle_samples.size());
}

std::string MetricsRegistry::to_jsonl(const std::string& suite) const {
  std::string out;
  for (const auto& [key, a] : aggregates_) {
    BenchRow row{suite, key, a, a.cycle_samples};
    std::sort(row.sorted.begin(), row.sorted.end());
    double sum = 0.0;
    for (Cycle c : row.sorted) sum += static_cast<double>(c);
    row.mean = row.per_sample(sum);
    const double base = baseline_mean(key);
    row.speedup = row.mean > 0.0 && base > 0.0 ? base / row.mean : 0.0;
    bench_table().render(row, out);
  }
  return out;
}

const std::vector<JsonField>& bench_record_fields() {
  return bench_table().fields();
}

bool validate_bench_jsonl_line(const std::string& line, std::string* error) {
  JsonKv kv;
  if (!parse_flat_json_object(line, kv, error) ||
      !check_fields(kv, bench_record_fields(), error)) {
    return false;
  }
  const auto u64 = [&](const char* key) { return *req_u64(kv, key); };
  if (u64("cores") < 1) return set_error(error, "cores must be >= 1");
  if (u64("samples") < 1) return set_error(error, "samples must be >= 1");
  const std::uint64_t mn = u64("cycles_min"), p50 = u64("cycles_p50"),
                      p99 = u64("cycles_p99"), mx = u64("cycles_max");
  if (!(mn <= p50 && p50 <= p99 && p99 <= mx)) {
    return set_error(error,
                     "cycle percentiles not ordered (min<=p50<=p99<=max)");
  }
  const double wef = *req_num(kv, "worklist_empty_fraction");
  if (wef < 0.0 || wef > 1.0) {
    return set_error(error, "worklist_empty_fraction outside [0,1]");
  }
  // Pauseless barrier accounting: every reconciliation repair replays a
  // logged mid-cycle store, so repairs can never exceed the stores the
  // barrier diverted.
  if (u64("reconciliation_repairs") > u64("snapshot_stores")) {
    return set_error(error, "reconciliation_repairs exceeds snapshot_stores");
  }
  return true;
}

}  // namespace hwgc
