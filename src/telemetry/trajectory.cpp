#include "telemetry/trajectory.hpp"

#include <cstdint>

namespace hwgc {

namespace {

constexpr const char* kWorkloads[] = {"fig5_collect", "serve_lisp"};

struct Metric {
  const char* name;
  JsonType type;  ///< kU64 or kFixed6
};

// perfbench's end-to-end metrics in BENCHMARK.json order, then the clock
// loop's host cost per simulated cycle.
constexpr Metric kMetrics[] = {
    {"run_s", JsonType::kFixed6},         {"setup_s", JsonType::kFixed6},
    {"peak_rss_mb", JsonType::kFixed6},   {"gc_cycles", JsonType::kU64},
    {"lat_p50_clk", JsonType::kU64},      {"lat_p99_clk", JsonType::kU64},
    {"lat_p999_clk", JsonType::kU64},     {"slo_miss_frac", JsonType::kFixed6},
    {"ns_per_sim_cycle", JsonType::kFixed6},
};

}  // namespace

const JsonRecordTable<TrajectoryRow>& trajectory_table() {
  using R = TrajectoryRow;
  static const JsonRecordTable<R> table = [] {
    JsonRecordTable<R> t;
    t.constant("schema", std::string(kTrajectorySchema))
        .str("commit", [](const R& r) { return r.commit; })
        .str("label", [](const R& r) { return r.label; })
        .str("host", [](const R& r) { return r.host; });
    for (const char* w : kWorkloads) {
      for (const Metric& m : kMetrics) {
        const std::string key = std::string(w) + "_" + m.name;
        const auto value = [key](const R& r) {
          const auto it = r.metrics.find(key);
          return it == r.metrics.end() ? 0.0 : it->second;
        };
        if (m.type == JsonType::kU64) {
          t.u64(key, [value](const R& r) {
            return static_cast<std::uint64_t>(value(r));
          });
        } else {
          t.fixed6(key, value);
        }
      }
    }
    t.fixed6("ctest_wall_s", [](const R& r) { return r.ctest_wall_s; });
    return t;
  }();
  return table;
}

bool validate_trajectory_jsonl_line(const std::string& line,
                                    std::string* error) {
  JsonKv kv;
  if (!parse_flat_json_object(line, kv, error) ||
      !check_fields(kv, trajectory_table().fields(), error)) {
    return false;
  }
  if (req_str(kv, "commit")->empty()) {
    return set_error(error, "commit is empty");
  }
  if (*req_num(kv, "ctest_wall_s") <= 0.0) {
    return set_error(error, "ctest_wall_s must be > 0");
  }
  for (const char* w : kWorkloads) {
    const std::string prefix = std::string(w) + "_";
    const auto num = [&](const char* m) { return *req_num(kv, prefix + m); };
    const auto u64 = [&](const char* m) { return *req_u64(kv, prefix + m); };
    if (num("run_s") <= 0.0 || num("peak_rss_mb") <= 0.0 ||
        num("ns_per_sim_cycle") <= 0.0) {
      return set_error(error, prefix +
                                  "run_s, peak_rss_mb and ns_per_sim_cycle "
                                  "must be > 0");
    }
    if (num("setup_s") < 0.0) {
      return set_error(error, prefix + "setup_s must be >= 0");
    }
    if (!(u64("lat_p50_clk") <= u64("lat_p99_clk") &&
          u64("lat_p99_clk") <= u64("lat_p999_clk"))) {
      return set_error(error, prefix + "latency percentiles not ordered "
                                       "(p50<=p99<=p999)");
    }
    const double miss = num("slo_miss_frac");
    if (miss < 0.0 || miss > 1.0) {
      return set_error(error, prefix + "slo_miss_frac outside [0,1]");
    }
  }
  return true;
}

}  // namespace hwgc
