// Pay-for-use proof for the profiling subsystem: attaching a CycleProfiler
// (or enabling service-level profiling) must be pure observation — the
// simulated cycle counts, signal traces, schedule traces and service JSONL
// are byte-identical with and without it, across the conformance matrix
// seeds. The golden pin ties the profiled run to the pre-profiler bytes in
// tests/golden/service_mini.json.
#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/coprocessor.hpp"
#include "core/schedule_policy.hpp"
#include "profile/cycle_profiler.hpp"
#include "service/heap_service.hpp"
#include "service/service_metrics.hpp"
#include "sim/trace.hpp"
#include "workloads/benchmarks.hpp"

namespace hwgc {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct Observed {
  GcCycleStats stats;
  std::string signal_csv;
  std::uint64_t schedule_cycles = 0;
  std::deque<std::pair<Cycle, std::vector<CoreId>>> schedule_tail;
};

Observed run(BenchmarkId id, std::uint64_t seed, std::uint32_t cores,
             bool fast_forward, bool with_profiler) {
  Workload w = make_benchmark(id, 0.05, seed);
  SimConfig cfg;
  cfg.coprocessor.num_cores = cores;
  cfg.coprocessor.fast_forward = fast_forward;
  cfg.heap.semispace_words = w.heap->layout().semispace_words();
  Coprocessor coproc(cfg, *w.heap);
  SignalTrace signals;
  ScheduleTrace schedule;
  CycleProfiler profiler;
  ObserverFanout observers;
  observers.add(&signals);
  observers.add(&schedule);
  if (with_profiler) observers.add(&profiler);
  Observed o;
  o.stats = coproc.collect(observers.target());
  const std::string path = temp_path("overhead_signals.csv");
  EXPECT_TRUE(signals.write_csv(path));
  o.signal_csv = file_bytes(path);
  std::remove(path.c_str());
  o.schedule_cycles = schedule.cycles_recorded();
  o.schedule_tail = schedule.orders();
  return o;
}

TEST(ProfileOverhead, TracesAndStatsIdenticalAcrossMatrix) {
  for (std::uint64_t seed : {11ull, 42ull}) {
    for (std::uint32_t cores : {1u, 4u, 8u}) {
      for (bool ff : {false, true}) {
        const BenchmarkId id = all_benchmarks()[seed % 3];
        const Observed off = run(id, seed, cores, ff, false);
        const Observed on = run(id, seed, cores, ff, true);
        const std::string tag = std::string(benchmark_name(id)) + "/" +
                                std::to_string(cores) + "c seed " +
                                std::to_string(seed) +
                                (ff ? " ff" : " ticked");
        EXPECT_EQ(off.stats.total_cycles, on.stats.total_cycles) << tag;
        EXPECT_EQ(off.stats.objects_copied, on.stats.objects_copied) << tag;
        EXPECT_EQ(off.stats.words_copied, on.stats.words_copied) << tag;
        EXPECT_EQ(off.stats.mem_requests, on.stats.mem_requests) << tag;
        EXPECT_EQ(off.stats.fifo_hits, on.stats.fifo_hits) << tag;
        EXPECT_EQ(off.signal_csv, on.signal_csv)
            << tag << ": SignalTrace bytes drifted under profiling";
        EXPECT_EQ(off.schedule_cycles, on.schedule_cycles) << tag;
        EXPECT_EQ(off.schedule_tail, on.schedule_tail)
            << tag << ": ScheduleTrace drifted under profiling";
      }
    }
  }
}

/// The exact configuration pinned by tests/golden/service_mini.json.
HeapService* mini_service(bool profiled) {
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.semispace_words = 4096;
  cfg.sim.coprocessor.num_cores = 4;
  cfg.traffic.seed = 5;
  cfg.scheduler = GcSchedulerKind::kProactive;
  cfg.profile.enabled = profiled;
  auto* s = new HeapService(cfg);
  s->serve(1500);
  return s;
}

TEST(ProfileOverhead, ServiceJsonlIdenticalWithProfilingEnabled) {
  HeapService* off = mini_service(false);
  HeapService* on = mini_service(true);
  EXPECT_EQ(service_report_jsonl(*off, "t"), service_report_jsonl(*on, "t"))
      << "enabling profiling changed the service-v1 report bytes";
  const SloStats a = off->fleet_stats(), b = on->fleet_stats();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.gc_cycle_total, b.gc_cycle_total);
  EXPECT_EQ(a.latency.sum(), b.latency.sum());
  delete off;
  delete on;
}

TEST(ProfileOverhead, ProfiledRunStillMatchesPrePRGolden) {
  // tests/golden/service_mini.json was pinned before the profiler existed
  // (and is re-verified by test_service_metrics without profiling); the
  // profiled run of the same configuration must reproduce it byte-for-byte.
  HeapService* on = mini_service(true);
  const std::string path =
      std::string(HWGC_GOLDEN_DIR) + "/service_mini.json";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), service_report_jsonl(*on, "golden"))
      << "profiling perturbed the pinned service report";
  delete on;
}

}  // namespace
}  // namespace hwgc
