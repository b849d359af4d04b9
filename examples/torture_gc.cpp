// torture_gc — cross-collector concurrency torture driver.
//
// Sweeps every collector over a shared seeded random-graph corpus and a
// thread-count ladder (including heavy oversubscription), with the
// TortureAgitator injecting barrier-synchronized starts, seeded start
// stagger and yield chaos into the threaded baselines, and seeded mutator
// programs interleaving with the concurrent cycle. Every configuration
// runs through the full conformance oracle (src/conformance/): forwarding
// bijectivity, liveness, density/fragmentation accounting, evacuation
// counters, cross-comparison against the sequential reference, and
// idempotent re-collection.
//
//   torture_gc                           # full matrix, all collectors
//   torture_gc --quick                   # CI preset: small matrix
//   torture_gc --collectors stealing,naive --threads 2,16 --seeds 8
//   torture_gc --collectors chunked --seed-base 42 --threads 16 --seeds 1 -v
//   torture_gc --repro-file repro.txt    # write failing configs for CI
//
// Every run is deterministic per configuration at one thread and
// structurally verified at any width; the exit status is the number of
// failing configurations (capped at 125).
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "conformance/conformance.hpp"
#include "conformance/harness.hpp"
#include "sim/flags.hpp"
#include "workloads/random_graph.hpp"

namespace {

using namespace hwgc;

struct Options {
  std::vector<CollectorId> collectors = all_collectors();
  std::uint32_t seeds = 4;
  std::uint64_t seed_base = 1;
  std::vector<std::uint32_t> threads = {1, 2, 4, 8, 16};
  std::uint32_t nodes = 96;
  /// Mutator-thread ladder for the snapshot collector; other collectors
  /// ignore the knob (their mutators are simulated, not real threads).
  std::vector<std::uint32_t> mutator_threads = {2};
  std::uint64_t torture_seed = 0;  // 0 = derive per case
  bool torture = true;
  bool idempotence = true;
  bool cross = true;
  bool verbose = false;
  std::string repro_file;
};

/// The flags that fix one matrix cell, bound to `opt`: parsed from the
/// command line and rendered back into each failure's reproducer line.
void add_cell_flags(Flags& t, Options& opt) {
  Codec<std::vector<CollectorId>> collectors = list_of(
      choice(parse_collector, [](CollectorId id) { return to_string(id); },
             all_collectors()));
  collectors.parse = [names = collectors.parse](const std::string& s) {
    return s == "all" ? std::optional(all_collectors()) : names(s);
  };
  t.value("--collectors", opt.collectors, collectors,
          "collectors to sweep, or 'all'")
      .pin();
  t.value("--seed-base", opt.seed_base, "first graph seed").pin();
  t.value("--seeds", opt.seeds, "graph seeds per (collector, threads) cell")
      .pin();
  t.list("--threads", opt.threads, "thread/core counts (16 oversubscribes)")
      .pin();
  t.value("--nodes", opt.nodes, "graph size in objects").pin();
  t.list("--mutator-threads", opt.mutator_threads,
         "mutator-thread counts for the snapshot collector");
  t.toggle("--no-torture", opt.torture, "disable schedule perturbation",
           false);
  t.value("--torture-seed", opt.torture_seed,
          "agitator seed base (0 = derived per case)");
  t.toggle("--no-idempotence", opt.idempotence, "skip the re-collection pass",
           false);
  t.toggle("--no-cross", opt.cross,
           "skip cross-comparison vs the sequential reference", false);
}

void parse_args(int argc, char** argv, Options& opt) {
  Flags t("torture_gc", "cross-collector concurrency torture driver");
  add_cell_flags(t, opt);
  t.action("--concurrent-mutator",
           [&opt] {
             opt.collectors = {CollectorId::kSnapshot};
             opt.mutator_threads = {1, 2, 4};
           },
           "preset: the pauseless snapshot collector only, sweeping real\n"
           "mutator threads 1,2,4 against every (seed, worker) cell");
  t.action("--quick",
           [&opt] {
             opt.seeds = 2;
             opt.threads = {2, 8};
             opt.nodes = 64;
           },
           "CI preset: 2 seeds, threads 2,8, 64-node graphs");
  t.value("--repro-file", opt.repro_file,
          "append one reproducer line per failing config")
      .metavar("PATH");
  t.toggle("--verbose", opt.verbose,
           "print every configuration, not just failures")
      .alias("-v");
  t.parse(argc, argv);
  if (opt.seeds == 0) t.fail("--seeds must be >= 1");
}

/// The command line that re-runs exactly one cell of `opt`'s matrix.
std::string repro_line(const Options& opt, CollectorId id, std::uint64_t seed,
                       std::uint32_t threads, std::uint32_t mutators) {
  Options cell;  // bound at its defaults, which the table records
  Flags t("torture_gc");
  add_cell_flags(t, cell);
  cell = opt;
  cell.collectors = {id};
  cell.seed_base = seed;
  cell.seeds = 1;
  cell.threads = {threads};
  if (id == CollectorId::kSnapshot) cell.mutator_threads = {mutators};
  return "torture_gc " + t.render();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  parse_args(argc, argv, opt);

  std::uint64_t cases = 0, failures = 0;
  std::ofstream repro;
  if (!opt.repro_file.empty()) {
    repro.open(opt.repro_file, std::ios::app);
    if (!repro) {
      std::cerr << "cannot open repro file " << opt.repro_file << "\n";
      return 2;
    }
  }

  for (CollectorId id : opt.collectors) {
    const CollectorTraits traits = traits_of(id);
    // Single-threaded collectors do not vary with the thread ladder
    // (cores for the simulators still do): skip redundant widths for the
    // sequential reference only.
    std::vector<std::uint32_t> widths = opt.threads;
    if (id == CollectorId::kSequential) widths = {1};

    // Only the snapshot collector spawns real mutator threads; everything
    // else runs the ladder's single default width once.
    const std::vector<std::uint32_t> mutator_widths =
        traits.concurrent_mutator ? opt.mutator_threads
                                  : std::vector<std::uint32_t>{0};

    for (std::uint32_t threads : widths) {
      for (std::uint32_t mutators : mutator_widths) {
        for (std::uint32_t k = 0; k < opt.seeds; ++k) {
          const std::uint64_t seed = opt.seed_base + k;
          RandomGraphConfig g;
          g.nodes = opt.nodes;
          ConformanceCase c;
          c.plan = make_random_plan(seed, g);
          c.harness.cores = threads;
          c.harness.schedule_seed = seed ^ (threads * 0x9e3779b9ULL);
          c.harness.mutator_seed = seed * 31 + threads;
          c.harness.mutator_op_spacing = 1;
          if (traits.concurrent_mutator) c.harness.mutator_threads = mutators;
          c.check_idempotence = opt.idempotence;
          c.cross_compare = opt.cross;
          if (opt.torture && traits.threaded) {
            c.harness.torture.seed =
                opt.torture_seed != 0
                    ? opt.torture_seed
                    : seed * 2654435761ULL + threads;
            c.harness.torture.yield_period = 3;
          }

          ++cases;
          const ConformanceVerdict v = run_conformance_case(id, c);
          if (!v.ok) {
            ++failures;
            std::cerr << "FAIL " << to_string(id) << " seed=" << seed
                      << " threads=" << threads << " mutators=" << mutators
                      << "\n  " << v.summary() << "\n  repro: "
                      << repro_line(opt, id, seed, threads, mutators) << "\n";
            if (repro) {
              repro << repro_line(opt, id, seed, threads, mutators) << "\n";
            }
          } else if (opt.verbose) {
            std::cout << "ok   " << to_string(id) << " seed=" << seed
                      << " threads=" << threads << " live=" << v.live_objects
                      << " copied=" << v.report.objects_copied
                      << " wasted=" << v.report.wasted_words
                      << " sync=" << v.report.sync_ops << "\n";
          }
        }
      }
    }
  }

  std::cout << "torture_gc: " << (cases - failures) << "/" << cases
            << " configurations passed\n";
  if (failures != 0) {
    std::cerr << "torture_gc: " << failures << " FAILING configuration(s)\n";
  }
  return failures > 125 ? 125 : static_cast<int>(failures);
}
