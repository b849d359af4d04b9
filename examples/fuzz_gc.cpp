// fuzz_gc — schedule-exploration fuzzing driver.
//
// Generates fuzzed (graph × schedule × core-count) cases (src/fuzz/) and
// runs each through the conformance oracle as a coprocessor case: the
// coprocessor simulator collects under a pluggable step-order policy, and
// the result is checked and cross-compared against the sequential Cheney
// reference.
//
// Modes:
//   fuzz_gc --seed 7 --count 100        # 100 cases derived from seeds 7..106
//   fuzz_gc --seed 7 --count 1 -v       # one case, full stats digest
//   fuzz_gc --graph-seed 9 --schedule adversarial --cores 3 ...
//                                       # replay an explicit (minimized) case
//
// Every run is deterministic: the same flags reproduce the same collection
// bit-for-bit. On failure the driver re-runs the case with a schedule
// trace attached to print its schedule tail, minimizes the reproducer
// (greedy shrinking while the oracle still fails) and exits nonzero.
#include <cstdint>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "core/coprocessor.hpp"
#include "core/schedule_policy.hpp"
#include "fuzz/fuzz_case.hpp"
#include "sim/flags.hpp"
#include "trace/corpus.hpp"

namespace {

struct Options {
  std::uint64_t seed = 1;
  std::uint32_t count = 25;
  bool minimize = true;
  bool verbose = false;
  bool explicit_case = false;
  std::string emit_trace;
  hwgc::FuzzCase fc;
};

void parse_args(int argc, char** argv, Options& opt) {
  hwgc::Flags t("fuzz_gc", "schedule-exploration fuzzing through the "
                           "differential oracle");
  t.value("--seed", opt.seed, "master seed; the whole case derives from it");
  t.value("--count", opt.count, "cases to run (seeds N..N+count-1)");
  t.toggle("--no-minimize", opt.minimize,
           "skip reproducer minimization on failure", false);
  t.value("--emit-trace", opt.emit_trace,
          "write the (minimized) reproducer of the first failing case as an\n"
          "hwgc-trace-v1 file; with no failure, the last case's trace is\n"
          "written so the flag always yields a replayable artifact")
      .metavar("FILE");
  t.toggle("--verbose", opt.verbose, "print a stats digest for passing cases")
      .alias("-v");
  const std::size_t case_flags = t.size();
  hwgc::add_fuzz_case_flags(t, opt.fc);
  t.parse(argc, argv);
  opt.explicit_case = t.any_seen(case_flags);
  if (opt.count == 0 && !opt.explicit_case) t.fail("--count must be >= 1");
  try {
    opt.fc.check();
  } catch (const std::invalid_argument& e) {
    t.fail(std::string("--") + e.what());
  }
}

/// Prints a failing verdict and the tail of the case's per-cycle step
/// orders. Runs are deterministic, so re-running the case with a schedule
/// trace attached replays the collection the oracle judged. A fault case
/// runs through recovery, whose attempts have no single schedule to show.
void print_failure(const hwgc::FuzzCase& fc,
                   const hwgc::ConformanceVerdict& v) {
  std::cout << v.summary() << "\n";
  if (fc.fault.enabled()) return;
  hwgc::Workload w = hwgc::materialize(fc.conformance_case().plan);
  hwgc::ScheduleTrace sched(64);
  try {
    hwgc::Coprocessor(fc.sim_config(), *w.heap).collect(nullptr, &sched);
  } catch (const std::exception&) {
    // The oracle already reported the throw; the tail leads up to it.
  }
  std::cout << "schedule tail:\n" << sched.dump() << "\n";
}

/// Runs one case; on failure prints the verdict, minimizes and prints the
/// replay flags. Returns true when the oracle passed; `repro` (when
/// non-null) receives the minimized reproducer on failure.
bool run_one(const hwgc::FuzzCase& fc, const std::string& label,
             const Options& opt, hwgc::FuzzCase* repro = nullptr) {
  const hwgc::ConformanceVerdict v = hwgc::run_fuzz_case(fc);
  if (v.ok) {
    if (opt.verbose) {
      const hwgc::GcCycleStats& s = *v.report.coproc;
      std::cout << label << " ok: live=" << v.live_objects
                << " cycles=" << s.total_cycles
                << " words=" << s.words_copied << " mem=" << s.mem_requests
                << " fifo_miss=" << s.fifo_misses << "  [" << fc.summary()
                << "]\n";
      if (v.report.recovery) {
        std::cout << "  recovery: " << v.report.recovery->summary() << "\n";
      }
    }
    return true;
  }
  std::cout << label << " FAILED\n";
  print_failure(fc, v);
  std::cout << "repro: fuzz_gc " << fc.summary() << "\n";
  if (repro != nullptr) *repro = fc;
  if (opt.minimize) {
    const hwgc::FuzzCase small = hwgc::minimize_case(fc);
    std::cout << "minimized: fuzz_gc " << small.summary() << "\n";
    const hwgc::ConformanceVerdict mv = hwgc::run_fuzz_case(small);
    if (!mv.ok) print_failure(small, mv);
    if (repro != nullptr) *repro = small;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  parse_args(argc, argv, opt);

  std::uint32_t failures = 0;
  // The case whose trace --emit-trace writes: the (minimized) reproducer of
  // the first failure, or the last case run when everything passed.
  hwgc::FuzzCase emit_fc;
  bool emit_is_failure = false;
  if (opt.explicit_case) {
    emit_fc = opt.fc;
    if (!run_one(opt.fc, "case[explicit]", opt, &emit_fc)) {
      ++failures;
      emit_is_failure = true;
    }
  } else {
    for (std::uint32_t k = 0; k < opt.count; ++k) {
      const std::uint64_t master = opt.seed + k;
      const hwgc::FuzzCase fc = hwgc::case_from_seed(master);
      hwgc::FuzzCase repro;
      if (!run_one(fc, "case[seed=" + std::to_string(master) + "]", opt,
                   &repro)) {
        ++failures;
        if (!emit_is_failure) {
          emit_fc = repro;
          emit_is_failure = true;
        }
      } else if (!emit_is_failure) {
        emit_fc = fc;
      }
    }
  }
  if (!opt.emit_trace.empty()) {
    // fc.fault is not carried into the trace (replay runs a pluggable
    // collector, not the recovery ladder); everything else — graph,
    // schedule, cores, FIFO, jitter, feature knobs — is.
    const hwgc::Trace trace = hwgc::trace_from_fuzz_case(emit_fc);
    hwgc::save_trace(opt.emit_trace, trace);
    std::cout << "emitted " << (emit_is_failure ? "reproducer" : "last-case")
              << " trace: " << opt.emit_trace << " (" << trace.ops.size()
              << " events, digest 0x" << std::hex << trace.digest()
              << std::dec << ")\n";
  }
  if (failures == 0) {
    std::cout << "fuzz_gc: all "
              << (opt.explicit_case ? 1u : opt.count)
              << " case(s) passed the differential oracle\n";
    return 0;
  }
  std::cout << "fuzz_gc: " << failures << " case(s) FAILED\n";
  return 1;
}
