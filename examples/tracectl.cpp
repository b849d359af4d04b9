// tracectl — the hwgc-trace-v1 toolbox.
//
//   tracectl record --benchmark javac --out t.jsonl     # one benchmark shape
//   tracectl record --fuzz-seed 77 --out t.jsonl        # adversarial graph
//   tracectl record --churn-seed 7 --out t.jsonl        # seeded churn
//   tracectl record --lisp --out t.jsonl                # lisp session
//   tracectl corpus [--dir traces]                      # regenerate corpus
//   tracectl replay t.jsonl [--collector stealing|--all] [--seed N]
//   tracectl validate t.jsonl ...                       # digest + structure
//   tracectl stats t.jsonl ...                          # op histogram
//   tracectl minimize --seed N --out t.jsonl            # fuzz -> trace bridge
//   tracectl transform t.jsonl --scale-sizes 2 --out big.jsonl
//
// replay exit status is 0 only if every cycle passed the conformance
// post-structure oracle, every read probe matched its recorded digest, and
// (under --all) every collector produced the same live-graph digest. Each
// line names the semispace it ran at: the recorded one, except that --all
// gives the chunk/LAB collectors differential_semispace_words().
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/flags.hpp"
#include "trace/corpus.hpp"
#include "trace/recorder.hpp"
#include "trace/replayer.hpp"

using namespace hwgc;

namespace {

int cmd_record(int argc, char** argv) {
  std::string out;
  bool binary = false;
  BenchmarkId benchmark = BenchmarkId::kDb;
  double scale = 0.002;
  std::uint64_t seed = 42;
  std::uint64_t fuzz_seed = 0;
  std::uint64_t churn_seed = 0;
  std::size_t steps = 600;
  bool lisp = false;
  unsigned fib_n = 8;
  unsigned range_n = 16;
  Flags t("tracectl record",
          "records one trace; give --out and exactly one source flag\n"
          "(--benchmark, --fuzz-seed, --churn-seed or --lisp)");
  t.value("--out", out, "trace file to write").metavar("FILE");
  t.toggle("--binary", binary, "binary serialization");
  t.value("--benchmark", benchmark,
          choice(parse_benchmark,
                 [](BenchmarkId id) { return benchmark_name(id); },
                 all_benchmarks()),
          "source: one benchmark shape");
  t.value("--scale", scale, "benchmark live-set scale");
  t.value("--seed", seed, "benchmark seed");
  t.value("--fuzz-seed", fuzz_seed, "source: adversarial fuzz graph");
  t.value("--churn-seed", churn_seed, "source: seeded churn");
  t.value("--steps", steps, "churn steps");
  t.toggle("--lisp", lisp, "source: the lisp demo session");
  t.value("--fib", fib_n, "lisp fib argument");
  t.value("--range", range_n, "lisp range length");
  t.parse(argc, argv);
  if (out.empty()) t.fail("needs --out FILE");
  if (const auto e = scale_error(scale); !e.empty()) t.fail("--scale " + e);

  Trace trace;
  if (t.seen("--benchmark")) {
    trace = trace_from_benchmark(benchmark, scale, seed);
  } else if (t.seen("--fuzz-seed")) {
    trace = trace_from_fuzz_seed(fuzz_seed);
  } else if (t.seen("--churn-seed")) {
    trace = trace_from_churn(churn_seed, steps);
  } else if (lisp) {
    trace = trace_from_lisp(fib_n, range_n);
  } else {
    t.fail("needs a source flag");
  }
  save_trace(out, trace, binary);
  std::printf("%s: %zu events, %zu objects, digest 0x%llx\n", out.c_str(),
              trace.ops.size(), static_cast<std::size_t>(trace.objects()),
              static_cast<unsigned long long>(trace.digest()));
  return 0;
}

int cmd_corpus(int argc, char** argv) {
  std::string dir = "traces";
  Flags t("tracectl corpus", "regenerates the committed trace corpus");
  t.value("--dir", dir, "output directory").metavar("DIR");
  t.parse(argc, argv);
  const std::size_t n = write_corpus(dir);
  std::printf("wrote %zu corpus traces to %s/\n", n, dir.c_str());
  return 0;
}

int cmd_replay(int argc, char** argv) {
  std::string file;
  CollectorId collector = CollectorId::kCoprocessor;
  bool all = false;
  ReplayConfig cfg;
  Flags t("tracectl replay",
          "replays FILE under one collector or all of them; exit 0 only if\n"
          "every cycle passed the oracle, every read probe matched and all\n"
          "collectors agree on the live-graph digest");
  t.value("FILE", file, "trace to replay");
  t.value("--collector", collector,
          choice(parse_collector, [](CollectorId id) { return to_string(id); },
                 all_collectors()),
          "collector to replay under");
  t.toggle("--all", all, "replay under every collector");
  t.value("--threads", cfg.threads, "collector threads/cores");
  t.value("--seed", cfg.schedule_seed, "schedule seed");
  t.parse(argc, argv);
  if (file.empty()) t.fail("needs FILE");

  const Trace trace = load_trace(file);
  const std::vector<CollectorId> ids =
      all ? all_collectors() : std::vector<CollectorId>{collector};

  bool ok = true;
  std::optional<std::uint64_t> reference_digest;
  for (CollectorId id : ids) {
    cfg.collector = id;
    // Under --all the chunk/LAB collectors get differential headroom, so
    // their interleaving-dependent waste cannot fail the comparison; the
    // dense collectors, and --collector X, run at the recorded size.
    cfg.semispace_words = all && !traits_of(id).dense
                              ? differential_semispace_words(trace.header)
                              : 0;
    const ReplayResult r = replay_trace(trace, cfg);
    std::printf("%-12s semispace %u: %s\n", to_string(id),
                cfg.semispace_words != 0 ? cfg.semispace_words
                                         : trace.header.semispace_words,
                r.summary().c_str());
    if (!r.ok) ok = false;
    if (!reference_digest) {
      reference_digest = r.live_graph_digest;
    } else if (*reference_digest != r.live_graph_digest) {
      std::printf("%-12s DIVERGES from %s's live-graph digest\n",
                  to_string(id), to_string(ids.front()));
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

/// The FILE... argument list of validate and stats.
std::vector<std::string> parse_files(const char* tool, const char* about,
                                     int argc, char** argv) {
  std::vector<std::string> files;
  Flags t(tool, about);
  t.list("FILE", files, "trace files");
  t.parse(argc, argv);
  if (files.empty()) t.fail("needs at least one FILE");
  return files;
}

int cmd_validate(int argc, char** argv) {
  bool ok = true;
  for (const std::string& file :
       parse_files("tracectl validate",
                   "verifies digest + structural invariants", argc, argv)) {
    try {
      const Trace t = load_trace(file);
      std::printf("%s: ok (%zu events, digest 0x%llx)\n", file.c_str(),
                  t.ops.size(),
                  static_cast<unsigned long long>(t.digest()));
    } catch (const TraceError& e) {
      std::printf("%s: %s\n", file.c_str(), e.what());
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

int cmd_stats(int argc, char** argv) {
  for (const std::string& file :
       parse_files("tracectl stats", "header + op-kind histogram", argc,
                   argv)) {
    const Trace t = load_trace(file);
    const TraceHeader& h = t.header;
    std::printf("%s\n", file.c_str());
    std::printf("  name=%s semispace=%llu cores=%u fifo=%u schedule=%s "
                "seed=%llu jitter=%llu\n",
                h.name.c_str(),
                static_cast<unsigned long long>(h.semispace_words), h.cores,
                h.header_fifo_capacity, to_string(h.schedule),
                static_cast<unsigned long long>(h.schedule_seed),
                static_cast<unsigned long long>(h.latency_jitter));
    std::map<TraceOp::Kind, std::size_t> histogram;
    for (const TraceOp& op : t.ops) ++histogram[op.kind];
    std::printf("  %zu events, %llu objects, %llu collect hints, digest "
                "0x%llx\n",
                t.ops.size(), static_cast<unsigned long long>(t.objects()),
                static_cast<unsigned long long>(t.collect_hints()),
                static_cast<unsigned long long>(t.digest()));
    for (const auto& [kind, count] : histogram) {
      std::printf("    %-8s %zu\n", to_string(kind), count);
    }
  }
  return 0;
}

int cmd_minimize(int argc, char** argv) {
  std::uint64_t seed = 0;
  std::string out;
  std::uint32_t budget = 48;
  Flags t("tracectl minimize",
          "fuzz case -> trace bridge: minimizes a failing case first");
  t.value("--seed", seed, "fuzz master seed");
  t.value("--out", out, "trace file to write").metavar("FILE");
  t.value("--budget", budget, "oracle runs the minimizer may spend");
  t.parse(argc, argv);
  if (!t.seen("--seed") || out.empty()) t.fail("needs --seed N and --out FILE");

  FuzzCase fc = case_from_seed(seed);
  const ConformanceVerdict verdict = run_fuzz_case(fc);
  if (!verdict.ok) {
    std::printf("seed %llu FAILS the differential oracle; minimizing...\n",
                static_cast<unsigned long long>(seed));
    fc = minimize_case(fc, budget);
  } else {
    std::printf("seed %llu passes the oracle; emitting its trace as-is\n",
                static_cast<unsigned long long>(seed));
  }
  const Trace trace = trace_from_fuzz_case(fc);
  save_trace(out, trace);
  std::printf("%s: %zu events, %zu objects (case: %s)\n", out.c_str(),
              trace.ops.size(), static_cast<std::size_t>(trace.objects()),
              fc.summary().c_str());
  return verdict.ok ? 0 : 1;
}

int cmd_transform(int argc, char** argv) {
  std::string in;
  std::string out;
  bool binary = false;
  double scale = 1.0;
  Flags t("tracectl transform",
          "rescales object data sizes, re-deriving read digests");
  t.value("FILE", in, "trace to transform");
  t.value("--scale-sizes", scale, "data-size factor");
  t.value("--out", out, "trace file to write").metavar("FILE");
  t.toggle("--binary", binary, "binary serialization");
  t.parse(argc, argv);
  if (in.empty() || out.empty() || !t.seen("--scale-sizes")) {
    t.fail("needs FILE, --scale-sizes F and --out FILE");
  }
  if (!(scale > 0.0)) t.fail("--scale-sizes must be > 0");

  const Trace trace = load_trace(in);
  const Trace scaled = scale_trace_sizes(trace, scale);
  save_trace(out, scaled, binary);
  std::printf("%s: %zu events -> %zu, semispace %llu -> %llu, "
              "digest 0x%llx -> 0x%llx\n",
              out.c_str(), trace.ops.size(), scaled.ops.size(),
              static_cast<unsigned long long>(trace.header.semispace_words),
              static_cast<unsigned long long>(scaled.header.semispace_words),
              static_cast<unsigned long long>(trace.digest()),
              static_cast<unsigned long long>(scaled.digest()));
  return 0;
}

struct Command {
  const char* name;
  const char* about;
  int (*run)(int argc, char** argv);
};

constexpr Command kCommands[] = {
    {"record", "record one trace (benchmark, fuzz, churn or lisp source)",
     cmd_record},
    {"corpus", "regenerate the committed corpus", cmd_corpus},
    {"replay", "replay a trace under one collector or all", cmd_replay},
    {"validate", "verify digest + structural invariants", cmd_validate},
    {"stats", "header + op-kind histogram", cmd_stats},
    {"minimize", "fuzz case -> trace bridge", cmd_minimize},
    {"transform", "rescale object data sizes", cmd_transform},
};

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  for (const Command& c : kCommands) {
    if (cmd != c.name) continue;
    try {
      return c.run(argc - 1, argv + 1);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "tracectl: %s\n", e.what());
      return 1;
    }
  }
  std::string about = "commands (tracectl <command> --help lists its flags):";
  for (const Command& c : kCommands) {
    const std::string name = c.name;
    about += "\n  " + name + std::string(12 - name.size(), ' ') + c.about;
  }
  Flags t("tracectl", about);
  std::string command;
  t.value("command", command, "one of the commands above");
  if (cmd == "-h" || cmd == "--help") {
    std::fputs(t.usage().c_str(), stdout);
    return 0;
  }
  t.fail(cmd.empty() ? "missing command" : "unknown command " + cmd);
}
