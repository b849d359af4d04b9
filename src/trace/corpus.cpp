#include "trace/corpus.hpp"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "heap/object_model.hpp"
#include "trace/recorder.hpp"
#include "workloads/lisp.hpp"
#include "workloads/mutator.hpp"

namespace hwgc {

namespace {

/// Deterministic data-word pattern for plan-derived traces (splitmix64 of
/// the node/word coordinates — any fixed function works, it only has to be
/// reproducible and non-trivial so read digests actually verify content).
Word plan_word(std::uint64_t node, std::uint64_t j) {
  std::uint64_t z = node * 0x9e3779b97f4a7c15ull + (j + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return static_cast<Word>(z ^ (z >> 31));  // the low word is the pattern
}

}  // namespace

Trace trace_from_plan(const GraphPlan& plan, TraceHeader header) {
  // Size the semispace so the fully-rooted build phase cannot exhaust it
  // (every node holds a build root until the graph is wired), with slack
  // for the chunk/LAB collectors' fragmentation on replay.
  std::uint64_t total = 0;
  std::uint64_t live = 0;
  for (const GraphPlan::Node& n : plan.nodes) {
    const std::uint64_t words = object_words(n.pi, n.delta);
    total += words;
    if (!n.garbage) live += words;
  }
  const std::uint64_t semispace = std::max(total + total / 2, 2 * live) + 64;
  if (semispace > std::numeric_limits<Word>::max()) {
    throw TraceError("hwgc-trace-v1: plan needs a " +
                     std::to_string(semispace) +
                     "-word semispace, beyond the Word range");
  }
  header.semispace_words = static_cast<Word>(semispace);

  Runtime rt(header.semispace_words, header.sim_config());
  TraceRecorder recorder(header);
  recorder.attach(rt);

  std::vector<Runtime::Ref> refs;
  refs.reserve(plan.nodes.size());
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    const GraphPlan::Node& n = plan.nodes[i];
    const Runtime::Ref ref = rt.alloc(n.pi, n.delta);
    const Word words = std::min<Word>(n.delta, 4);
    for (Word j = 0; j < words; ++j) rt.set_data(ref, j, plan_word(i, j));
    refs.push_back(ref);
  }
  for (const GraphPlan::Edge& e : plan.edges) {
    rt.set_ptr(refs[e.src], e.field, refs[e.dst]);
  }

  std::vector<bool> rooted(plan.nodes.size(), false);
  for (std::uint32_t r : plan.roots) rooted[r] = true;

  // Probe a prefix of the roots before dropping the build roots, so the
  // replay verifies pre-collection content too.
  std::size_t probed = 0;
  for (std::uint32_t r : plan.roots) {
    if (probed++ >= 8) break;
    rt.read_probe(refs[r]);
  }
  for (std::size_t i = 0; i < refs.size(); ++i) {
    if (!rooted[i]) rt.release(refs[i]);
  }

  rt.collect();

  // Post-collection: reload children through the heap (kLoad ops) and
  // digest-verify them — the replay side proves the collector under test
  // preserved both topology and content.
  std::size_t walked = 0;
  for (std::uint32_t r : plan.roots) {
    if (walked++ >= 4) break;
    const Word pi = rt.pi(refs[r]);
    for (Word f = 0; f < pi; ++f) {
      const Runtime::Ref child = rt.load_ptr(refs[r], f);
      if (child.is_null()) continue;
      rt.read_probe(child);
      rt.release(child);
    }
  }

  rt.collect();

  probed = 0;
  for (std::uint32_t r : plan.roots) {
    if (probed++ >= 8) break;
    rt.read_probe(refs[r]);
  }

  recorder.detach(rt);
  return recorder.take();
}

Trace trace_from_benchmark(BenchmarkId id, double scale, std::uint64_t seed) {
  TraceHeader header;
  header.name = "bench_" + std::string(benchmark_name(id));
  return trace_from_plan(make_benchmark_plan(id, scale, seed), header);
}

Trace trace_from_fuzz_case(const FuzzCase& fc) {
  TraceHeader header;
  header.name = "adversarial";
  header.cores = fc.num_cores;
  header.header_fifo_capacity = fc.header_fifo_capacity;
  header.schedule = fc.schedule;
  header.schedule_seed = fc.schedule_seed;
  header.latency_jitter = fc.latency_jitter;
  header.subobject_copy = fc.subobject_copy;
  header.markbit_early_read = fc.markbit_early_read;
  // fc.fault is deliberately not carried: traces replay under a pluggable
  // collector, which is incompatible with the fault-recovery ladder.
  return trace_from_plan(make_fuzz_plan(fc.graph_seed, fc.graph), header);
}

Trace trace_from_fuzz_seed(std::uint64_t master_seed) {
  return trace_from_fuzz_case(case_from_seed(master_seed));
}

Trace trace_from_churn(std::uint64_t seed, std::size_t steps) {
  TraceHeader header;
  header.name = "churn";
  // Sized with headroom over the mutator's ~48-object live target: the
  // chunk/LAB collectors trade space for lock-free allocation and need
  // roughly 2x the live set before an implicit cycle stops helping.
  header.semispace_words = 2048;
  header.cores = 4;

  Runtime rt(header.semispace_words, header.sim_config());
  TraceRecorder recorder(header);
  recorder.attach(rt);

  ShadowMutator::Config mc;
  mc.seed = seed;
  mc.target_live = 48;
  ShadowMutator mut(mc);

  const std::size_t phase = std::max<std::size_t>(steps / 4, 1);
  for (int p = 0; p < 4; ++p) {
    mut.run(rt, phase);
    for (int k = 0; k < 4; ++k) mut.probe(rt);
    rt.collect();
  }

  recorder.detach(rt);
  return recorder.take();
}

Trace trace_from_lisp(unsigned fib_n, unsigned range_n) {
  TraceHeader header;
  header.name = "lisp";
  // Small enough that evaluation churn triggers implicit exhaustion cycles
  // mid-statement (the interesting case: replay must re-trigger them at the
  // same allocation boundaries), with explicit hints between statements.
  header.semispace_words = 1200;

  Lisp lisp(header.semispace_words, header.sim_config());
  TraceRecorder recorder(header);
  recorder.attach(lisp.runtime());
  for (const std::string& src : Lisp::demo_program(fib_n, range_n)) {
    lisp.run(src);
    lisp.runtime().collect();
  }
  recorder.detach(lisp.runtime());
  return recorder.take();
}

std::vector<Trace> build_corpus() {
  std::vector<Trace> corpus;
  corpus.reserve(13);
  for (BenchmarkId id : all_benchmarks()) {
    // cup's two-level parser table is ~100x wider than the others at equal
    // scale; shrink it so the committed corpus stays a few hundred KB while
    // keeping its very-wide-fanout shape.
    const double scale = id == BenchmarkId::kCup ? 0.0002 : 0.002;
    corpus.push_back(trace_from_benchmark(id, scale));
  }
  const std::uint64_t fuzz_seeds[] = {0xA11CEull, 0xBEEFull, 0xC0FFEEull};
  int n = 0;
  for (std::uint64_t seed : fuzz_seeds) {
    Trace t = trace_from_fuzz_seed(seed);
    t.header.name = "adversarial_" + std::to_string(++n);
    corpus.push_back(std::move(t));
  }
  corpus.push_back(trace_from_churn(7));
  corpus.push_back(trace_from_lisp());
  return corpus;
}

std::size_t write_corpus(const std::string& dir) {
  std::filesystem::create_directories(dir);
  std::size_t written = 0;
  for (const Trace& t : build_corpus()) {
    // Bulky traces (cup's fixed-size parser table) go in the compact binary
    // variant — 25 bytes/op instead of ~90 of JSONL — which also keeps the
    // committed corpus exercising both loader paths.
    const bool binary = t.ops.size() > 100'000;
    const char* ext = binary ? ".bin" : ".jsonl";
    save_trace(dir + "/" + t.header.name + ext, t, binary);
    ++written;
  }
  return written;
}

}  // namespace hwgc
