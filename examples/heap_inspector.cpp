// Heap inspector: dump the tricolor life of a collection cycle.
//
// Runs a small workload with per-cycle signal tracing (the software
// counterpart of the prototype's FPGA monitoring framework, Section VI-A),
// prints an object-by-object map of tospace after the cycle, and writes
// the scan/free pointer trace to heap_trace.csv for offline plotting.
//
// Usage: ./examples/heap_inspector [scale]
#include <cstdio>

#include "core/coprocessor.hpp"
#include "heap/object_model.hpp"
#include "heap/verifier.hpp"
#include "sim/flags.hpp"
#include "workloads/benchmarks.hpp"

int main(int argc, char** argv) {
  using namespace hwgc;
  double scale = 0.02;
  Flags t("heap_inspector", "dumps the tricolor life of one collection cycle");
  t.value("scale", scale, "live-set scale factor of the jlisp workload");
  t.parse(argc, argv);

  Workload w = make_benchmark(BenchmarkId::kJlisp, scale);
  Heap& heap = *w.heap;
  const HeapSnapshot pre = HeapSnapshot::capture(heap);
  std::printf("pre-GC: %zu live objects, %u live words, semispace %u words\n",
              pre.objects.size(), pre.live_words,
              heap.layout().semispace_words());

  SimConfig cfg;
  cfg.coprocessor.num_cores = 4;
  Coprocessor coproc(cfg, heap);
  SignalTrace trace;
  const GcCycleStats s = coproc.collect(&trace);
  std::printf("collected in %llu cycles on 4 cores\n",
              static_cast<unsigned long long>(s.total_cycles));
  if (trace.write_csv("heap_trace.csv")) {
    std::printf("wrote %zu signal samples (scan/free/gray/busy) to "
                "heap_trace.csv\n\n",
                trace.events().size());
  } else {
    std::fprintf(stderr, "error: failed to write heap_trace.csv\n");
    return 1;
  }

  // Walk the compacted space: every object must be black, and the paper's
  // object layout (Figure 3) is directly visible.
  Addr cur = heap.layout().current_base();
  const Addr end = heap.alloc_ptr();
  std::printf("tospace map (first 12 objects):\n");
  std::printf("%-10s %-6s %-4s %-6s %s\n", "addr", "state", "pi", "delta",
              "pointer fields");
  int shown = 0;
  std::size_t black = 0, total = 0;
  while (cur < end) {
    const Word attrs = heap.memory().load(attributes_addr(cur));
    ++total;
    if (is_black(attrs)) ++black;
    if (shown < 12) {
      std::printf("0x%08x %-6s %-4u %-6u [", cur,
                  is_black(attrs) ? "black" : "gray?", pi_of(attrs),
                  delta_of(attrs));
      for (Word i = 0; i < pi_of(attrs); ++i) {
        std::printf("%s0x%x", i ? ", " : "",
                    heap.memory().load(pointer_field_addr(cur, i)));
      }
      std::printf("]\n");
      ++shown;
    }
    cur += object_words(attrs);
  }
  std::printf("... %zu objects total, %zu black (must be all)\n\n", total,
              black);

  const VerifyResult res = verify_collection(pre, heap);
  std::printf("verifier: %s\n", res.summary().c_str());
  return res.ok && black == total ? 0 : 1;
}
