// Demo CLI for the managed-heap Lisp interpreter (src/workloads/lisp.hpp):
// runs the fib + range/sum demo session and reports allocation/GC totals.
//
//   $ ./examples/lisp_interpreter
//   $ ./examples/lisp_interpreter --fib 12 --range 40
//   $ ./examples/lisp_interpreter --record session.jsonl
//
// --record captures the whole evaluation as an hwgc-trace-v1 stream through
// the Runtime trace sink; replay it with `tracectl replay session.jsonl`.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "sim/flags.hpp"
#include "trace/recorder.hpp"
#include "workloads/lisp.hpp"

using namespace hwgc;

int main(int argc, char** argv) {
  unsigned fib_n = 16;
  unsigned range_n = 60;
  std::string record_path;
  bool binary = false;
  Flags t("lisp_interpreter", "runs the fib + range/sum demo session");
  t.value("--fib", fib_n, "fib argument of the demo");
  t.value("--range", range_n, "range length of the demo");
  t.value("--record", record_path,
          "capture the evaluation as an hwgc-trace-v1 stream")
      .metavar("FILE");
  t.toggle("--binary", binary, "write the recorded trace in binary form");
  t.parse(argc, argv);

  Lisp lisp;
  TraceRecorder recorder([] {
    TraceHeader h;
    h.name = "lisp";
    return h;
  }());
  if (!record_path.empty()) recorder.attach(lisp.runtime());

  try {
    for (const std::string& src : Lisp::demo_program(fib_n, range_n)) {
      std::printf("> %s\n", src.c_str());
      std::printf("%s\n", lisp.run(src).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf("\n%llu objects allocated, %zu GC coprocessor cycles ran "
              "during evaluation\n",
              static_cast<unsigned long long>(lisp.allocations()),
              lisp.gc_cycles());

  if (!record_path.empty()) {
    recorder.detach(lisp.runtime());
    try {
      save_trace(record_path, recorder.trace(), binary);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::printf("recorded %zu events to %s (digest 0x%llx)\n",
                recorder.trace().ops.size(), record_path.c_str(),
                static_cast<unsigned long long>(recorder.trace().digest()));
  }
  return 0;
}
