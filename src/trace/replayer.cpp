#include "trace/replayer.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/fnv.hpp"
#include "trace/recorder.hpp"

namespace hwgc {

namespace {

/// Narrows a trace operand to a Word. The loaders reject out-of-range
/// operands (check_trace), but a cursor may be handed a trace built in
/// memory: fail naming the operation rather than truncate.
Word word_operand(const TraceOp& op, std::uint64_t v) {
  if (v > std::numeric_limits<Word>::max()) {
    throw TraceError(std::string("hwgc-trace-v1: ") + to_string(op.kind) +
                     " operand " + std::to_string(v) +
                     " out of the Word range");
  }
  return static_cast<Word>(v);
}

}  // namespace

TraceCursor::TraceCursor(const Trace* trace, bool wrap)
    : trace_(trace), wrap_(wrap) {
  if (trace_ == nullptr) {
    throw std::invalid_argument("TraceCursor: null trace");
  }
}

std::uint64_t TraceCursor::live_ids() const noexcept {
  std::uint64_t n = 0;
  for (const auto& r : refs_) {
    if (!r.empty()) ++n;
  }
  return n;
}

std::uint64_t TraceCursor::live_graph_digest(Runtime& rt) const {
  Fnv1a h;
  for (std::size_t id = 0; id < refs_.size(); ++id) {
    if (refs_[id].empty()) continue;
    const Runtime::Ref ref = refs_[id].front();
    h.mix(id);
    const Word pi = rt.pi(ref);
    const Word delta = rt.delta(ref);
    h.mix(pi);
    h.mix(delta);
    for (Word j = 0; j < delta; ++j) h.mix(rt.get_data(ref, j));
    for (Word f = 0; f < pi; ++f) h.mix(children_[id][f]);
    h.mix(refs_[id].size());
  }
  return h.h;
}

void TraceCursor::wrap_around(Runtime& rt) {
  for (auto& list : refs_) {
    for (Runtime::Ref ref : list) rt.release(ref);
    list.clear();
  }
  refs_.clear();
  children_.clear();
  pos_ = 0;
  ++wraps_;
}

std::size_t TraceCursor::apply(Runtime& rt, std::size_t max_ops) {
  std::size_t applied = 0;
  while (applied < max_ops) {
    if (pos_ >= trace_->ops.size()) {
      if (!wrap_) break;
      wrap_around(rt);
      if (trace_->ops.empty()) break;
    }
    apply_one(rt, trace_->ops[pos_]);
    ++pos_;
    ++applied;
  }
  return applied;
}

void TraceCursor::apply_one(Runtime& rt, const TraceOp& op) {
  switch (op.kind) {
    case TraceOp::Kind::kAlloc: {
      const Runtime::Ref ref =
          rt.alloc(word_operand(op, op.b), word_operand(op, op.c));
      refs_.emplace_back();
      children_.emplace_back(op.b, kNoTraceId);
      refs_[op.a].push_back(ref);
      break;
    }
    case TraceOp::Kind::kData:
      rt.set_data(refs_[op.a].back(), word_operand(op, op.b),
                  word_operand(op, op.c));
      break;
    case TraceOp::Kind::kLink:
      if (op.c == kNoTraceId) {
        rt.set_ptr_null(refs_[op.a].back(), word_operand(op, op.b));
      } else {
        rt.set_ptr(refs_[op.a].back(), word_operand(op, op.b),
                   refs_[op.c].back());
      }
      children_[op.a][op.b] = op.c;
      break;
    case TraceOp::Kind::kRetain:
      refs_[op.a].push_back(rt.dup(refs_[op.a].back()));
      break;
    case TraceOp::Kind::kLoad: {
      const Runtime::Ref child =
          rt.load_ptr(refs_[op.a].back(), word_operand(op, op.b));
      if (child.is_null()) {
        // The link-stream mirror proved this field non-null at load time;
        // a null here means the collector under replay lost the pointer.
        ++read_mismatches_;
      } else {
        refs_[op.c].push_back(child);
      }
      break;
    }
    case TraceOp::Kind::kRelease: {
      auto& list = refs_[op.a];
      rt.release(list[op.b]);
      list.erase(list.begin() + static_cast<std::ptrdiff_t>(op.b));
      break;
    }
    case TraceOp::Kind::kRead: {
      const ReadProbe probe = rt.read_probe(refs_[op.a].back());
      if (probe.words != op.b || probe.digest != op.c) ++read_mismatches_;
      break;
    }
    case TraceOp::Kind::kCollect:
      rt.collect();
      ++explicit_collects_;
      break;
    case TraceOp::Kind::kCount:
      break;
  }
}

std::string ReplayResult::summary() const {
  std::ostringstream os;
  os << (ok ? "ok" : "FAIL") << ": " << ops_applied << " ops, " << collections
     << " collections (" << explicit_collects << " explicit), " << live_ids
     << " live ids, digest 0x" << std::hex << live_graph_digest << std::dec;
  if (read_mismatches != 0) os << ", " << read_mismatches << " read mismatches";
  for (const std::string& f : findings) os << "\n  " << f;
  return os.str();
}

ReplayResult replay_trace(const Trace& trace, const ReplayConfig& cfg) {
  ReplayResult result;
  const TraceHeader& h = trace.header;
  const Word semispace =
      cfg.semispace_words != 0 ? cfg.semispace_words : h.semispace_words;
  // The simulators run the header's knobs; the software collectors take
  // the worker count and the (possibly overridden) schedule seed.
  HarnessConfig hc;
  static_cast<CoprocessorKnobs&>(hc) = h;
  hc.cores = cfg.threads;
  if (cfg.schedule_seed != ~std::uint64_t{0}) {
    hc.schedule_seed = cfg.schedule_seed;
  }
  hc.torture.seed = hc.schedule_seed;
  Runtime rt(semispace, h.sim_config(), cfg.collector, hc);
  rt.set_cycle_observer(cfg.observer);
  CycleOracle oracle("", 64);
  if (cfg.oracle) rt.set_collection_observer(&oracle);

  TraceRecorder rerec(h);
  if (cfg.rerecord) rerec.attach(rt);

  TraceCursor cursor(&trace, /*wrap=*/false);
  result.ops_applied = cursor.apply(rt, trace.ops.size());
  result.read_mismatches = cursor.read_mismatches();
  result.explicit_collects = cursor.explicit_collects();
  result.live_ids = cursor.live_ids();
  result.live_graph_digest = cursor.live_graph_digest(rt);
  result.gc_history = rt.gc_history();
  result.collections = result.gc_history.size();
  result.findings = oracle.findings();
  result.ok = oracle.failures() == 0;
  if (result.read_mismatches != 0) {
    result.ok = false;
    result.findings.push_back(std::to_string(result.read_mismatches) +
                              " replayed read(s) diverged from the recorded "
                              "digests");
  }
  if (cfg.rerecord) {
    rerec.detach(rt);
    result.rerecorded = rerec.take();
  }
  return result;
}

}  // namespace hwgc
