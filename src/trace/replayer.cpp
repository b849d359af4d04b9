#include "trace/replayer.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

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

TraceCursor::TraceCursor(ChurnSource churn) : churn_(std::move(churn)) {}

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

std::size_t TraceCursor::validate(Runtime& rt) const {
  std::size_t mismatches = 0;
  // Heap address of each id, as first reached by the walk.
  std::vector<std::optional<Addr>> seen(refs_.size());
  struct Visit {
    std::uint64_t id;
    Runtime::Ref ref;
  };
  std::vector<Visit> stack;
  std::vector<Runtime::Ref> temps;
  for (std::uint64_t id = 0; id < refs_.size(); ++id) {
    if (!refs_[id].empty()) stack.push_back({id, refs_[id].back()});
  }
  while (!stack.empty()) {
    const Visit v = stack.back();
    stack.pop_back();
    const Addr addr = rt.address_of(v.ref);
    if (seen[v.id].has_value()) {
      if (*seen[v.id] != addr) ++mismatches;  // aliasing broken
      continue;
    }
    seen[v.id] = addr;
    const std::vector<std::uint64_t>& children = children_[v.id];
    const std::vector<Word>& data = data_[v.id];
    if (rt.pi(v.ref) != children.size() || rt.delta(v.ref) != data.size()) {
      ++mismatches;
      continue;
    }
    for (Word j = 0; j < data.size(); ++j) {
      if (rt.get_data(v.ref, j) != data[j]) ++mismatches;
    }
    for (Word f = 0; f < children.size(); ++f) {
      const Runtime::Ref child = rt.load_ptr(v.ref, f);
      if (children[f] == kNoTraceId) {
        if (!child.is_null()) {
          ++mismatches;
          rt.release(child);
        }
        continue;
      }
      if (child.is_null()) {
        ++mismatches;
        continue;
      }
      temps.push_back(child);
      stack.push_back({children[f], child});
    }
  }
  for (Runtime::Ref r : temps) rt.release(r);
  return mismatches;
}

std::uint64_t TraceCursor::state_digest() const {
  Fnv1a h;
  h.mix(pos_);
  h.mix(read_mismatches_);
  h.mix(explicit_collects_);
  h.mix(refs_.size());
  for (std::size_t id = 0; id < refs_.size(); ++id) {
    h.mix(refs_[id].size());
    for (Runtime::Ref r : refs_[id]) h.mix(r.slot_index());
    h.mix(children_[id].size());
    for (std::uint64_t c : children_[id]) h.mix(c);
    h.mix(data_[id].size());
    for (Word w : data_[id]) h.mix(w);
  }
  if (churn_) churn_->mix_state(h);
  return h.h;
}

void TraceCursor::wrap_around(Runtime& rt) {
  for (auto& list : refs_) {
    for (Runtime::Ref ref : list) rt.release(ref);
    list.clear();
  }
  refs_.clear();
  children_.clear();
  data_.clear();
  pos_ = 0;
}

std::size_t TraceCursor::apply(Runtime& rt, std::size_t budget, bool read) {
  if (churn_) {
    if (!read) {
      for (std::size_t i = 0; i < budget; ++i) churn_->step(*this, rt);
      return budget;
    }
    std::size_t words = 0;
    for (std::size_t i = 0; i < budget; ++i) words += churn_->read(*this, rt);
    return words;
  }
  std::size_t applied = 0;
  while (applied < budget) {
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
      data_.emplace_back(op.c, Word{0});
      refs_[op.a].push_back(ref);
      break;
    }
    case TraceOp::Kind::kData: {
      const Word value = word_operand(op, op.c);
      rt.set_data(refs_[op.a].back(), word_operand(op, op.b), value);
      data_[op.a][op.b] = value;
      break;
    }
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

Word differential_semispace_words(const TraceHeader& header) {
  return static_cast<Word>(std::min<std::uint64_t>(
      2 * std::uint64_t{header.semispace_words},
      std::numeric_limits<Word>::max()));
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
