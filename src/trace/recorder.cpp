#include "trace/recorder.hpp"

#include <stdexcept>
#include <string>

namespace hwgc {

TraceRecorder::TraceRecorder(TraceHeader header) {
  trace_.header = std::move(header);
}

void TraceRecorder::attach(Runtime& rt) {
  if (rt.live_roots() != 0) {
    throw std::logic_error(
        "TraceRecorder: recording must start on a runtime without live "
        "roots (" +
        std::to_string(rt.live_roots()) +
        " live) — a trace replays against a fresh runtime");
  }
  const SimConfig& cfg = rt.config();
  trace_.header.semispace_words = rt.heap().capacity_words();
  static_cast<CoprocessorKnobs&>(trace_.header) = CoprocessorKnobs::of(cfg);
  rt.set_trace_sink(this);
}

void TraceRecorder::detach(Runtime& rt) {
  if (rt.trace_sink() == this) rt.set_trace_sink(nullptr);
}

std::uint64_t TraceRecorder::id_of(std::size_t slot) const {
  const auto it = slot_to_id_.find(slot);
  if (it == slot_to_id_.end()) {
    throw std::logic_error(
        "TraceRecorder: operation on root slot " + std::to_string(slot) +
        " that the recorder never saw created (attach the recorder before "
        "the first allocation)");
  }
  return it->second;
}

void TraceRecorder::bind(std::size_t slot, std::uint64_t id) {
  slot_to_id_[slot] = id;
  live_slots_[id].push_back(slot);
}

void TraceRecorder::on_alloc(Runtime&, std::size_t slot, Word pi, Word delta) {
  const std::uint64_t id = next_id_++;
  live_slots_.emplace_back();
  children_.emplace_back(pi, kNoTraceId);
  bind(slot, id);
  trace_.ops.push_back({TraceOp::Kind::kAlloc, id, pi, delta});
}

void TraceRecorder::on_release(Runtime&, std::size_t slot) {
  const std::uint64_t id = id_of(slot);
  auto& slots = live_slots_[id];
  std::size_t which = 0;
  while (which < slots.size() && slots[which] != slot) ++which;
  trace_.ops.push_back({TraceOp::Kind::kRelease, id, which, 0});
  slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(which));
  slot_to_id_.erase(slot);
}

void TraceRecorder::on_set_ptr(Runtime&, std::size_t obj_slot, Word field,
                               bool target_null, std::size_t target_slot) {
  const std::uint64_t src = id_of(obj_slot);
  const std::uint64_t dst = target_null ? kNoTraceId : id_of(target_slot);
  children_[src][field] = dst;
  trace_.ops.push_back({TraceOp::Kind::kLink, src, field, dst});
}

void TraceRecorder::on_load_ptr(Runtime&, std::size_t obj_slot, Word field,
                                std::size_t out_slot) {
  const std::uint64_t parent = id_of(obj_slot);
  const std::uint64_t child = children_[parent][field];
  if (child == kNoTraceId) {
    throw std::logic_error(
        "TraceRecorder: load_ptr returned an object through a field the "
        "recorded link stream believes is null — a pointer store bypassed "
        "the Runtime facade while recording");
  }
  bind(out_slot, child);
  trace_.ops.push_back({TraceOp::Kind::kLoad, parent, field, child});
}

void TraceRecorder::on_dup(Runtime&, std::size_t src_slot,
                           std::size_t out_slot) {
  const std::uint64_t id = id_of(src_slot);
  bind(out_slot, id);
  trace_.ops.push_back({TraceOp::Kind::kRetain, id, 0, 0});
}

void TraceRecorder::on_set_data(Runtime&, std::size_t obj_slot, Word j,
                                Word value) {
  trace_.ops.push_back({TraceOp::Kind::kData, id_of(obj_slot), j, value});
}

void TraceRecorder::on_read(Runtime&, std::size_t obj_slot,
                            const ReadProbe& probe) {
  trace_.ops.push_back(
      {TraceOp::Kind::kRead, id_of(obj_slot), probe.words, probe.digest});
}

void TraceRecorder::on_collect(Runtime&) {
  trace_.ops.push_back({TraceOp::Kind::kCollect, 0, 0, 0});
}

}  // namespace hwgc
