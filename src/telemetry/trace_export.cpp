#include "telemetry/trace_export.hpp"

#include "telemetry/jsonl.hpp"

namespace hwgc {

namespace {

/// Catapult reserved color name for a span, keyed off its name/category —
/// this is what makes stall reasons visually distinct in the timeline.
const char* cname_for(const TelemetrySpan& s) {
  if (s.cat == TelemetryCategory::kCore) {
    if (s.name == "busy") return "thread_state_running";
    if (s.name == "idle") return "grey";
    if (s.name == "stall:fault") return "terrible";
    if (s.name == "stall:scan-lock" || s.name == "stall:free-lock" ||
        s.name == "stall:header-lock") {
      return "bad";
    }
    if (s.name == "stall:barrier") return "white";
    return "thread_state_iowait";  // memory waits (loads/stores)
  }
  if (s.cat == TelemetryCategory::kPhase) {
    if (s.name == "root-evacuation") return "startup";
    if (s.name == "parallel-scan") return "rail_animation";
    return "rail_idle";  // drain
  }
  if (s.cat == TelemetryCategory::kLock) return "generic_work";
  if (s.cat == TelemetryCategory::kRecovery) return "cq_build_failed";
  return "generic_work";
}

void u64(std::string& out, std::uint64_t v) { out += std::to_string(v); }

}  // namespace

std::string chrome_trace_json(const TelemetryBus& bus,
                              const ChromeTraceOptions& opt) {
  std::string out;
  out.reserve(1u << 16);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  // Track naming + ordering (one "thread" per track, pid 1).
  const auto& tracks = bus.track_names();
  for (std::uint32_t t = 0; t < tracks.size(); ++t) {
    sep();
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
    u64(out, t);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    append_escaped(out, tracks[t]);
    out += "\"}}";
    sep();
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
    u64(out, t);
    out += ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":";
    u64(out, t);
    out += "}}";
  }

  // Collection epoch markers.
  for (const TelemetryEpoch& e : bus.epochs()) {
    sep();
    out += "{\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":0,\"ts\":";
    u64(out, e.begin);
    out += ",\"cat\":\"runtime\",\"name\":\"";
    append_escaped(out, e.label.empty() ? std::string("collection")
                                        : e.label);
    out += "\"}";
  }

  for (const TelemetrySpan& s : bus.spans()) {
    sep();
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":";
    u64(out, s.track);
    out += ",\"ts\":";
    u64(out, s.begin);
    out += ",\"dur\":";
    u64(out, s.end - s.begin);
    out += ",\"cat\":\"";
    out += to_string(s.cat);
    out += "\",\"name\":\"";
    append_escaped(out, s.name);
    out += "\",\"cname\":\"";
    out += cname_for(s);
    out += "\"}";
  }

  for (const TelemetryInstant& i : bus.instants()) {
    sep();
    out += "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":";
    u64(out, i.track);
    out += ",\"ts\":";
    u64(out, i.at);
    out += ",\"cat\":\"";
    out += to_string(i.cat);
    out += "\",\"name\":\"";
    append_escaped(out, i.name);
    out += "\"}";
  }

  const auto& counter_names = bus.counter_names();
  for (const TelemetryCounter& c : bus.counters()) {
    sep();
    out += "{\"ph\":\"C\",\"pid\":1,\"ts\":";
    u64(out, c.at);
    out += ",\"name\":\"";
    append_escaped(out, c.series < counter_names.size()
                            ? counter_names[c.series]
                            : "counter " + std::to_string(c.series));
    out += "\",\"args\":{\"value\":";
    u64(out, c.value);
    out += "}}";
  }

  // Legacy SignalTrace merge: the 32-signal monitor's samples as counter
  // series, its notes as global instants. Signal cycles are relative to
  // the first recorded epoch (cycle 0 of the first collection).
  if (opt.signals != nullptr) {
    const Cycle base = bus.epochs().empty() ? 0 : bus.epochs().front().begin;
    const auto& names = opt.signals->signal_names();
    for (const TraceEvent& e : opt.signals->events()) {
      sep();
      out += "{\"ph\":\"C\",\"pid\":1,\"ts\":";
      u64(out, base + e.cycle);
      out += ",\"name\":\"sig:";
      append_escaped(out, e.signal < names.size()
                              ? names[e.signal]
                              : "sig" + std::to_string(e.signal));
      out += "\",\"args\":{\"value\":";
      u64(out, e.value);
      out += "}}";
    }
    for (const auto& [cycle, text] : opt.signals->notes()) {
      sep();
      out += "{\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":0,\"ts\":";
      u64(out, base + cycle);
      out += ",\"cat\":\"note\",\"name\":\"";
      append_escaped(out, text);
      out += "\"}";
    }
  }

  if (bus.dropped() != 0) {
    sep();
    out += "{\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":0,\"ts\":0,"
           "\"cat\":\"telemetry\",\"name\":\"telemetry: ";
    u64(out, bus.dropped());
    out += " event(s) dropped past the max_events cap\"}";
  }

  out += "\n]}\n";
  return out;
}

bool write_chrome_trace(const TelemetryBus& bus, const std::string& path,
                        const ChromeTraceOptions& opt) {
  return write_jsonl_file(path, chrome_trace_json(bus, opt));
}

}  // namespace hwgc
