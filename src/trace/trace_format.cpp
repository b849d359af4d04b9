#include "trace/trace_format.hpp"

#include <charconv>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/schedule_policy.hpp"
#include "heap/object_model.hpp"
#include "sim/fnv.hpp"
#include "telemetry/jsonl.hpp"

namespace hwgc {

namespace {

constexpr char kMagic[8] = {'H', 'W', 'G', 'C', 'T', 'R', 'C', '1'};
[[noreturn]] void fail(const std::string& msg) {
  throw TraceError("hwgc-trace-v1: " + msg);
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

bool parse_kind(const std::string& name, TraceOp::Kind& out) {
  for (std::uint8_t k = 0;
       k < static_cast<std::uint8_t>(TraceOp::Kind::kCount); ++k) {
    if (name == to_string(static_cast<TraceOp::Kind>(k))) {
      out = static_cast<TraceOp::Kind>(k);
      return true;
    }
  }
  return false;
}

/// Writer-side name hygiene: the JSONL emitter never needs escapes because
/// anything outside this set is replaced on save.
std::string sanitize_name(const std::string& name) {
  std::string out;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    out += ok ? c : '_';
  }
  return out.empty() ? "trace" : out;
}

}  // namespace

const char* to_string(TraceOp::Kind k) noexcept {
  switch (k) {
    case TraceOp::Kind::kAlloc: return "alloc";
    case TraceOp::Kind::kData: return "data";
    case TraceOp::Kind::kLink: return "link";
    case TraceOp::Kind::kRetain: return "retain";
    case TraceOp::Kind::kLoad: return "load";
    case TraceOp::Kind::kRelease: return "release";
    case TraceOp::Kind::kRead: return "read";
    case TraceOp::Kind::kCollect: return "collect";
    case TraceOp::Kind::kCount: break;
  }
  return "?";
}

std::uint64_t Trace::digest() const {
  Fnv1a f;
  for (const TraceOp& op : ops) {
    f.byte(static_cast<std::uint8_t>(op.kind));
    f.mix(op.a);
    f.mix(op.b);
    f.mix(op.c);
  }
  return f.h;
}

std::uint64_t Trace::objects() const {
  std::uint64_t n = 0;
  for (const TraceOp& op : ops) {
    if (op.kind == TraceOp::Kind::kAlloc) ++n;
  }
  return n;
}

std::uint64_t Trace::collect_hints() const {
  std::uint64_t n = 0;
  for (const TraceOp& op : ops) {
    if (op.kind == TraceOp::Kind::kCollect) ++n;
  }
  return n;
}

std::vector<std::string> check_trace(const Trace& trace) {
  std::vector<std::string> findings;
  const auto note = [&](std::size_t seq, const std::string& msg) {
    if (findings.size() < 64) {
      findings.push_back(msg + " at seq " + std::to_string(seq));
    }
  };
  struct ObjState {
    Word pi = 0;
    Word delta = 0;
    std::uint64_t live_roots = 0;
    std::vector<std::uint64_t> children;  ///< link-stream mirror
  };
  std::vector<ObjState> objs;
  const auto id_ok = [&](std::size_t seq, std::uint64_t id) {
    if (id < objs.size()) return true;
    note(seq, "out-of-range object id " + std::to_string(id) + " (only " +
                  std::to_string(objs.size()) + " objects allocated by then)");
    return false;
  };
  const auto live_ok = [&](std::size_t seq, std::uint64_t id) {
    if (!id_ok(seq, id)) return false;
    if (objs[id].live_roots > 0) return true;
    note(seq, "operation on unrooted object id " + std::to_string(id));
    return false;
  };
  for (std::size_t seq = 0; seq < trace.ops.size(); ++seq) {
    const TraceOp& op = trace.ops[seq];
    switch (op.kind) {
      case TraceOp::Kind::kAlloc: {
        if (op.a != objs.size()) {
          note(seq, "non-sequential allocation id " + std::to_string(op.a) +
                        " (expected " + std::to_string(objs.size()) + ")");
        }
        if (op.b > kMaxPi || op.c > kMaxDelta) {
          note(seq, "object shape pi=" + std::to_string(op.b) +
                        " delta=" + std::to_string(op.c) +
                        " exceeds the header encoding");
        } else if (object_words(static_cast<Word>(op.b),
                                static_cast<Word>(op.c)) >
                   trace.header.semispace_words) {
          note(seq, "object of " +
                        std::to_string(object_words(static_cast<Word>(op.b),
                                                    static_cast<Word>(op.c))) +
                        " words cannot fit the declared semispace");
        }
        ObjState st;
        // An out-of-encoding shape was noted above; record it as a zero
        // shape so later field/index checks bound against the children
        // mirror actually allocated instead of a truncated pi.
        const bool shape_ok = op.b <= kMaxPi && op.c <= kMaxDelta;
        st.pi = shape_ok ? static_cast<Word>(op.b) : 0;
        st.delta = shape_ok ? static_cast<Word>(op.c) : 0;
        st.live_roots = 1;
        st.children.assign(st.pi, kNoTraceId);
        objs.push_back(std::move(st));
        break;
      }
      case TraceOp::Kind::kData:
        if (live_ok(seq, op.a) && op.b >= objs[op.a].delta) {
          note(seq, "data index " + std::to_string(op.b) +
                        " out of range for object id " + std::to_string(op.a));
        }
        if (op.c > std::numeric_limits<Word>::max()) {
          note(seq, "data value " + std::to_string(op.c) +
                        " out of the Word range");
        }
        break;
      case TraceOp::Kind::kLink:
        if (live_ok(seq, op.a)) {
          if (op.b >= objs[op.a].pi) {
            note(seq, "pointer field " + std::to_string(op.b) +
                          " out of range for object id " +
                          std::to_string(op.a));
          } else if (op.c == kNoTraceId || id_ok(seq, op.c)) {
            objs[op.a].children[op.b] = op.c;
          }
        }
        if (op.c != kNoTraceId) live_ok(seq, op.c);
        break;
      case TraceOp::Kind::kRetain:
        if (live_ok(seq, op.a)) ++objs[op.a].live_roots;
        break;
      case TraceOp::Kind::kLoad:
        if (live_ok(seq, op.a)) {
          if (op.b >= objs[op.a].pi) {
            note(seq, "pointer field " + std::to_string(op.b) +
                          " out of range for object id " +
                          std::to_string(op.a));
          } else if (objs[op.a].children[op.b] != op.c ||
                     op.c == kNoTraceId) {
            note(seq, "load through field " + std::to_string(op.b) +
                          " of object id " + std::to_string(op.a) +
                          " resolves to id " +
                          (objs[op.a].children[op.b] == kNoTraceId
                               ? std::string("null")
                               : std::to_string(objs[op.a].children[op.b])) +
                          " per the link stream, trace says " +
                          std::to_string(op.c));
          } else {
            ++objs[op.c].live_roots;
          }
        }
        break;
      case TraceOp::Kind::kRelease:
        if (live_ok(seq, op.a)) {
          if (op.b >= objs[op.a].live_roots) {
            note(seq, "release index " + std::to_string(op.b) +
                          " out of range for object id " +
                          std::to_string(op.a));
          }
          --objs[op.a].live_roots;
        }
        break;
      case TraceOp::Kind::kRead:
        if (live_ok(seq, op.a) && op.b != objs[op.a].delta) {
          note(seq, "read word count " + std::to_string(op.b) +
                        " does not match object delta " +
                        std::to_string(objs[op.a].delta));
        }
        break;
      case TraceOp::Kind::kCollect:
        break;
      case TraceOp::Kind::kCount:
        note(seq, "unknown event kind");
        break;
    }
  }
  return findings;
}

Trace scale_trace_sizes(const Trace& trace, double factor) {
  if (!(factor > 0.0)) {
    throw std::invalid_argument(
        "scale_trace_sizes: factor must be > 0, got " +
        std::to_string(factor));
  }
  Trace out;
  out.header = trace.header;
  out.ops.reserve(trace.ops.size());
  // Replay-state shadow of the transformed stream: per-id rescaled delta
  // and current data words (allocation zero-fills), so every kRead can be
  // re-derived exactly as Runtime::read_probe would observe it.
  std::vector<std::uint64_t> deltas;
  std::vector<std::vector<std::uint64_t>> data;
  Word max_object = 0;
  for (const TraceOp& op : trace.ops) {
    switch (op.kind) {
      case TraceOp::Kind::kAlloc: {
        std::uint64_t scaled = static_cast<std::uint64_t>(
            static_cast<double>(op.c) * factor + 0.5);
        if (scaled > kMaxDelta) scaled = kMaxDelta;
        deltas.push_back(scaled);
        data.emplace_back(scaled, 0);
        if (op.b <= kMaxPi) {
          const Word words =
              object_words(static_cast<Word>(op.b), static_cast<Word>(scaled));
          if (words > max_object) max_object = words;
        }
        out.ops.push_back({op.kind, op.a, op.b, scaled});
        break;
      }
      case TraceOp::Kind::kData:
        if (op.a < data.size() && op.b < deltas[op.a]) {
          data[op.a][op.b] = op.c;
          out.ops.push_back(op);
        }
        break;
      case TraceOp::Kind::kRead: {
        if (op.a < data.size()) {
          Fnv1a digest;
          for (std::uint64_t w : data[op.a]) digest.mix(w);
          out.ops.push_back({op.kind, op.a, deltas[op.a], digest.h});
        }
        break;
      }
      default:
        out.ops.push_back(op);
        break;
    }
  }
  // Grow the declared semispace with the workload so the scaled stream
  // still fits: proportionally for factor > 1, and never below the largest
  // single object (check_trace's fit invariant). Shrinking traces keep
  // their original semispace — less occupancy just means fewer implicit
  // collections, which is always replayable.
  if (factor > 1.0) {
    const double grown =
        static_cast<double>(trace.header.semispace_words) * factor;
    out.header.semispace_words = static_cast<Word>(grown + 0.5);
  }
  if (out.header.semispace_words < max_object) {
    out.header.semispace_words = max_object;
  }
  return out;
}

namespace {

/// One hwgc-trace-v1 header line: the header plus the stream's declared
/// event count and digest.
struct HeaderRecord : TraceHeader {
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
};

/// One hwgc-trace-v1 op line.
struct OpRecord : TraceOp {
  std::uint64_t seq = 0;
};

/// Refuses a value a record cannot hold; JsonRecordTable::read reports
/// the message.
[[noreturn]] void reject(const std::string& msg) {
  throw std::invalid_argument(msg);
}

std::uint32_t checked_version(std::uint64_t v) {
  if (v != 1) {
    reject("unsupported hwgc-trace version " + std::to_string(v) +
           " (this build reads version 1)");
  }
  return 1;
}

/// Adds knob `m` as the number field `name`, read back through
/// CoprocessorKnobs::check.
template <class T>
void knob(JsonRecordTable<HeaderRecord>& t, const std::string& name,
          T CoprocessorKnobs::*m) {
  t.u64(
      name, [m](const HeaderRecord& r) { return std::uint64_t{r.*m}; },
      [name, m](HeaderRecord& r, std::uint64_t v) {
        r.*m = CoprocessorKnobs::check<T>(name, v);
      });
}

// The hwgc-trace-v1 header record, in emission order. The binary header
// stores the same fields (see kBinaryWidths).
const JsonRecordTable<HeaderRecord>& header_table() {
  using R = HeaderRecord;
  static const JsonRecordTable<R> table = [] {
    JsonRecordTable<R> t;
    t.constant("schema", std::string(kTraceSchema))
        .constant("record", "header")
        .str("name", [](const R& r) { return sanitize_name(r.name); },
             [](R& r, std::string v) {
               if (v.empty()) reject("header name is empty");
               r.name = std::move(v);
             })
        .u64("version", [](const R& r) { return r.version; },
             [](R& r, std::uint64_t v) { r.version = checked_version(v); })
        .u64("semispace_words", [](const R& r) { return r.semispace_words; },
             [](R& r, std::uint64_t v) {
               // Read as u64, stored as a Word: refuse rather than truncate
               // to a tiny semispace that fails later with a confusing
               // object-does-not-fit error.
               if (v == 0 || v > std::numeric_limits<Word>::max()) {
                 reject("semispace_words " + std::to_string(v) +
                        " out of range (1.." +
                        std::to_string(std::numeric_limits<Word>::max()) +
                        ")");
               }
               r.semispace_words = static_cast<Word>(v);
             });
    knob(t, "cores", &CoprocessorKnobs::cores);
    knob(t, "fifo", &CoprocessorKnobs::header_fifo_capacity);
    t.str("schedule",
          [](const R& r) { return std::string(to_string(r.schedule)); },
          [](R& r, std::string v) {
            const auto policy = parse_schedule_policy(v);
            if (!policy) reject("unknown schedule policy '" + v + "'");
            r.schedule = *policy;
          });
    knob(t, "schedule_seed", &CoprocessorKnobs::schedule_seed);
    knob(t, "jitter", &CoprocessorKnobs::latency_jitter);
    knob(t, "subobject", &CoprocessorKnobs::subobject_copy);
    knob(t, "earlyread", &CoprocessorKnobs::markbit_early_read);
    t.u64("events", &R::events).u64("digest", &R::digest);
    return t;
  }();
  return table;
}

// The hwgc-trace-v1 op record, in emission order.
const JsonRecordTable<OpRecord>& op_table() {
  using R = OpRecord;
  static const JsonRecordTable<R> table = [] {
    JsonRecordTable<R> t;
    t.constant("schema", std::string(kTraceSchema))
        .constant("record", "op")
        .u64("seq", [](const R& r) { return r.seq; })
        .str("k", [](const R& r) { return std::string(to_string(r.kind)); },
             [](R& r, std::string v) {
               if (!parse_kind(v, r.kind)) {
                 reject("unknown event kind '" + v + "'");
               }
             })
        .u64("a", &R::a)
        .u64("b", &R::b)
        .u64("c", &R::c);
    return t;
  }();
  return table;
}

HeaderRecord header_record(const Trace& trace) {
  return {trace.header, trace.ops.size(), trace.digest()};
}

/// The header check both loaders and the validator apply: the table pass,
/// then the knob record's check().
bool read_header(const JsonKv& kv, HeaderRecord& row, std::string* error) {
  if (!header_table().read(kv, row, error)) return false;
  try {
    row.check();
  } catch (const std::invalid_argument& e) {
    return set_error(error, e.what());
  }
  return true;
}

enum class RecordKind { kHeader, kOp };

/// Reads one parsed line into `header` or `op`. The record-kind constant,
/// field 1 of both tables, picks the table.
std::optional<RecordKind> read_record(const JsonKv& kv, HeaderRecord& header,
                                      OpRecord& op, std::string* error) {
  const JsonField& kind = header_table().fields()[1];
  const auto record = req_str(kv, kind.name, error);
  if (!record) return std::nullopt;
  if (*record == kind.constant) {
    if (read_header(kv, header, error)) return RecordKind::kHeader;
  } else if (*record == op_table().fields()[1].constant) {
    if (op_table().read(kv, op, error)) return RecordKind::kOp;
  } else {
    set_error(error, "unknown \"" + kind.name + "\" type \"" + *record + "\"");
  }
  return std::nullopt;
}

/// Shared tail of both loaders: event count, digest, structure — in that
/// order, so a truncated stream is named as truncation rather than as the
/// digest mismatch it would also produce.
void finish_load(Trace& trace, std::uint64_t declared_events,
                 std::uint64_t declared_digest) {
  if (trace.ops.size() < declared_events) {
    fail("truncated stream (header declares " +
         std::to_string(declared_events) + " events, found " +
         std::to_string(trace.ops.size()) + ")");
  }
  if (trace.ops.size() > declared_events) {
    fail("trailing events beyond the declared count (header declares " +
         std::to_string(declared_events) + " events, found " +
         std::to_string(trace.ops.size()) + ")");
  }
  const std::uint64_t computed = trace.digest();
  if (computed != declared_digest) {
    fail("stream digest mismatch (header declares " + hex(declared_digest) +
         ", stream is " + hex(computed) + ")");
  }
  const std::vector<std::string> findings = check_trace(trace);
  if (!findings.empty()) fail(findings.front());
}

}  // namespace

const std::vector<JsonField>& trace_header_fields() {
  return header_table().fields();
}

const std::vector<JsonField>& trace_op_fields() { return op_table().fields(); }

std::string trace_to_jsonl(const Trace& trace) {
  std::string out;
  header_table().render(header_record(trace), out);
  for (std::size_t seq = 0; seq < trace.ops.size(); ++seq) {
    op_table().render({trace.ops[seq], seq}, out);
  }
  return out;
}

Trace trace_from_jsonl(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  Trace trace;
  HeaderRecord header;
  OpRecord op;
  bool have_header = false;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const std::string where = " at line " + std::to_string(lineno);
    JsonKv kv;
    std::string err;
    if (!parse_flat_json_object(line, kv, &err)) {
      fail("malformed JSONL line " + std::to_string(lineno) + " (" + err +
           ")");
    }
    const auto kind = read_record(kv, header, op, &err);
    if (!kind) fail(err + where);
    if (*kind == RecordKind::kHeader) {
      if (have_header) fail("duplicate header" + where);
      have_header = true;
      continue;
    }
    if (!have_header) fail("op record before the header" + where);
    trace.ops.push_back(op);
  }
  if (!have_header) fail("truncated stream (no header line)");
  trace.header = header;
  finish_load(trace, header.events, header.digest);
  return trace;
}

namespace {

/// Appends `v` as `width` little-endian bytes.
void put_le(std::string& out, std::uint64_t v, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    out += static_cast<char>(v & 0xffu);
    v >>= 8;
  }
}

struct ByteReader {
  const std::string& bytes;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    if (pos + n > bytes.size()) {
      fail("truncated stream (binary record cut short at byte " +
           std::to_string(bytes.size()) + ")");
    }
  }
  std::uint64_t le(std::size_t width) {
    need(width);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(bytes[pos++]))
           << (8 * i);
    }
    return v;
  }
  std::string str(std::size_t n) {
    need(n);
    std::string s = bytes.substr(pos, n);
    pos += n;
    return s;
  }
};

/// The binary header stores the header table's fields — all but the two
/// constants — little-endian at these widths, in table order except that
/// the version (field 1) comes first, so a reader refuses another layout
/// before parsing it. Width 0 is the name, prefixed by its u32 length; the
/// other string field, the schedule, is stored as its enum byte.
constexpr std::size_t kBinaryWidths[] = {0, 4, 8, 4, 4, 1, 8, 8, 1, 1, 8, 8};
constexpr std::size_t kVersionField = 1;
constexpr std::size_t kConstantFields = 2;

std::uint64_t number(const std::string& text) {
  std::uint64_t v = 0;
  std::from_chars(text.data(), text.data() + text.size(), v);
  return v;
}

}  // namespace

std::string trace_to_binary(const Trace& trace) {
  std::string line;
  header_table().render(header_record(trace), line);
  JsonKv kv;
  parse_flat_json_object(line, kv, nullptr);
  const auto value = [&kv](std::size_t field) -> const std::string& {
    return kv[kConstantFields + field].second;
  };
  std::string out(kMagic, sizeof(kMagic));
  put_le(out, number(value(kVersionField)), kBinaryWidths[kVersionField]);
  for (std::size_t f = 0; f < std::size(kBinaryWidths); ++f) {
    const std::string& v = value(f);
    if (f == kVersionField) continue;
    if (kBinaryWidths[f] == 0) {
      put_le(out, v.size() - 2, 4);
      out.append(v, 1, v.size() - 2);
    } else if (v.front() == '"') {
      const auto policy = parse_schedule_policy(v.substr(1, v.size() - 2));
      put_le(out, static_cast<std::uint8_t>(policy.value()), kBinaryWidths[f]);
    } else {
      put_le(out, number(v), kBinaryWidths[f]);
    }
  }
  for (const TraceOp& op : trace.ops) {
    out += static_cast<char>(op.kind);
    put_le(out, op.a, 8);
    put_le(out, op.b, 8);
    put_le(out, op.c, 8);
  }
  return out;
}

Trace trace_from_binary(const std::string& bytes) {
  ByteReader r{bytes};
  if (r.str(sizeof(kMagic)) != std::string(kMagic, sizeof(kMagic))) {
    fail("not an hwgc trace (bad magic)");
  }
  const std::uint64_t version = r.le(kBinaryWidths[kVersionField]);
  try {
    checked_version(version);  // before trusting the layout that follows
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
  // Rebuild the header line the JSONL loader would see, then read it
  // through the same table and checks.
  const std::vector<JsonField>& fields = header_table().fields();
  JsonKv kv;
  for (std::size_t f = 0; f < kConstantFields; ++f) {
    kv.emplace_back(fields[f].name, "\"" + fields[f].constant + "\"");
  }
  for (std::size_t f = 0; f < std::size(kBinaryWidths); ++f) {
    const JsonField& field = fields[kConstantFields + f];
    std::string v;
    if (f == kVersionField) {
      v = std::to_string(version);
    } else if (kBinaryWidths[f] == 0) {
      v = "\"" + r.str(r.le(4)) + "\"";
    } else {
      const std::uint64_t raw = r.le(kBinaryWidths[f]);
      v = std::to_string(raw);
      if (field.type == JsonType::kString) {
        // The schedule byte: its policy name, or the number itself for the
        // table to refuse.
        const bool known = raw <= static_cast<std::uint64_t>(
                                      SchedulePolicyKind::kAdversarial);
        if (known) v = to_string(static_cast<SchedulePolicyKind>(raw));
        v = "\"" + v + "\"";
      }
    }
    kv.emplace_back(field.name, std::move(v));
  }
  HeaderRecord header;
  std::string err;
  if (!read_header(kv, header, &err)) fail(err + " in the binary header");

  Trace trace;
  trace.header = header;
  for (std::uint64_t seq = 0; seq < header.events; ++seq) {
    TraceOp op;
    const std::uint64_t kind = r.le(1);
    if (kind >= static_cast<std::uint8_t>(TraceOp::Kind::kCount)) {
      fail("unknown event kind " + std::to_string(kind) + " at seq " +
           std::to_string(seq));
    }
    op.kind = static_cast<TraceOp::Kind>(kind);
    op.a = r.le(8);
    op.b = r.le(8);
    op.c = r.le(8);
    trace.ops.push_back(op);
  }
  if (r.pos != bytes.size()) {
    fail("trailing events beyond the declared count (header declares " +
         std::to_string(header.events) + " events, stream has " +
         std::to_string(bytes.size() - r.pos) + " extra bytes)");
  }
  finish_load(trace, header.events, header.digest);
  return trace;
}

void save_trace(const std::string& path, const Trace& trace, bool binary) {
  std::ofstream out(path, std::ios::binary);
  if (!out) fail("cannot open '" + path + "' for writing");
  const std::string body =
      binary ? trace_to_binary(trace) : trace_to_jsonl(trace);
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  if (!out) fail("short write to '" + path + "'");
}

Trace load_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string body = buf.str();
  if (body.size() >= sizeof(kMagic) &&
      body.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) == 0) {
    return trace_from_binary(body);
  }
  return trace_from_jsonl(body);
}

bool validate_trace_jsonl_line(const std::string& line, std::string* error) {
  JsonKv kv;
  if (!parse_flat_json_object(line, kv, error)) return false;
  HeaderRecord header;
  OpRecord op;
  return read_record(kv, header, op, error).has_value();
}

}  // namespace hwgc
