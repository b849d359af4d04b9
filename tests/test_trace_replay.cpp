// Trace capture & replay (src/trace/, DESIGN.md §16).
//
// The contract under test, in four layers:
//   1. Differential replay matrix: every committed corpus trace replays
//      under every collector in the inventory x 2 schedule seeds with the conformance
//      post-structure oracle checked on every cycle, and every collector
//      reproduces the sequential Cheney reference's live-graph digest.
//   2. Round-trip identity: record -> replay -> re-record is byte-identical
//      (JSONL and binary), and the replay's per-cycle GcCycleStats and
//      SignalTrace streams are bit-identical to the recording run's.
//   3. Loader robustness: truncation, digest mismatch, unknown event kind,
//      out-of-range ids, version skew and hostile header values each fail
//      with a message-specific TraceError before any Runtime is
//      constructed, and the schema validator refuses the same headers.
//   4. The service bridge: trace-per-session heapd runs are byte-identical
//      between the serial conductor and the shard pool, and the config
//      validation rejects the resilience/trace combination.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "heap/object_model.hpp"
#include "service/heap_service.hpp"
#include "service/service_metrics.hpp"
#include "sim/trace.hpp"
#include "trace/corpus.hpp"
#include "trace/recorder.hpp"
#include "trace/replayer.hpp"

namespace hwgc {
namespace {

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  for (const auto& e : std::filesystem::directory_iterator(HWGC_TRACE_DIR)) {
    if (e.is_regular_file()) files.push_back(e.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

bool counters_equal(const CoreCounters& a, const CoreCounters& b) {
  return a.stalls == b.stalls && a.busy_cycles == b.busy_cycles &&
         a.idle_cycles == b.idle_cycles &&
         a.objects_scanned == b.objects_scanned &&
         a.objects_evacuated == b.objects_evacuated &&
         a.pointers_processed == b.pointers_processed &&
         a.fifo_hits == b.fifo_hits && a.fifo_misses == b.fifo_misses;
}

bool stats_equal(const GcCycleStats& a, const GcCycleStats& b) {
  if (a.total_cycles != b.total_cycles ||
      a.worklist_empty_cycles != b.worklist_empty_cycles ||
      a.objects_copied != b.objects_copied ||
      a.words_copied != b.words_copied ||
      a.pointers_forwarded != b.pointers_forwarded ||
      a.fifo_overflows != b.fifo_overflows ||
      a.mem_requests != b.mem_requests || a.fifo_hits != b.fifo_hits ||
      a.fifo_misses != b.fifo_misses || a.drain_cycles != b.drain_cycles ||
      a.restart_stores_drained != b.restart_stores_drained ||
      a.faults_fired != b.faults_fired ||
      a.lock_order_violations != b.lock_order_violations ||
      a.per_core.size() != b.per_core.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.per_core.size(); ++i) {
    if (!counters_equal(a.per_core[i], b.per_core[i])) return false;
  }
  return true;
}

/// Records seeded churn while keeping the recording runtime's
/// observable streams (GC stats, signal samples) for bit-identity checks.
struct RecordedSession {
  Trace trace;
  std::vector<GcCycleStats> gc_history;
  SignalTrace signals;
};

RecordedSession record_churn_session(std::uint64_t seed) {
  RecordedSession out;
  TraceHeader header;
  header.name = "churn";
  header.semispace_words = 2048;
  header.cores = 4;

  Runtime rt(header.semispace_words, header.sim_config());
  rt.set_cycle_observer(&out.signals);
  TraceRecorder recorder(header);
  recorder.attach(rt);

  TraceCursor churn(ChurnSource({.seed = seed, .target_live = 48}));
  for (int p = 0; p < 4; ++p) {
    churn.apply(rt, 150);
    churn.apply(rt, 4, /*read=*/true);
    rt.collect();
  }

  recorder.detach(rt);
  out.trace = recorder.take();
  out.gc_history = rt.gc_history();
  return out;
}

// --- 1. Differential replay matrix --------------------------------------

TEST(TraceReplayMatrix, CorpusAllCollectorsTwoSeedsMatchSequential) {
  const std::vector<std::string> files = corpus_files();
  ASSERT_GE(files.size(), 13u) << "committed corpus missing from "
                               << HWGC_TRACE_DIR;
  constexpr std::uint64_t kSeeds[] = {1, 0x5eed};
  for (const std::string& file : files) {
    const Trace trace = load_trace(file);

    // Every run, reference included, gets the same differential headroom;
    // boundary exactness is covered by the round-trip tests at the
    // recorded size.
    const Word matrix_semispace = differential_semispace_words(trace.header);

    // Sequential Cheney is the reference every collector must agree with.
    ReplayConfig ref_cfg;
    ref_cfg.collector = CollectorId::kSequential;
    ref_cfg.semispace_words = matrix_semispace;
    const ReplayResult ref = replay_trace(trace, ref_cfg);
    ASSERT_TRUE(ref.ok) << file << " [sequential]: " << ref.summary()
                        << (ref.findings.empty() ? "" : "\n  " +
                            ref.findings.front());
    EXPECT_GT(ref.collections, 0u) << file << ": trace never collected";

    for (CollectorId id : all_collectors()) {
      for (std::uint64_t seed : kSeeds) {
        ReplayConfig cfg;
        cfg.collector = id;
        cfg.schedule_seed = seed;
        cfg.semispace_words = matrix_semispace;
        const ReplayResult r = replay_trace(trace, cfg);
        const std::string label = file + " [" + std::string(to_string(id)) +
                                  " seed=" + std::to_string(seed) + "]";
        EXPECT_TRUE(r.ok) << label << ": " << r.summary()
                          << (r.findings.empty() ? "" : "\n  " +
                              r.findings.front());
        EXPECT_EQ(r.read_mismatches, 0u) << label;
        EXPECT_EQ(r.ops_applied, trace.ops.size()) << label;
        EXPECT_EQ(r.live_ids, ref.live_ids) << label;
        EXPECT_EQ(r.live_graph_digest, ref.live_graph_digest)
            << label << " diverges from the sequential reference";
      }
    }
  }
}

TEST(TraceReplayMatrix, DifferentialHeadroomDoublesAndSaturates) {
  TraceHeader h;
  h.semispace_words = 1200;
  EXPECT_EQ(differential_semispace_words(h), 2400u);
  h.semispace_words = std::numeric_limits<Word>::max() / 2 + 1;
  EXPECT_EQ(differential_semispace_words(h), std::numeric_limits<Word>::max());
}

// --- 2. Round-trip identity ----------------------------------------------

TEST(TraceRoundTrip, RecordReplayRerecordIsByteIdentical) {
  const RecordedSession session = record_churn_session(123);

  ReplayConfig cfg;
  cfg.rerecord = true;
  const ReplayResult r = replay_trace(session.trace, cfg);
  ASSERT_TRUE(r.ok) << r.summary();

  // Structural equality, then the stronger byte-for-byte claim in both
  // serializations.
  EXPECT_TRUE(r.rerecorded == session.trace);
  EXPECT_EQ(trace_to_jsonl(r.rerecorded), trace_to_jsonl(session.trace));
  EXPECT_EQ(trace_to_binary(r.rerecorded), trace_to_binary(session.trace));
}

TEST(TraceRoundTrip, GcCycleStatsBitIdenticalToRecordingRun) {
  const RecordedSession session = record_churn_session(77);

  const ReplayResult r = replay_trace(session.trace);
  ASSERT_TRUE(r.ok) << r.summary();
  ASSERT_EQ(r.gc_history.size(), session.gc_history.size())
      << "replay ran a different number of collection cycles";
  for (std::size_t i = 0; i < r.gc_history.size(); ++i) {
    EXPECT_TRUE(stats_equal(r.gc_history[i], session.gc_history[i]))
        << "cycle " << i << " stats diverge from the recording run";
  }
}

TEST(TraceRoundTrip, SignalTraceBitIdenticalToRecordingRun) {
  const RecordedSession session = record_churn_session(9);
  ASSERT_FALSE(session.signals.events().empty());

  SignalTrace replay_signals;
  ReplayConfig cfg;
  cfg.observer = &replay_signals;
  const ReplayResult r = replay_trace(session.trace, cfg);
  ASSERT_TRUE(r.ok) << r.summary();

  const auto& a = session.signals.events();
  const auto& b = replay_signals.events();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cycle, b[i].cycle) << "sample " << i;
    EXPECT_EQ(a[i].signal, b[i].signal) << "sample " << i;
    EXPECT_EQ(a[i].value, b[i].value) << "sample " << i;
  }
  EXPECT_EQ(session.signals.signal_names(), replay_signals.signal_names());
}

TEST(TraceRoundTrip, ImplicitExhaustionCyclesReplayAtSameBoundaries) {
  // The lisp corpus trace runs explicit collects between statements AND
  // implicit exhaustion cycles mid-evaluation; the replay must re-trigger
  // the implicit ones at the same allocation boundaries.
  const Trace trace = trace_from_lisp();
  const ReplayResult a = replay_trace(trace);
  const ReplayResult b = replay_trace(trace);
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_GT(a.collections, a.explicit_collects)
      << "expected implicit exhaustion cycles in the lisp trace";
  EXPECT_EQ(a.collections, b.collections);
  EXPECT_EQ(a.live_graph_digest, b.live_graph_digest);
}

// --- 3. Loader robustness ------------------------------------------------

/// A tiny, valid trace to corrupt: alloc/data/link/read/collect/release.
Trace tiny_trace() { return trace_from_benchmark(BenchmarkId::kJlisp); }

void expect_load_failure(const std::string& text,
                         const std::string& must_contain) {
  try {
    trace_from_jsonl(text);
    FAIL() << "expected TraceError containing \"" << must_contain << "\"";
  } catch (const TraceError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("hwgc-trace-v1: ", 0), 0u)
        << "error lacks the schema prefix: " << what;
    EXPECT_NE(what.find(must_contain), std::string::npos)
        << "error \"" << what << "\" does not mention \"" << must_contain
        << "\"";
  }
}

TEST(TraceLoader, TruncatedStreamFails) {
  std::string text = trace_to_jsonl(tiny_trace());
  // Drop the final op line (keep the trailing newline shape intact).
  text.pop_back();  // '\n'
  text.erase(text.rfind('\n') + 1);
  expect_load_failure(text, "truncated stream");
}

TEST(TraceLoader, MissingHeaderFails) {
  expect_load_failure("", "truncated stream (no header line)");
}

TEST(TraceLoader, DigestMismatchFails) {
  Trace t = tiny_trace();
  ASSERT_FALSE(t.ops.empty());
  t.ops.back().c ^= 1;  // corrupt one operand; header keeps the old digest
  std::string text = trace_to_jsonl(t);
  const std::string honest = std::to_string(t.digest());
  const std::string recorded = std::to_string(tiny_trace().digest());
  const auto pos = text.find("\"digest\":" + honest);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos + 9, honest.size(), recorded);
  expect_load_failure(text, "stream digest mismatch");
}

TEST(TraceLoader, UnknownEventKindFails) {
  std::string text = trace_to_jsonl(tiny_trace());
  const auto pos = text.find("\"k\":\"alloc\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 11, "\"k\":\"munge\"");
  expect_load_failure(text, "unknown event kind 'munge'");
}

TEST(TraceLoader, OutOfRangeObjectIdFails) {
  // Structural check_trace gate: a link to an id that was never allocated.
  Trace t = tiny_trace();
  for (TraceOp& op : t.ops) {
    if (op.kind == TraceOp::Kind::kLink && op.c != kNoTraceId) {
      op.c = 1u << 30;
      break;
    }
  }
  expect_load_failure(trace_to_jsonl(t), "out-of-range object id");
}

TEST(TraceLoader, OversizedShapeDoesNotCorruptValidation) {
  // Regression: an alloc whose pi exceeds the header encoding used to keep
  // the truncated pi while sizing the children mirror to zero, so a later
  // link/load through a nominally in-range field indexed out of bounds.
  Trace t;
  t.header.name = "badshape";
  TraceOp alloc;
  alloc.kind = TraceOp::Kind::kAlloc;
  alloc.a = 0;
  alloc.b = static_cast<std::uint64_t>(kMaxPi) + 1;
  alloc.c = 0;
  t.ops.push_back(alloc);
  TraceOp link;
  link.kind = TraceOp::Kind::kLink;
  link.a = 0;
  link.b = 0;
  link.c = kNoTraceId;
  t.ops.push_back(link);
  TraceOp load;
  load.kind = TraceOp::Kind::kLoad;
  load.a = 0;
  load.b = 0;
  load.c = 0;
  t.ops.push_back(load);
  expect_load_failure(trace_to_jsonl(t), "exceeds the header encoding");
}

TEST(TraceLoader, SemispaceWordsBeyondWordRangeFails) {
  std::string text = trace_to_jsonl(tiny_trace());
  const std::string field = "\"semispace_words\":";
  const auto pos = text.find(field);
  ASSERT_NE(pos, std::string::npos);
  const auto end = text.find(',', pos);
  text.replace(pos + field.size(), end - pos - field.size(), "4294967296");
  expect_load_failure(text, "semispace_words 4294967296 out of range");
}

TEST(TraceLoader, BinarySemispaceWordsBeyondWordRangeFails) {
  const Trace t = tiny_trace();
  std::string bin = trace_to_binary(t);
  // magic(8) + version(4) + name_len(4) + name, then semispace as u64 LE;
  // setting the fifth byte adds 2^32 to the declared semispace.
  const std::size_t off = 16 + t.header.name.size() + 4;
  ASSERT_LT(off, bin.size());
  bin[off] = 1;
  try {
    trace_from_binary(bin);
    FAIL() << "expected TraceError";
  } catch (const TraceError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("semispace_words"), std::string::npos) << what;
    EXPECT_NE(what.find("out of range"), std::string::npos) << what;
  }
}

TEST(TraceLoader, DataValueBeyondWordRangeFails) {
  Trace t = tiny_trace();
  bool patched = false;
  for (TraceOp& op : t.ops) {
    if (op.kind == TraceOp::Kind::kData) {
      op.c = std::uint64_t{1} << 32;  // would truncate to 0
      patched = true;
      break;
    }
  }
  ASSERT_TRUE(patched);
  expect_load_failure(trace_to_jsonl(t), "data value 4294967296");
}

TEST(TraceCursor, OperandBeyondWordRangeFailsInsteadOfTruncating) {
  // A trace built in memory never passes the loaders' check_trace, so the
  // cursor itself must refuse an operand a Word cannot hold.
  Trace t;
  t.header.semispace_words = 64;
  t.ops.push_back(TraceOp{TraceOp::Kind::kAlloc, 0, 0, 2});
  t.ops.push_back(TraceOp{TraceOp::Kind::kData, 0, 1, std::uint64_t{1} << 32});
  Runtime rt(t.header.semispace_words, t.header.sim_config());
  TraceCursor cursor(&t, /*wrap=*/false);
  try {
    cursor.apply(rt, t.ops.size());
    FAIL() << "expected TraceError";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find("data operand 4294967296"),
              std::string::npos)
        << e.what();
  }
}

TEST(TraceLoader, VersionSkewFails) {
  std::string text = trace_to_jsonl(tiny_trace());
  const auto pos = text.find("\"version\":1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 11, "\"version\":2");
  expect_load_failure(text, "unsupported hwgc-trace version 2");
}

TEST(TraceLoader, BinaryBadMagicFails) {
  std::string bin = trace_to_binary(tiny_trace());
  bin[0] = static_cast<char>(~bin[0]);
  try {
    trace_from_binary(bin);
    FAIL() << "expected TraceError";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos);
  }
}

// Hostile header values: each row edits one field of the committed churn
// trace's header. The JSONL loader and the schema validator read the same
// record table, so both must refuse the line, and the loader's TraceError
// must name the field. Rows whose value fits the binary header's field
// width are also patched into the binary serialization.
struct BadHeaderRow {
  std::string field;
  std::string value;   ///< JSONL text of the value
  int binary_offset;   ///< byte offset past the name; -1: not expressible
  std::uint64_t binary_value;
};

// Binary header layout after magic, version, name length and name.
constexpr int kSemispaceAt = 0, kCoresAt = 8, kFifoAt = 12, kScheduleAt = 16,
              kSubobjectAt = 33, kEarlyreadAt = 34;

const BadHeaderRow kBadHeaders[] = {
    {"cores", "4294967297", -1, 0},  // used to load as cores=1
    {"fifo", "4294967296", -1, 0},   // used to load as fifo=0
    {"cores", "0", kCoresAt, 0},
    {"subobject", "7", kSubobjectAt, 7},
    {"earlyread", "2", kEarlyreadAt, 2},
    {"cores", "400000000", kCoresAt, 400000000},  // used to die of bad_alloc
    {"cores", "65", kCoresAt, 65},
    {"jitter", "18446744073709551616", -1, 0},
    {"schedule", "\"bogus\"", kScheduleAt, 9},
    {"semispace_words", "0", kSemispaceAt, 0},
    {"name", "\"\"", -1, 0},
    {"version", "2", -1, 0},
};

std::string replace_field(std::string line, const std::string& field,
                          const std::string& value) {
  const std::string key = "\"" + field + "\":";
  const auto pos = line.find(key);
  EXPECT_NE(pos, std::string::npos) << field;
  const auto start = pos + key.size();
  const auto end = line.find_first_of(",}", start);
  return line.replace(start, end - start, value);
}

template <class Load>
void expect_trace_error_naming(Load load, const std::string& field) {
  try {
    load();
    ADD_FAILURE() << "expected a TraceError naming " << field;
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(TraceLoader, HostileHeaderValuesFailInBothLoadersAndTheValidator) {
  const Trace churn = load_trace(std::string(HWGC_TRACE_DIR) + "/churn.jsonl");
  const std::string jsonl = trace_to_jsonl(churn);
  const std::string header = jsonl.substr(0, jsonl.find('\n'));
  const std::string ops = jsonl.substr(header.size());
  std::string err;
  ASSERT_TRUE(validate_trace_jsonl_line(header, &err)) << err;
  const std::string binary = trace_to_binary(churn);
  const std::size_t past_name = 16 + churn.header.name.size();

  for (const BadHeaderRow& row : kBadHeaders) {
    SCOPED_TRACE(row.field + "=" + row.value);
    const std::string bad = replace_field(header, row.field, row.value);
    EXPECT_FALSE(validate_trace_jsonl_line(bad, &err));
    EXPECT_NE(err.find(row.field), std::string::npos) << err;
    expect_trace_error_naming([&] { trace_from_jsonl(bad + ops); },
                              row.field);
    if (row.binary_offset < 0) continue;
    std::string bin = binary;
    std::uint64_t v = row.binary_value;
    const std::size_t width = row.field == "semispace_words" ? 8
                              : row.field == "cores"         ? 4
                                                             : 1;
    for (std::size_t i = 0; i < width; ++i, v >>= 8) {
      bin[past_name + static_cast<std::size_t>(row.binary_offset) + i] =
          static_cast<char>(v & 0xffu);
    }
    expect_trace_error_naming([&] { trace_from_binary(bin); }, row.field);
  }
}

TEST(TraceLoader, JsonlBinaryRoundTripAgree) {
  const Trace t = tiny_trace();
  EXPECT_TRUE(trace_from_jsonl(trace_to_jsonl(t)) == t);
  EXPECT_TRUE(trace_from_binary(trace_to_binary(t)) == t);
}

// --- Fuzzer-to-trace bridge ----------------------------------------------

TEST(TraceFuzzBridge, EmittedTraceReproducesTheOracleVerdict) {
  const FuzzCase fc = case_from_seed(0xBEEF);
  const ConformanceVerdict verdict = run_fuzz_case(fc);

  const Trace trace = trace_from_fuzz_case(fc);
  ReplayConfig cfg;
  cfg.collector = CollectorId::kCoprocessor;
  const ReplayResult r = replay_trace(trace, cfg);

  // The committed fuzz seeds pass the differential oracle; their traces
  // must replay clean under the same hardware knobs (carried in the
  // header), and bit-identically across repeated replays.
  EXPECT_EQ(verdict.ok, r.ok)
      << "replay verdict diverges from the fuzz oracle's";
  const ReplayResult again = replay_trace(trace, cfg);
  EXPECT_EQ(r.live_graph_digest, again.live_graph_digest);
  ASSERT_EQ(r.gc_history.size(), again.gc_history.size());
  for (std::size_t i = 0; i < r.gc_history.size(); ++i) {
    EXPECT_TRUE(stats_equal(r.gc_history[i], again.gc_history[i]))
        << "cycle " << i;
  }
}

// --- Read-event seam (churn reads through the facade) ---------------------

TEST(TraceReadSeam, ProbeEventsAreRecordedWithContentDigests) {
  const RecordedSession session = record_churn_session(5);
  std::size_t reads = 0;
  std::size_t with_content = 0;
  for (const TraceOp& op : session.trace.ops) {
    if (op.kind == TraceOp::Kind::kRead) {
      ++reads;
      if (op.b > 0) ++with_content;  // delta=0 objects probe zero words
      EXPECT_NE(op.c, 0u) << "probe digest missing";
    }
  }
  EXPECT_GE(reads, 8u) << "churn reads not visible to the recorder seam";
  EXPECT_GE(with_content, 1u) << "no probe ever read data words";
}

TEST(TraceReadSeam, CorruptedReadDigestIsCaughtOnReplay) {
  RecordedSession session = record_churn_session(5);
  for (TraceOp& op : session.trace.ops) {
    if (op.kind == TraceOp::Kind::kRead) {
      op.c ^= 0xdead;
      break;
    }
  }
  const ReplayResult r = replay_trace(session.trace);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.read_mismatches, 1u);
}

// --- Size-scaling transform (tracectl transform --scale-sizes) -----------

TEST(TraceTransform, ScaleUpRoundTripsAndReplaysClean) {
  const RecordedSession session = record_churn_session(5);
  const Trace scaled = scale_trace_sizes(session.trace, 2.0);

  // Structure survives the rescale and the digest re-derivation.
  EXPECT_TRUE(check_trace(scaled).empty());
  EXPECT_EQ(scaled.objects(), session.trace.objects());
  EXPECT_EQ(scaled.header.semispace_words,
            session.trace.header.semispace_words * 2);
  EXPECT_NE(scaled.digest(), session.trace.digest());

  // Both serializations round-trip through the validating loaders.
  const std::string jsonl_path = ::testing::TempDir() + "scaled.jsonl";
  const std::string bin_path = ::testing::TempDir() + "scaled.bin";
  save_trace(jsonl_path, scaled);
  save_trace(bin_path, scaled, /*binary=*/true);
  EXPECT_TRUE(load_trace(jsonl_path) == scaled);
  EXPECT_TRUE(load_trace(bin_path) == scaled);
  std::remove(jsonl_path.c_str());
  std::remove(bin_path.c_str());

  // The re-derived read digests hold up under live replay.
  const ReplayResult r = replay_trace(scaled);
  EXPECT_TRUE(r.ok) << (r.findings.empty() ? "" : r.findings.front());
  EXPECT_EQ(r.read_mismatches, 0u)
      << "scale_trace_sizes must re-derive every kRead digest";
}

TEST(TraceTransform, ScaleOneIsTheIdentity) {
  const RecordedSession session = record_churn_session(9);
  const Trace scaled = scale_trace_sizes(session.trace, 1.0);
  EXPECT_TRUE(scaled == session.trace);
  EXPECT_EQ(scaled.digest(), session.trace.digest());
}

TEST(TraceTransform, ShrinkDropsOutOfRangeStoresAndRederivesDigests) {
  Trace t;
  t.header.name = "shrink";
  t.header.semispace_words = 256;
  t.ops = {
      {TraceOp::Kind::kAlloc, 0, 0, 8},
      {TraceOp::Kind::kData, 0, 6, 77},  // outside the shrunken data area
      {TraceOp::Kind::kData, 0, 1, 5},
      {TraceOp::Kind::kRead, 0, 8, 0xdead},  // digest re-derived below
      {TraceOp::Kind::kCollect, 0, 0, 0},
  };
  ASSERT_TRUE(check_trace(t).empty());

  const Trace scaled = scale_trace_sizes(t, 0.25);
  ASSERT_EQ(scaled.ops.size(), t.ops.size() - 1)
      << "the word-6 store must be dropped at delta 2";
  EXPECT_EQ(scaled.ops[0].c, 2u);  // delta 8 -> 2
  EXPECT_EQ(scaled.ops[2].kind, TraceOp::Kind::kRead);
  EXPECT_EQ(scaled.ops[2].b, 2u);
  EXPECT_TRUE(check_trace(scaled).empty());

  const ReplayResult r = replay_trace(scaled);
  EXPECT_TRUE(r.ok) << (r.findings.empty() ? "" : r.findings.front());
  EXPECT_EQ(r.read_mismatches, 0u);
}

TEST(TraceTransform, RejectsNonPositiveFactor) {
  const Trace t;
  EXPECT_THROW(scale_trace_sizes(t, 0.0), std::invalid_argument);
  EXPECT_THROW(scale_trace_sizes(t, -2.0), std::invalid_argument);
}

// --- Corpus regeneration identity ----------------------------------------

TEST(TraceCorpus, CommittedFilesMatchTheGeneratorsBitForBit) {
  const std::vector<Trace> fresh = build_corpus();
  std::map<std::string, const Trace*> by_name;
  for (const Trace& t : fresh) by_name[t.header.name] = &t;

  const std::vector<std::string> files = corpus_files();
  ASSERT_EQ(files.size(), fresh.size())
      << "committed corpus and build_corpus() disagree on size; rerun "
         "`tracectl corpus --dir traces`";
  for (const std::string& file : files) {
    const Trace committed = load_trace(file);
    auto it = by_name.find(committed.header.name);
    ASSERT_NE(it, by_name.end()) << file << " not produced by build_corpus()";
    EXPECT_TRUE(committed == *it->second)
        << file << " diverges from its generator; rerun "
        << "`tracectl corpus --dir traces`";
  }
}

// --- Service bridge: trace-per-session heapd -----------------------------

ServiceConfig trace_service_config(std::size_t host_threads) {
  ServiceConfig cfg;
  cfg.shards = 4;
  cfg.traffic.sessions = 16;
  cfg.traffic.seed = 11;
  auto traces = std::make_shared<std::vector<Trace>>();
  traces->push_back(trace_from_churn(7, 300));
  traces->push_back(trace_from_benchmark(BenchmarkId::kJlisp));
  cfg.traces = std::move(traces);
  cfg.host_threads = host_threads;
  return cfg;
}

TEST(TraceService, SerialAndShardPoolRunsAreByteIdentical) {
  HeapService serial(trace_service_config(1));
  serial.serve(3000);
  HeapService pooled(trace_service_config(4));
  pooled.serve(3000);

  EXPECT_EQ(service_report_jsonl(serial, "trace"),
            service_report_jsonl(pooled, "trace"));

  const SloStats a = serial.fleet_stats();
  const SloStats b = pooled.fleet_stats();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.collections, b.collections);
  EXPECT_GT(a.collections, 0u);
  EXPECT_EQ(a.oracle_failures, 0u);
  EXPECT_EQ(a.read_mismatches, 0u);
  EXPECT_EQ(b.read_mismatches, 0u);
  EXPECT_EQ(serial.validate_all_shards(), 0u);
  EXPECT_EQ(pooled.validate_all_shards(), 0u);
}

TEST(TraceService, EmptyTraceListIsRejected) {
  ServiceConfig cfg;
  cfg.traces = std::make_shared<std::vector<Trace>>();
  EXPECT_THROW(HeapService{cfg}, std::invalid_argument);
}

TEST(TraceService, TraceShardSizingBeyondWordRangeIsRejected) {
  // Regression: sizing the shard heap for (sessions-per-shard + 1) traces
  // used to multiply in 32-bit Word arithmetic, wrapping silently for
  // large recorded semispaces and undersizing the shard.
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.traffic.sessions = 16;
  auto traces = std::make_shared<std::vector<Trace>>();
  Trace big = trace_from_churn(7, 300);
  big.header.semispace_words = Word{1} << 30;  // 17 sessions' worth wraps
  traces->push_back(std::move(big));
  cfg.traces = std::move(traces);
  EXPECT_THROW(HeapService{cfg}, std::invalid_argument);
}

TEST(TraceService, SupervisedSessionsRestoreAndStayClean) {
  // Checkpoints carry the trace cursors, so a restore rewinds trace
  // sessions exactly as it rewinds churn: crashes quarantine and restore
  // stormed shards mid-trace, and every read, cycle and walk stays clean.
  auto supervised = [](std::size_t host_threads) {
    ServiceConfig cfg = trace_service_config(host_threads);
    cfg.resilience.supervise = true;
    cfg.resilience.checkpoint_interval = 2;
    cfg.storm.shard_fraction = 0.5;
    cfg.storm.crash_period = 200;
    return cfg;
  };
  HeapService serial(supervised(1));
  serial.serve(6000);
  HeapService pooled(supervised(4));
  pooled.serve(6000);

  EXPECT_EQ(service_report_jsonl(serial, "trace"),
            service_report_jsonl(pooled, "trace"));
  const SloStats s = serial.fleet_stats();
  EXPECT_GT(s.restores, 0u);
  EXPECT_GT(s.checkpoints, serial.shard_count())
      << "some restore must rewind to a checkpoint taken mid-session";
  EXPECT_GT(s.collections, 0u);
  EXPECT_EQ(s.read_mismatches, 0u);
  EXPECT_EQ(s.oracle_failures, 0u);
  EXPECT_EQ(s.checkpoint_digest_failures, 0u);
  EXPECT_EQ(serial.validate_all_shards(), 0u);
  EXPECT_EQ(pooled.validate_all_shards(), 0u);
}

}  // namespace
}  // namespace hwgc
