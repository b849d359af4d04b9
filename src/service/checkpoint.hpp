// Deterministic shard checkpoints with an integrity digest.
//
// A quarantined shard must come back — and it must come back to a state
// the service can PROVE is the one it saved. A ShardCheckpoint captures
// everything one shard's behavior depends on:
//
//   * the runtime image — allocated heap prefix, allocation frontier,
//     root-table namespace with its freelist, root high-water mark
//     (Runtime::Image);
//   * the shard's session cursors — each one's position, counters and
//     per-id mirror, and for churn the RNG stream position and reachable
//     ids (TraceCursor), so churn and trace sessions rewind alike;
//   * session affinity — the session count whose (session % shards)
//     pinning routed traffic here, so a restore provably resumes the same
//     session partition;
//   * an FNV-1a 64 digest over all of the above, computed at capture.
//
// Checkpoints are taken at VERIFIED-CLEAN cycle boundaries only: right
// after a collection whose post-structure oracle reported no findings (the
// conductor never checkpoints state it has not verified). Because heap and
// cursors are captured at the same instant on the shard's own lane, the
// pair is consistent by construction — no stop-the-fleet barrier needed.
//
// restore_into() recomputes the digest first and refuses a checkpoint that
// does not match bit-for-bit; a capture → restore → capture round trip
// yields an identical digest (tests/test_checkpoint.cpp), which is the
// "round-trips bit-identically" acceptance criterion.
#pragma once

#include <cstdint>
#include <map>

#include "runtime/runtime.hpp"
#include "trace/replayer.hpp"

namespace hwgc {

struct ShardCheckpoint {
  using Cursors = std::map<std::uint32_t, TraceCursor>;

  std::size_t shard = 0;           ///< owning shard index
  std::uint32_t sessions = 0;      ///< session-affinity record
  std::uint64_t collections_at = 0; ///< GC cycles completed at capture
  Runtime::Image runtime;
  Cursors cursors;
  std::uint64_t digest = 0;        ///< FNV-1a 64 over everything above

  static ShardCheckpoint capture(std::size_t shard, std::uint32_t sessions,
                                 const Runtime& rt, const Cursors& cursors,
                                 std::uint64_t collections);

  /// Recomputes the digest from the stored state.
  std::uint64_t compute_digest() const;

  bool verify() const { return digest == compute_digest(); }

  /// Digest-checked restore. Returns false — leaving rt and cursors
  /// untouched — when the stored digest does not match the recomputed one
  /// (a corrupted or tampered checkpoint must never be restored).
  bool restore_into(Runtime& rt, Cursors& cursors) const;
};

}  // namespace hwgc
