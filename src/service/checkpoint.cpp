#include "service/checkpoint.hpp"

#include "sim/fnv.hpp"

namespace hwgc {

namespace {

/// Every field is folded in full width with a length prefix per vector, so
/// reorderings and truncations change the digest.
template <typename T>
void mix_vec(Fnv1a& f, const std::vector<T>& v) noexcept {
  f.mix(v.size());
  for (const T& x : v) f.mix(static_cast<std::uint64_t>(x));
}

}  // namespace

ShardCheckpoint ShardCheckpoint::capture(std::size_t shard,
                                         std::uint32_t sessions,
                                         const Runtime& rt,
                                         const Cursors& cursors,
                                         std::uint64_t collections) {
  ShardCheckpoint cp;
  cp.shard = shard;
  cp.sessions = sessions;
  cp.collections_at = collections;
  cp.runtime = rt.save_image();
  cp.cursors = cursors;
  cp.digest = cp.compute_digest();
  return cp;
}

std::uint64_t ShardCheckpoint::compute_digest() const {
  Fnv1a f;
  f.mix(shard);
  f.mix(sessions);
  f.mix(collections_at);
  f.mix(runtime.base);
  f.mix(runtime.alloc);
  mix_vec(f, runtime.words);
  mix_vec(f, runtime.roots);
  mix_vec(f, runtime.free_slots);
  f.mix(runtime.root_high_water);
  f.mix(cursors.size());
  for (const auto& [session, cursor] : cursors) {
    f.mix(session);
    f.mix(cursor.state_digest());
  }
  return f.h;
}

bool ShardCheckpoint::restore_into(Runtime& rt, Cursors& cursors_out) const {
  if (!verify()) return false;
  rt.restore_image(runtime);
  cursors_out = cursors;
  return true;
}

}  // namespace hwgc
