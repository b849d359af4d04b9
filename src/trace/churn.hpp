// Seeded churn — the stand-in for the paper's Java applications *between*
// collection cycles.
//
// The FPGA system runs real programs that allocate, mutate and drop
// references; Core 1 stops them when the semispace fills and the
// coprocessor collects (Section V-E). ChurnSource reproduces that
// allocate/mutate/release churn as an unbounded hwgc-trace-v1 op stream:
// each step draws one action from a seeded RNG and emits its ops (alloc and
// its data words, link, unlink, data overwrite, release) into the
// TraceCursor it drives. The cursor applies every op to the Runtime and
// keeps the per-id mirror that is the one model of the expected graph; the
// source keeps only what its decisions need — the RNG, the ids still
// reachable in the mirror and how many of them are rooted.
//
// A read draws a rooted id and emits a kRead op carrying the digest of the
// mirror's data words, so every read checks the heap; the cursor's
// end-of-run walk (TraceCursor::validate) proves that arbitrarily many
// collection cycles preserved every reachable object, pointer and word.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "heap/object_model.hpp"
#include "sim/fnv.hpp"
#include "sim/rng.hpp"

namespace hwgc {

class Runtime;
class TraceCursor;

class ChurnSource {
 public:
  struct Config {
    std::uint64_t seed = 1;
    Word max_pi = 4;
    Word max_delta = 8;
    /// Rough number of rooted objects the churn tries to keep alive;
    /// beyond it, allocation steps are balanced by root releases (creating
    /// garbage for the next cycle).
    std::size_t target_live = 256;

    /// Words of the largest object this churn allocates: a semispace
    /// smaller than that can never fit it.
    Word max_object_words() const noexcept {
      return object_words(max_pi, max_delta);
    }
  };

  /// Validates the configuration eagerly: target_live == 0 (the churn
  /// could never hold an object, so every step would be a no-op or a
  /// release of nothing) and max_pi/max_delta beyond the header encoding
  /// (object_model.hpp kMaxPi/kMaxDelta) throw std::invalid_argument here
  /// instead of corrupting headers or failing on a late allocation.
  explicit ChurnSource(Config cfg);

  /// One mutation step: allocate, link, unlink, overwrite data or release
  /// a root — or nothing, when the drawn object does not qualify. Throws
  /// std::invalid_argument against a runtime whose semispace cannot hold
  /// even one max-shape object (such a config would otherwise die much
  /// later, whenever the rng first draws the unsatisfiable shape). When an
  /// allocation throws, the draws before it stay consumed and nothing else
  /// changes.
  void step(TraceCursor& cursor, Runtime& rt);

  /// One read: up to four draws for a rooted id, then a kRead op checked
  /// against the mirror's digest. Returns the words read (0 when nothing
  /// rooted was drawn).
  std::size_t read(TraceCursor& cursor, Runtime& rt);

  /// Folds the source state (RNG position, reachable ids, rooted count)
  /// into a checkpoint digest.
  void mix_state(Fnv1a& h) const noexcept;

 private:
  /// Drops ids no longer reachable in the mirror from a rooted id (they
  /// are garbage in the real heap too).
  void shadow_collect(const TraceCursor& cursor);

  std::uint64_t pick_live();

  Config cfg_;
  Rng rng_;
  std::vector<std::uint64_t> live_;  ///< reachable ids, ascending
  std::size_t rooted_ = 0;           ///< ids in live_ holding a root
};

}  // namespace hwgc
