// A churning mutator with a shadow model — the stand-in for the paper's
// Java applications *between* collection cycles.
//
// The FPGA system runs real programs that allocate, mutate and drop
// references; Core 1 stops them when the semispace fills and the
// coprocessor collects (Section V-E). ShadowMutator reproduces that
// allocate/mutate/release churn against the Runtime facade and keeps a
// host-side shadow of the expected object graph, so tests can prove that
// *arbitrarily many* collection cycles preserve every reachable object,
// pointer and data word — not just the single cycle the HeapSnapshot
// verifier covers.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "heap/object_model.hpp"
#include "runtime/runtime.hpp"
#include "sim/rng.hpp"

namespace hwgc {

class ShadowMutator {
 public:
  struct Config {
    std::uint64_t seed = 1;
    Word max_pi = 4;
    Word max_delta = 8;
    /// Rough number of rooted objects the mutator tries to keep alive;
    /// beyond it, allocation steps are balanced by root releases (creating
    /// garbage for the next cycle).
    std::size_t target_live = 256;

    /// Words of the largest object this churn allocates: a semispace
    /// smaller than that can never fit it.
    Word max_object_words() const noexcept {
      return object_words(max_pi, max_delta);
    }
  };

  ShadowMutator() : ShadowMutator(Config{}) {}

  /// Validates the configuration eagerly: target_live == 0 (the mutator
  /// could never hold an object, so every step would be a no-op or a
  /// release of nothing) and max_pi/max_delta beyond the header encoding
  /// (object_model.hpp kMaxPi/kMaxDelta) throw std::invalid_argument here
  /// instead of corrupting headers or failing on a late allocation.
  explicit ShadowMutator(Config cfg);

  /// Performs one mutation action: allocate, link, unlink, overwrite data
  /// or release a root. Throws std::invalid_argument on the first call
  /// against a runtime whose semispace cannot hold even one max-shape
  /// object (such a config would otherwise die much later, whenever the
  /// rng first draws the unsatisfiable shape).
  void step(Runtime& rt);

  void run(Runtime& rt, std::size_t steps) {
    for (std::size_t i = 0; i < steps; ++i) step(rt);
  }

  /// Walks the shadow graph and compares every reachable object's shape,
  /// data words and link structure against the real heap. Returns the
  /// number of mismatches (0 = heap and shadow agree).
  std::size_t validate(Runtime& rt) const;

  /// Read-only probe for service-style read traffic (src/service/): picks
  /// one rooted object and compares every data word against the shadow.
  /// Returns the number of words read (0 when nothing is rooted); each
  /// divergent word increments *mismatches when non-null. Unlike
  /// validate() this is O(object), cheap enough to run per request.
  std::size_t probe(Runtime& rt, std::size_t* mismatches = nullptr);

  std::size_t live_rooted() const noexcept;
  std::uint64_t allocations() const noexcept { return allocations_; }

  /// One shadow object. Public only so Image below can be a value type the
  /// service-layer checkpoint stores and digests; not part of the mutation
  /// API.
  struct ShadowObj {
    Runtime::Ref ref;  ///< valid while rooted
    bool rooted = false;
    Word pi = 0;
    Word delta = 0;
    std::vector<std::int64_t> children;  ///< shadow index or -1
    std::vector<Word> data;
  };

  /// Checkpoint seam: the complete mutator state — shadow graph, live set,
  /// RNG stream position and allocation count. Restoring an image resumes
  /// the exact step sequence the mutator would have produced from the
  /// capture point (paired with Runtime::restore_image so the shadow and
  /// the real heap stay in lockstep).
  struct Image {
    std::array<std::uint64_t, 4> rng{};
    std::vector<ShadowObj> objs;
    std::vector<std::size_t> live;
    std::uint64_t allocations = 0;
  };

  Image save_image() const;
  void restore_image(const Image& img);

  /// FNV-1a 64 over a data-word vector — the shadow-side counterpart of
  /// Runtime::read_probe's heap-side digest (identical byte order), so a
  /// probe can compare one digest instead of every word.
  static std::uint64_t data_digest(const std::vector<Word>& data);

 private:
  /// Drops shadow objects that are no longer reachable from any rooted
  /// shadow object (they are garbage in the real heap too).
  void shadow_collect();

  std::size_t pick_live();

  Config cfg_;
  Rng rng_;
  std::vector<ShadowObj> objs_;
  std::vector<std::size_t> live_;  ///< indices of reachable shadow objects
  std::uint64_t allocations_ = 0;
};

}  // namespace hwgc
