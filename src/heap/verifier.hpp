// Heap verifier: proves that a collection cycle preserved the live graph.
//
// Usage: capture a HeapSnapshot of the live graph *before* the cycle, run
// any collector, then verify(). The checks implement DESIGN.md invariants
// 1-4: single evacuation, graph isomorphism through the forwarding map,
// dense compaction and absence of stale fromspace pointers.
//
// Layout (DESIGN.md §8): single evacuation and dense Cheney compaction put
// both the pre-cycle live set and the forwarding relation in dense arrays
// over one semispace, so neither the snapshot nor the forwarding map keeps
// a node-based container.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "heap/heap.hpp"
#include "sim/types.hpp"

namespace hwgc {

/// Deep copy of the live object graph, in BFS order from the roots.
struct HeapSnapshot {
  struct ObjectRecord {
    Addr addr = kNullPtr;
    Word pi = 0;
    Word delta = 0;
    Word first = 0;  ///< index of the object's pointer words in `words`
  };

  /// "No such object" from slot_of().
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  std::vector<ObjectRecord> objects;
  /// Each object's pi pointer words followed by its delta data words.
  std::vector<Word> words;
  std::vector<Addr> roots;
  Addr space_base = 0;  ///< base of the space the snapshot was taken in
  Addr space_end = 0;
  Word live_words = 0;

  /// Walks the heap's current space from its roots.
  static HeapSnapshot capture(const Heap& heap);

  /// Index of the object at `a` in `objects`, or kNoSlot.
  std::uint32_t slot_of(Addr a) const;

  std::span<const Addr> pointers(const ObjectRecord& rec) const {
    return {words.data() + rec.first, rec.pi};
  }
  std::span<const Word> data(const ObjectRecord& rec) const {
    return {words.data() + rec.first + rec.pi, rec.delta};
  }

 private:
  /// Appends the object at `a` in the next slot.
  void add_object(Addr a);

  /// Slot + 1 of the object starting at each word of
  /// [space_base, space_end); 0 where no snapshotted object starts.
  std::vector<std::uint32_t> slot_plus_one_;
  /// Objects outside the captured space. Only a corrupt heap points there
  /// (a stale fromspace pointer), so this stays empty and unallocated on
  /// a healthy one.
  std::unordered_map<Addr, std::uint32_t> outside_;
};

/// The forwarding relation a collection left in the snapshotted objects'
/// headers, indexed by snapshot slot, read once per check.
struct ForwardingMap {
  enum class Entry : std::uint8_t {
    kCopy,          ///< forwarded to a fresh copy inside the new space
    kNotForwarded,  ///< forwarded bit clear
    kOutside,       ///< forwarding pointer outside the new space
    kDuplicate,     ///< copy already claimed by an earlier slot
  };

  Addr base = 0;  ///< the new (current) space
  Addr end = 0;
  std::vector<Entry> entry;  ///< per slot
  std::vector<Addr> copy;    ///< per slot: the forwarding pointer, if any
  /// Per word of [base, end): 1 where a kCopy entry's copy starts, so the
  /// copies can be walked in address order without sorting.
  std::vector<std::uint8_t> image;
  std::size_t copies = 0;  ///< kCopy entries

  static ForwardingMap read(const HeapSnapshot& pre, const Heap& post);

  bool has_copy(std::uint32_t slot) const {
    return entry[slot] == Entry::kCopy;
  }
  /// The copy of the snapshotted object at `old_addr` (a kCopy entry).
  Addr copy_of(const HeapSnapshot& pre, Addr old_addr) const {
    return copy[pre.slot_of(old_addr)];
  }
  /// The first copy starting in [from, end), or `end`.
  Addr next_copy(Addr from) const;
};

struct VerifyResult {
  bool ok = true;
  std::vector<std::string> errors;

  void fail(std::string msg) {
    ok = false;
    if (errors.size() < 32) errors.push_back(std::move(msg));
  }
  std::string summary() const;
};

struct VerifyOptions {
  /// Cheney-order collectors (the coprocessor, sequential, naive parallel,
  /// work-packets) produce a densely packed tospace; chunk- and LAB-based
  /// collectors legitimately leave holes (the fragmentation the paper holds
  /// against them), so they are verified for containment and non-overlap
  /// instead.
  bool require_dense = true;
};

/// Checks a completed collection cycle against the pre-cycle snapshot.
/// Expects the collector to have flipped the heap, updated the roots and
/// published the final free pointer via set_alloc_ptr().
VerifyResult verify_collection(const HeapSnapshot& pre, const Heap& post,
                               VerifyOptions options = {});

/// verify_collection() over a forwarding map the caller already read
/// (ForwardingMap::read(pre, post)).
VerifyResult verify_collection(const HeapSnapshot& pre, const Heap& post,
                               const ForwardingMap& fwd,
                               VerifyOptions options = {});

}  // namespace hwgc
