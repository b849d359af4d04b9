#include "heap/verifier.hpp"

#include <algorithm>
#include <sstream>

#include "heap/object_model.hpp"

namespace hwgc {

HeapSnapshot HeapSnapshot::capture(const Heap& heap) {
  const WordMemory& mem = heap.memory();
  HeapSnapshot snap;
  snap.roots = heap.roots();
  snap.space_base = heap.layout().current_base();
  snap.space_end = heap.layout().current_end();
  snap.slot_plus_one_.assign(snap.space_end - snap.space_base, 0);

  for (Addr r : snap.roots) {
    if (r != kNullPtr && snap.slot_of(r) == kNoSlot) snap.add_object(r);
  }
  // BFS; record full contents of every reachable object. `objects` is its
  // own queue: children are appended as they are discovered.
  for (std::size_t next = 0; next < snap.objects.size(); ++next) {
    const Addr obj = snap.objects[next].addr;
    const Word attrs = mem.load(attributes_addr(obj));
    const Word pi = pi_of(attrs);
    const Word delta = delta_of(attrs);
    const auto first = static_cast<Word>(snap.words.size());
    for (Word i = 0; i < pi; ++i) {
      const Addr child = mem.load(pointer_field_addr(obj, i));
      snap.words.push_back(child);
      if (child != kNullPtr && snap.slot_of(child) == kNoSlot) {
        snap.add_object(child);
      }
    }
    for (Word j = 0; j < delta; ++j) {
      snap.words.push_back(mem.load(data_field_addr(obj, pi, j)));
    }
    // Index, not a reference: add_object() above may grow `objects`.
    snap.objects[next] = {obj, pi, delta, first};
    snap.live_words += object_words(pi, delta);
  }
  return snap;
}

std::uint32_t HeapSnapshot::slot_of(Addr a) const {
  if (a >= space_base && a < space_end) {
    return slot_plus_one_[a - space_base] - 1;  // 0 wraps to kNoSlot
  }
  const auto it = outside_.find(a);
  return it == outside_.end() ? kNoSlot : it->second;
}

void HeapSnapshot::add_object(Addr a) {
  const auto slot = static_cast<std::uint32_t>(objects.size());
  if (a >= space_base && a < space_end) {
    slot_plus_one_[a - space_base] = slot + 1;
  } else {
    outside_.emplace(a, slot);
  }
  objects.push_back({a});
}

ForwardingMap ForwardingMap::read(const HeapSnapshot& pre, const Heap& post) {
  const WordMemory& mem = post.memory();
  ForwardingMap fwd;
  fwd.base = post.layout().current_base();
  fwd.end = post.layout().current_end();
  fwd.entry.resize(pre.objects.size());
  fwd.copy.assign(pre.objects.size(), kNullPtr);
  fwd.image.assign(fwd.end - fwd.base, 0);
  for (std::size_t s = 0; s < pre.objects.size(); ++s) {
    const Addr old = pre.objects[s].addr;
    if (!is_forwarded(mem.load(attributes_addr(old)))) {
      fwd.entry[s] = Entry::kNotForwarded;
      continue;
    }
    const Addr c = mem.load(link_addr(old));
    fwd.copy[s] = c;
    if (c < fwd.base || c >= fwd.end) {
      fwd.entry[s] = Entry::kOutside;
    } else if (fwd.image[c - fwd.base] != 0) {
      fwd.entry[s] = Entry::kDuplicate;
    } else {
      fwd.image[c - fwd.base] = 1;
      fwd.entry[s] = Entry::kCopy;
      ++fwd.copies;
    }
  }
  return fwd;
}

Addr ForwardingMap::next_copy(Addr from) const {
  const auto it = std::find(image.begin() + (from - base), image.end(), 1);
  return base + static_cast<Addr>(it - image.begin());
}

std::string VerifyResult::summary() const {
  if (ok) return "OK";
  std::ostringstream os;
  os << errors.size() << (errors.size() == 32 ? "+" : "") << " error(s): ";
  for (const auto& e : errors) os << "\n  - " << e;
  return os.str();
}

namespace {

std::string hex(Addr a) {
  std::ostringstream os;
  os << "0x" << std::hex << a;
  return os.str();
}

}  // namespace

VerifyResult verify_collection(const HeapSnapshot& pre, const Heap& post,
                               VerifyOptions options) {
  return verify_collection(pre, post, ForwardingMap::read(pre, post),
                           options);
}

VerifyResult verify_collection(const HeapSnapshot& pre, const Heap& post,
                               const ForwardingMap& fwd,
                               VerifyOptions options) {
  VerifyResult res;
  const WordMemory& mem = post.memory();
  const Addr new_base = fwd.base;
  const Addr new_end = fwd.end;

  // The collector must have flipped: the new space must not be the space
  // the snapshot was taken in.
  if (new_base == pre.space_base) {
    res.fail("heap was not flipped after collection");
    return res;
  }

  // Invariant 1: every pre-live object is forwarded exactly once, into the
  // new space, and the forwarding map is injective.
  for (std::size_t s = 0; s < pre.objects.size(); ++s) {
    const Addr old = pre.objects[s].addr;
    switch (fwd.entry[s]) {
      case ForwardingMap::Entry::kCopy:
        break;
      case ForwardingMap::Entry::kNotForwarded:
        res.fail("live object " + hex(old) + " was not evacuated");
        break;
      case ForwardingMap::Entry::kOutside:
        res.fail("forwarding pointer of " + hex(old) +
                 " points outside tospace: " + hex(fwd.copy[s]));
        break;
      case ForwardingMap::Entry::kDuplicate:
        res.fail("two objects forwarded to the same copy " +
                 hex(fwd.copy[s]));
        break;
    }
  }
  if (!res.ok) return res;

  // Invariant 2: each copy is black, carries identical attributes, has
  // pointer fields mapped through fwd and bit-identical data words.
  for (std::size_t s = 0; s < pre.objects.size(); ++s) {
    const HeapSnapshot::ObjectRecord& rec = pre.objects[s];
    const Addr copy = fwd.copy[s];
    const Word attrs = mem.load(attributes_addr(copy));
    if (!is_black(attrs)) {
      res.fail("copy " + hex(copy) + " of " + hex(rec.addr) + " is not black");
    }
    if (pi_of(attrs) != rec.pi || delta_of(attrs) != rec.delta) {
      res.fail("copy " + hex(copy) + " has wrong shape: pi " +
               std::to_string(pi_of(attrs)) + "/" + std::to_string(rec.pi) +
               " delta " + std::to_string(delta_of(attrs)) + "/" +
               std::to_string(rec.delta));
      continue;
    }
    const std::span<const Addr> pointers = pre.pointers(rec);
    for (Word i = 0; i < rec.pi; ++i) {
      const Addr old_child = pointers[i];
      const Addr new_child = mem.load(pointer_field_addr(copy, i));
      const Addr expect =
          old_child == kNullPtr ? kNullPtr : fwd.copy_of(pre, old_child);
      if (new_child != expect) {
        res.fail("pointer field " + std::to_string(i) + " of copy " +
                 hex(copy) + " is " + hex(new_child) + ", expected " +
                 hex(expect));
      }
      // Invariant 4: no pointer may refer into the evacuated space.
      if (new_child != kNullPtr &&
          (new_child >= pre.space_base && new_child < pre.space_end)) {
        res.fail("stale fromspace pointer in copy " + hex(copy));
      }
    }
    const std::span<const Word> data = pre.data(rec);
    for (Word j = 0; j < rec.delta; ++j) {
      const Word v = mem.load(data_field_addr(copy, rec.pi, j));
      if (v != data[j]) {
        res.fail("data word " + std::to_string(j) + " of copy " + hex(copy) +
                 " corrupted: " + std::to_string(v) + " != " +
                 std::to_string(data[j]));
      }
    }
  }

  // Invariant 3: compaction. For Cheney-order collectors the copies tile
  // the new space contiguously from its base and the published allocation
  // pointer sits right behind the last copy. Chunk/LAB collectors are
  // checked for non-overlap and containment below the allocation pointer
  // instead (their holes are the fragmentation cost the paper cites). The
  // map's image walks the copies in address order.
  if (options.require_dense) {
    Addr expect = new_base;
    for (Addr copy = fwd.next_copy(new_base); copy != new_end;
         copy = fwd.next_copy(copy + 1)) {
      if (copy != expect) {
        res.fail("compaction hole: expected object at " + hex(expect) +
                 ", found " + hex(copy));
        break;
      }
      expect += object_words(mem.load(attributes_addr(copy)));
    }
    if (expect != new_base + pre.live_words) {
      res.fail("tospace extent mismatch: " +
               std::to_string(expect - new_base) + " words copied, snapshot " +
               "had " + std::to_string(pre.live_words) + " live words");
    }
    if (post.alloc_ptr() != expect) {
      res.fail("allocation pointer not at end of copied data: " +
               hex(post.alloc_ptr()) + " != " + hex(expect));
    }
  } else {
    Addr prev_end = new_base;
    for (Addr copy = fwd.next_copy(new_base); copy != new_end;
         copy = fwd.next_copy(copy + 1)) {
      if (copy < prev_end) {
        res.fail("overlapping copies near " + hex(copy));
        break;
      }
      prev_end = copy + object_words(mem.load(attributes_addr(copy)));
    }
    if (prev_end > post.alloc_ptr()) {
      res.fail("copy extends past the published allocation pointer");
    }
  }

  // Roots must have been redirected to the copies.
  if (post.roots().size() != pre.roots.size()) {
    res.fail("root count changed during collection");
  } else {
    for (std::size_t k = 0; k < pre.roots.size(); ++k) {
      const Addr expect_root =
          pre.roots[k] == kNullPtr ? kNullPtr : fwd.copy_of(pre, pre.roots[k]);
      if (post.roots()[k] != expect_root) {
        res.fail("root " + std::to_string(k) + " not forwarded: " +
                 hex(post.roots()[k]) + " != " + hex(expect_root));
      }
    }
  }
  return res;
}

}  // namespace hwgc
