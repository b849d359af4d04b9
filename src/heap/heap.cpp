#include "heap/heap.hpp"

#include <atomic>
#include <cassert>

namespace hwgc {

Heap::Heap(Word semispace_words)
    : layout_(semispace_words),
      mem_(layout_.total_words()),
      alloc_(layout_.current_base()) {}

Addr Heap::allocate(Word pi, Word delta) {
  assert(pi <= kMaxPi && delta <= kMaxDelta);
  const Word need = object_words(pi, delta);
  if (alloc_ + need > layout_.current_end()) return kNullPtr;
  const Addr obj = alloc_;
  alloc_ += need;
  mem_.store(attributes_addr(obj), make_attributes(pi, delta));
  mem_.store(link_addr(obj), kNullPtr);
  for (Word i = 0; i < pi; ++i) {
    mem_.store(pointer_field_addr(obj, i), kNullPtr);
  }
  for (Word j = 0; j < delta; ++j) {
    mem_.store(data_field_addr(obj, pi, j), 0);
  }
  ++allocated_;
  return obj;
}

Addr Heap::allocate_shared(Word pi, Word delta) {
  assert(pi <= kMaxPi && delta <= kMaxDelta);
  const Word need = object_words(pi, delta);
  std::atomic_ref<Addr> alloc(alloc_);
  Addr obj;
  Addr cur = alloc.load(std::memory_order_relaxed);
  do {
    if (cur + need > layout_.current_end()) return kNullPtr;
    obj = cur;
  } while (!alloc.compare_exchange_weak(cur, cur + need,
                                        std::memory_order_relaxed));
  mem_.store_atomic(attributes_addr(obj), make_attributes(pi, delta),
                    std::memory_order_relaxed);
  mem_.store_atomic(link_addr(obj), kNullPtr, std::memory_order_relaxed);
  for (Word i = 0; i < pi; ++i) {
    mem_.store_atomic(pointer_field_addr(obj, i), kNullPtr,
                      std::memory_order_relaxed);
  }
  for (Word j = 0; j < delta; ++j) {
    mem_.store_atomic(data_field_addr(obj, pi, j), 0,
                      std::memory_order_relaxed);
  }
  std::atomic_ref<std::uint64_t>(allocated_).fetch_add(
      1, std::memory_order_relaxed);
  return obj;
}

Addr Heap::pointer(Addr obj, Word i) const {
  assert(i < pi(obj));
  return mem_.load(pointer_field_addr(obj, i));
}

void Heap::set_pointer(Addr obj, Word i, Addr target) {
  assert(i < pi(obj));
  mem_.store(pointer_field_addr(obj, i), target);
}

Word Heap::data(Addr obj, Word j) const {
  assert(j < delta(obj));
  return mem_.load(data_field_addr(obj, pi(obj), j));
}

void Heap::set_data(Addr obj, Word j, Word value) {
  assert(j < delta(obj));
  mem_.store(data_field_addr(obj, pi(obj), j), value);
}

HeapImage HeapImage::save(const Heap& heap) {
  HeapImage img;
  img.base = heap.layout().current_base();
  img.alloc = heap.alloc_ptr();
  img.words.reserve(static_cast<std::size_t>(img.alloc - img.base));
  for (Addr a = img.base; a < img.alloc; ++a) {
    img.words.push_back(heap.memory().load(a));
  }
  img.roots = heap.roots();
  return img;
}

void HeapImage::restore(Heap& heap) const {
  if (heap.layout().current_base() != base) heap.flip();
  Addr a = base;
  for (Word w : words) heap.memory().store(a++, w);
  heap.set_alloc_ptr(alloc);
  heap.roots() = roots;
  if (heap.memory().ecc_enabled()) heap.memory().enable_ecc();
}

}  // namespace hwgc
