#include "workloads/mutator.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "heap/object_model.hpp"

namespace hwgc {

ShadowMutator::ShadowMutator(Config cfg) : cfg_(cfg), rng_(cfg.seed) {
  if (cfg_.target_live == 0) {
    throw std::invalid_argument(
        "ShadowMutator: target_live must be >= 1 (a target of 0 can never "
        "hold a rooted object)");
  }
  if (cfg_.max_pi > kMaxPi || cfg_.max_delta > kMaxDelta) {
    throw std::invalid_argument(
        "ShadowMutator: max_pi/max_delta (" + std::to_string(cfg_.max_pi) +
        "/" + std::to_string(cfg_.max_delta) +
        ") exceed the header encoding limits (" + std::to_string(kMaxPi) +
        "/" + std::to_string(kMaxDelta) + ")");
  }
}

ShadowMutator::Image ShadowMutator::save_image() const {
  Image img;
  img.rng = rng_.state();
  img.objs = objs_;
  img.live = live_;
  img.allocations = allocations_;
  return img;
}

void ShadowMutator::restore_image(const Image& img) {
  rng_.set_state(img.rng);
  objs_ = img.objs;
  live_ = img.live;
  allocations_ = img.allocations;
}

std::size_t ShadowMutator::live_rooted() const noexcept {
  std::size_t n = 0;
  for (std::size_t i : live_) {
    if (objs_[i].rooted) ++n;
  }
  return n;
}

std::size_t ShadowMutator::pick_live() {
  return live_[rng_.below(live_.size())];
}

void ShadowMutator::step(Runtime& rt) {
  // A max-shape object that cannot fit an *empty* semispace would survive
  // any number of collections and still throw from alloc() — reject the
  // configuration the first time the target heap is known instead.
  const Word worst = cfg_.max_object_words();
  if (worst > rt.heap().capacity_words()) {
    throw std::invalid_argument(
        "ShadowMutator: a max-shape object needs " + std::to_string(worst) +
        " words (header + max_pi=" + std::to_string(cfg_.max_pi) +
        " + max_delta=" + std::to_string(cfg_.max_delta) +
        ") but the semispace holds only " +
        std::to_string(rt.heap().capacity_words()) +
        " — this churn can never fit");
  }
  const std::size_t rooted = live_rooted();
  const double r = rng_.uniform01();

  // Allocation pressure grows when below target; release pressure above.
  if (live_.empty() || (r < 0.45 && rooted < cfg_.target_live * 2)) {
    const Word pi = static_cast<Word>(rng_.below(cfg_.max_pi + 1));
    const Word delta = static_cast<Word>(rng_.below(cfg_.max_delta + 1));
    ShadowObj obj;
    obj.ref = rt.alloc(pi, delta);
    obj.rooted = true;
    obj.pi = pi;
    obj.delta = delta;
    obj.children.assign(pi, -1);
    obj.data.resize(delta);
    for (Word j = 0; j < delta; ++j) {
      obj.data[j] = static_cast<Word>(rng_());
      rt.set_data(obj.ref, j, obj.data[j]);
    }
    objs_.push_back(std::move(obj));
    live_.push_back(objs_.size() - 1);
    ++allocations_;
    return;
  }
  if (r < 0.65) {  // link two rooted objects
    const std::size_t pi_idx = pick_live();
    ShadowObj& parent = objs_[pi_idx];
    if (!parent.rooted || parent.pi == 0) return;
    const std::size_t ci = pick_live();
    if (!objs_[ci].rooted) return;
    const Word field = static_cast<Word>(rng_.below(parent.pi));
    rt.set_ptr(parent.ref, field, objs_[ci].ref);
    parent.children[field] = static_cast<std::int64_t>(ci);
    return;
  }
  if (r < 0.75) {  // unlink a field
    const std::size_t idx = pick_live();
    ShadowObj& parent = objs_[idx];
    if (!parent.rooted || parent.pi == 0) return;
    const Word field = static_cast<Word>(rng_.below(parent.pi));
    rt.set_ptr_null(parent.ref, field);
    parent.children[field] = -1;
    return;
  }
  if (r < 0.9) {  // overwrite a data word
    const std::size_t idx = pick_live();
    ShadowObj& obj = objs_[idx];
    if (!obj.rooted || obj.delta == 0) return;
    const Word j = static_cast<Word>(rng_.below(obj.delta));
    obj.data[j] = static_cast<Word>(rng_());
    rt.set_data(obj.ref, j, obj.data[j]);
    return;
  }
  // Release a root: the object (and whatever only it reaches) becomes
  // garbage unless still linked from another reachable object.
  if (rooted > cfg_.target_live / 2) {
    const std::size_t idx = pick_live();
    ShadowObj& obj = objs_[idx];
    if (!obj.rooted) return;
    rt.release(obj.ref);
    obj.rooted = false;
    obj.ref = Runtime::Ref();
    shadow_collect();
  }
}

void ShadowMutator::shadow_collect() {
  // Mark from rooted shadow objects.
  std::vector<char> mark(objs_.size(), 0);
  std::deque<std::size_t> queue;
  for (std::size_t i : live_) {
    if (objs_[i].rooted && !mark[i]) {
      mark[i] = 1;
      queue.push_back(i);
    }
  }
  while (!queue.empty()) {
    const std::size_t i = queue.front();
    queue.pop_front();
    for (std::int64_t c : objs_[i].children) {
      if (c >= 0 && !mark[static_cast<std::size_t>(c)]) {
        mark[static_cast<std::size_t>(c)] = 1;
        queue.push_back(static_cast<std::size_t>(c));
      }
    }
  }
  std::vector<std::size_t> survivors;
  survivors.reserve(live_.size());
  for (std::size_t i : live_) {
    if (mark[i]) survivors.push_back(i);
  }
  live_ = std::move(survivors);
}

std::size_t ShadowMutator::validate(Runtime& rt) const {
  std::size_t mismatches = 0;
  // shadow index -> heap address as discovered during the walk.
  std::unordered_map<std::size_t, Addr> seen;

  struct Visit {
    std::size_t shadow;
    Runtime::Ref ref;
    bool owned;  // temp root to release after the walk
  };
  std::vector<Visit> stack;
  std::vector<Runtime::Ref> temps;

  for (std::size_t i : live_) {
    if (objs_[i].rooted) stack.push_back({i, objs_[i].ref, false});
  }
  while (!stack.empty()) {
    const Visit v = stack.back();
    stack.pop_back();
    const ShadowObj& s = objs_[v.shadow];
    const Addr addr = rt.address_of(v.ref);
    auto [it, inserted] = seen.emplace(v.shadow, addr);
    if (!inserted) {
      if (it->second != addr) ++mismatches;  // aliasing broken
      continue;
    }
    if (rt.pi(v.ref) != s.pi || rt.delta(v.ref) != s.delta) {
      ++mismatches;
      continue;
    }
    for (Word j = 0; j < s.delta; ++j) {
      if (rt.get_data(v.ref, j) != s.data[j]) ++mismatches;
    }
    for (Word f = 0; f < s.pi; ++f) {
      Runtime::Ref child = rt.load_ptr(v.ref, f);
      if (s.children[f] < 0) {
        if (!child.is_null()) {
          ++mismatches;
          rt.release(child);
        }
        continue;
      }
      if (child.is_null()) {
        ++mismatches;
        continue;
      }
      temps.push_back(child);
      stack.push_back(
          {static_cast<std::size_t>(s.children[f]), child, true});
    }
  }
  for (Runtime::Ref r : temps) rt.release(r);
  return mismatches;
}

std::uint64_t ShadowMutator::data_digest(const std::vector<Word>& data) {
  std::uint64_t h = 14695981039346656037ull;
  for (Word w : data) {
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ (w & 0xffu)) * 1099511628211ull;
      w >>= 8;
    }
  }
  return h;
}

std::size_t ShadowMutator::probe(Runtime& rt, std::size_t* mismatches) {
  if (live_.empty()) return 0;
  // A released-but-reachable shadow object has no Ref to read through;
  // retry a few draws before giving up on this probe.
  for (int attempt = 0; attempt < 4; ++attempt) {
    const ShadowObj& obj = objs_[pick_live()];
    if (!obj.rooted) continue;
    if (rt.pi(obj.ref) != obj.pi || rt.delta(obj.ref) != obj.delta) {
      if (mismatches != nullptr) ++*mismatches;
      return 1;
    }
    // One observable read event per probe: read_probe digests the whole
    // data area through the runtime's trace seam, so recorded traces carry
    // exactly the reads the service layer issued. Only on divergence does
    // the probe re-read word-by-word to count exact mismatches.
    const ReadProbe read = rt.read_probe(obj.ref);
    if (read.digest != data_digest(obj.data)) {
      for (Word j = 0; j < obj.delta; ++j) {
        if (rt.get_data(obj.ref, j) != obj.data[j] && mismatches != nullptr) {
          ++*mismatches;
        }
      }
    }
    return static_cast<std::size_t>(obj.delta);
  }
  return 0;
}

}  // namespace hwgc
