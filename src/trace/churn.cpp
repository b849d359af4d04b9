#include "trace/churn.hpp"

#include <stdexcept>
#include <string>

#include "trace/replayer.hpp"

namespace hwgc {

ChurnSource::ChurnSource(Config cfg) : cfg_(cfg), rng_(cfg.seed) {
  if (cfg_.target_live == 0) {
    throw std::invalid_argument(
        "ChurnSource: target_live must be >= 1 (a target of 0 can never "
        "hold a rooted object)");
  }
  if (cfg_.max_pi > kMaxPi || cfg_.max_delta > kMaxDelta) {
    throw std::invalid_argument(
        "ChurnSource: max_pi/max_delta (" + std::to_string(cfg_.max_pi) +
        "/" + std::to_string(cfg_.max_delta) +
        ") exceed the header encoding limits (" + std::to_string(kMaxPi) +
        "/" + std::to_string(kMaxDelta) + ")");
  }
}

std::uint64_t ChurnSource::pick_live() {
  return live_[rng_.below(live_.size())];
}

void ChurnSource::step(TraceCursor& c, Runtime& rt) {
  // A max-shape object that cannot fit an *empty* semispace would survive
  // any number of collections and still throw from alloc() — reject the
  // configuration the first time the target heap is known instead.
  const Word worst = cfg_.max_object_words();
  if (worst > rt.heap().capacity_words()) {
    throw std::invalid_argument(
        "ChurnSource: a max-shape object needs " + std::to_string(worst) +
        " words (header + max_pi=" + std::to_string(cfg_.max_pi) +
        " + max_delta=" + std::to_string(cfg_.max_delta) +
        ") but the semispace holds only " +
        std::to_string(rt.heap().capacity_words()) +
        " — this churn can never fit");
  }
  using Kind = TraceOp::Kind;
  const double r = rng_.uniform01();

  // Allocation pressure grows when below target; release pressure above.
  if (live_.empty() || (r < 0.45 && rooted_ < cfg_.target_live * 2)) {
    const Word pi = static_cast<Word>(rng_.below(cfg_.max_pi + 1));
    const Word delta = static_cast<Word>(rng_.below(cfg_.max_delta + 1));
    const std::uint64_t id = c.refs_.size();
    c.apply_one(rt, {Kind::kAlloc, id, pi, delta});
    live_.push_back(id);
    ++rooted_;
    for (Word j = 0; j < delta; ++j) {
      c.apply_one(rt, {Kind::kData, id, j, static_cast<Word>(rng_())});
    }
    return;
  }
  if (r < 0.65) {  // link two rooted objects
    const std::uint64_t parent = pick_live();
    const std::size_t pi = c.children_[parent].size();
    if (c.refs_[parent].empty() || pi == 0) return;
    const std::uint64_t child = pick_live();
    if (c.refs_[child].empty()) return;
    c.apply_one(rt, {Kind::kLink, parent, rng_.below(pi), child});
    return;
  }
  if (r < 0.75) {  // unlink a field
    const std::uint64_t parent = pick_live();
    const std::size_t pi = c.children_[parent].size();
    if (c.refs_[parent].empty() || pi == 0) return;
    c.apply_one(rt, {Kind::kLink, parent, rng_.below(pi), kNoTraceId});
    return;
  }
  if (r < 0.9) {  // overwrite a data word
    const std::uint64_t id = pick_live();
    const std::size_t delta = c.data_[id].size();
    if (c.refs_[id].empty() || delta == 0) return;
    const std::uint64_t j = rng_.below(delta);
    c.apply_one(rt, {Kind::kData, id, j, static_cast<Word>(rng_())});
    return;
  }
  // Release a root: the object (and whatever only it reaches) becomes
  // garbage unless still linked from another reachable object.
  if (rooted_ > cfg_.target_live / 2) {
    const std::uint64_t id = pick_live();
    if (c.refs_[id].empty()) return;
    c.apply_one(rt, {Kind::kRelease, id, 0, 0});
    --rooted_;
    shadow_collect(c);
  }
}

std::size_t ChurnSource::read(TraceCursor& c, Runtime& rt) {
  if (live_.empty()) return 0;
  // A released-but-reachable id has no root to read through; retry a few
  // draws before giving up on this read.
  for (int attempt = 0; attempt < 4; ++attempt) {
    const std::uint64_t id = pick_live();
    if (c.refs_[id].empty()) continue;
    const std::vector<Word>& data = c.data_[id];
    Fnv1a digest;
    for (Word w : data) digest.mix(w);
    c.apply_one(rt, {TraceOp::Kind::kRead, id, data.size(), digest.h});
    return data.size();
  }
  return 0;
}

void ChurnSource::shadow_collect(const TraceCursor& c) {
  // Mark from the rooted ids through the mirror's links.
  std::vector<char> mark(c.refs_.size(), 0);
  std::vector<std::uint64_t> stack;
  for (std::uint64_t id : live_) {
    if (!c.refs_[id].empty()) {
      mark[id] = 1;
      stack.push_back(id);
    }
  }
  while (!stack.empty()) {
    const std::uint64_t id = stack.back();
    stack.pop_back();
    for (std::uint64_t child : c.children_[id]) {
      if (child != kNoTraceId && !mark[child]) {
        mark[child] = 1;
        stack.push_back(child);
      }
    }
  }
  std::erase_if(live_, [&](std::uint64_t id) { return !mark[id]; });
}

void ChurnSource::mix_state(Fnv1a& h) const noexcept {
  for (std::uint64_t w : rng_.state()) h.mix(w);
  h.mix(live_.size());
  for (std::uint64_t id : live_) h.mix(id);
  h.mix(rooted_);
}

}  // namespace hwgc
